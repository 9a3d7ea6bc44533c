// Package trace defines the execution-trace data model that connects
// CRISP's functional front ends to its cycle-level timing simulator.
//
// The layout follows Accel-Sim's SASS traces: a Kernel is a grid of CTAs
// (thread blocks); a CTA is a set of warps; a warp is the ordered list of
// instructions it executed, each carrying its active mask, register
// operands, and — for memory operations — the per-lane addresses it
// referenced, packed base+stride or base+delta per warp as Accel-Sim's
// trace files do. The timing model replays these traces; it never re-executes
// the program, so concurrent-execution studies can combine traces that
// were collected independently (a rendering trace and a compute trace),
// exactly as the paper prescribes.
package trace

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"crisp/internal/isa"
)

// MemClass labels the kind of data a memory instruction touches. The L2
// model uses it to attribute cache lines to texture, pipeline (inter-stage
// attributes), framebuffer, or compute data for the L2-composition studies
// (paper Figs. 11 and 15).
type MemClass uint8

const (
	// ClassNone marks non-memory instructions.
	ClassNone MemClass = iota
	// ClassTexture is texel data fetched by TEX instructions.
	ClassTexture
	// ClassPipeline is inter-stage rendering data: vertex attributes,
	// post-transform varyings written through L2 between pipeline stages.
	ClassPipeline
	// ClassFramebuffer is color/depth render-target traffic.
	ClassFramebuffer
	// ClassCompute is ordinary global-memory data of compute kernels.
	ClassCompute
)

// MemClassCount is the number of MemClass values.
const MemClassCount = 5

var memClassNames = [...]string{
	ClassNone:        "none",
	ClassTexture:     "texture",
	ClassPipeline:    "pipeline",
	ClassFramebuffer: "framebuffer",
	ClassCompute:     "compute",
}

func (c MemClass) String() string {
	if int(c) < len(memClassNames) {
		return memClassNames[c]
	}
	return fmt.Sprintf("MemClass(%d)", uint8(c))
}

// Inst is one executed warp instruction: a pointer-free 20-byte record, so
// that a warp's instruction array is memory the collector never scans. What
// a memory instruction knows about its addresses lives in its warp's two
// arenas, addressed from here: the packed per-lane addresses (addrs.go) and
// the line table derived from them (linetable.go).
type Inst struct {
	Op   isa.Opcode
	Dst  isa.Reg
	SrcA isa.Reg
	SrcB isa.Reg
	SrcC isa.Reg
	// Class attributes memory traffic for cache-composition accounting.
	Class MemClass
	// nLines is how many unique cache lines an LDG/STG/TEX touches;
	// conflict is an LDS/STS's bank-conflict degree (≥ 1 once derived).
	nLines   uint8
	conflict uint8
	// Mask is the active-lane mask; bit i set means lane i executed.
	Mask uint32
	// lineOff is where the instruction's nLines lines start in the warp's
	// line arena.
	lineOff uint32
	// addrOff is one past where the instruction's address record starts in
	// the warp's address arena; 0 means the instruction carries no
	// addresses (every non-memory instruction, and a shared access modeled
	// conflict-free).
	addrOff uint32
}

// ActiveLanes reports the number of executing lanes.
func (in *Inst) ActiveLanes() int { return bits.OnesCount32(in.Mask) }

// FullMask is the mask with all 32 lanes active.
const FullMask uint32 = 0xFFFFFFFF

// Warp is the trace of one warp: the instructions it executed, in order.
type Warp struct {
	ID    int // warp index within its CTA
	Insts []Inst
	// addrs is the warp's address arena: its memory instructions' packed
	// address records, back to back in instruction order. See addrs.go.
	addrs []byte
	// lines is the warp's line arena and lineSize the line size it was
	// derived at; lineSize 0 means the warp has no line table (hand-built
	// or marked stale). See linetable.go.
	lines    []uint64
	lineSize int
	// valid is the validation mark: the address of the warp's last
	// instruction when Builder or Load found the warp well formed, so it
	// holds only while the warp keeps that instruction array at that length
	// (a Clone, a truncation or a replaced Insts lose it by construction;
	// SetAddrs clears it). It is written before the kernel is shared and
	// only read afterwards.
	valid *Inst
}

// CTA is one thread block's trace.
type CTA struct {
	ID    int // linear CTA index within the kernel
	Warps []Warp
}

// KernelKind distinguishes rendering-pipeline kernels from compute kernels.
type KernelKind uint8

const (
	// KindCompute marks a general-purpose (CUDA-analog) kernel.
	KindCompute KernelKind = iota
	// KindVertex marks a vertex-shading kernel (one per vertex batch).
	KindVertex
	// KindFragment marks a fragment-shading kernel.
	KindFragment
)

var kindNames = [...]string{KindCompute: "compute", KindVertex: "vertex", KindFragment: "fragment"}

func (k KernelKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("KernelKind(%d)", uint8(k))
}

// IsGraphics reports whether the kernel belongs to the rendering pipeline.
func (k KernelKind) IsGraphics() bool { return k == KindVertex || k == KindFragment }

// Kernel is one launched grid with its static resource requirements, which
// the CTA scheduler uses for occupancy and partitioning decisions.
type Kernel struct {
	Name string
	Kind KernelKind
	// Stream identifies the in-order command stream the kernel belongs
	// to. Each rendering batch is its own stream; compute kernels carry
	// the stream their program used.
	Stream int

	ThreadsPerCTA int
	RegsPerThread int
	SharedMem     int // bytes per CTA

	CTAs []CTA
}

// WarpsPerCTA reports how many warps one CTA launches.
func (k *Kernel) WarpsPerCTA() int {
	return (k.ThreadsPerCTA + isa.WarpSize - 1) / isa.WarpSize
}

// InstCount reports the total number of warp instructions in the trace.
func (k *Kernel) InstCount() int {
	n := 0
	for i := range k.CTAs {
		for j := range k.CTAs[i].Warps {
			n += len(k.CTAs[i].Warps[j].Insts)
		}
	}
	return n
}

// ThreadInstCount reports the total thread-level instruction count
// (warp instructions weighted by active lanes).
func (k *Kernel) ThreadInstCount() int64 {
	var n int64
	for i := range k.CTAs {
		for j := range k.CTAs[i].Warps {
			for l := range k.CTAs[i].Warps[j].Insts {
				n += int64(k.CTAs[i].Warps[j].Insts[l].ActiveLanes())
			}
		}
	}
	return n
}

// Validate checks structural invariants of the trace: every CTA has at
// least one warp, warps end with EXIT, a global or texture instruction
// carries an address record and a non-memory one none, a warp's address
// records tile its arena in instruction order — each as long as its form
// byte and the instruction's mask say — and a warp's line table, where it
// has one, stays inside its arena. It walks every instruction.
func (k *Kernel) Validate() error { return k.check(true) }

// Check is Validate for a trace about to run: the kernel and CTA checks in
// full, and the instruction walk only in warps without the validation mark
// — hand-built ones, and ones changed since Builder or Load made them, both
// of which mark every warp that passes the walk. So a trace built or loaded
// once is walked once, however many jobs replay it.
func (k *Kernel) Check() error { return k.check(false) }

// check is Validate (all) and Check (!all).
func (k *Kernel) check(all bool) error {
	if k.ThreadsPerCTA <= 0 {
		return fmt.Errorf("kernel %q: ThreadsPerCTA = %d", k.Name, k.ThreadsPerCTA)
	}
	if len(k.CTAs) == 0 {
		return fmt.Errorf("kernel %q: no CTAs", k.Name)
	}
	for i := range k.CTAs {
		cta := &k.CTAs[i]
		if len(cta.Warps) == 0 {
			return fmt.Errorf("kernel %q CTA %d: no warps", k.Name, cta.ID)
		}
		if len(cta.Warps) > k.WarpsPerCTA() {
			return fmt.Errorf("kernel %q CTA %d: %d warps exceeds CTA size", k.Name, cta.ID, len(cta.Warps))
		}
		for j := range cta.Warps {
			w := &cta.Warps[j]
			if !all && w.marked() {
				continue
			}
			if err := w.validate(); err != nil {
				return fmt.Errorf("kernel %q CTA %d warp %d: %w", k.Name, cta.ID, w.ID, err)
			}
		}
	}
	return nil
}

// validate is Validate's per-warp half.
func (w *Warp) validate() error {
	if len(w.Insts) == 0 {
		return errors.New("empty")
	}
	if w.Insts[len(w.Insts)-1].Op != isa.OpEXIT {
		return errors.New("trace does not end with EXIT")
	}
	next := 0 // where the next address record must start
	for l := range w.Insts {
		if err := w.Insts[l].validate(w, &next); err != nil {
			return fmt.Errorf("inst %d (%v): %w", l, w.Insts[l].Op, err)
		}
	}
	if next != len(w.addrs) {
		return fmt.Errorf("address records cover %d of the arena's %d bytes", next, len(w.addrs))
	}
	return nil
}

// markWarps gives every warp that passes validate the validation mark.
func markWarps(warps []Warp) {
	for i := range warps {
		if w := &warps[i]; w.validate() == nil {
			w.valid = &w.Insts[len(w.Insts)-1]
		}
	}
}

// marked reports whether w carries the validation mark.
func (w *Warp) marked() bool {
	n := len(w.Insts)
	return n > 0 && w.valid == &w.Insts[n-1]
}

// validate is Validate's per-instruction half; w is the instruction's warp
// and *next where its address record, if it has one, must start (advanced
// past it). Records and line-table entries are bounds-checked only, never
// decoded or re-derived: every trace a front end builds or Load reads is
// walked once.
func (in *Inst) validate(w *Warp, next *int) error {
	if in.Mask == 0 {
		return errors.New("empty active mask")
	}
	space := isa.SpaceOf(in.Op)
	if in.addrOff != 0 {
		if space == isa.SpaceNone {
			return errors.New("non-memory op carries addresses")
		}
		rec, ok := w.record(in)
		if !ok {
			return fmt.Errorf("address record at byte %d for %d active lanes does not fit the warp's %d-byte arena", in.addrOff-1, in.ActiveLanes(), len(w.addrs))
		}
		if int(in.addrOff)-1 != *next {
			return fmt.Errorf("address record at byte %d, the one before it ends at %d", in.addrOff-1, *next)
		}
		*next += len(rec)
	}
	switch space {
	case isa.SpaceGlobal, isa.SpaceTexture:
		if in.addrOff == 0 {
			return fmt.Errorf("no addresses for %d active lanes", in.ActiveLanes())
		}
		if w.lineSize == 0 {
			break
		}
		if int(in.lineOff)+int(in.nLines) > len(w.lines) {
			return fmt.Errorf("line table entry [%d,+%d) past the warp's %d lines", in.lineOff, in.nLines, len(w.lines))
		}
		if in.nLines == 0 {
			return fmt.Errorf("line table lists no line for %d addresses", in.ActiveLanes())
		}
	case isa.SpaceShared:
		// A shared access carries either no offsets (modeled
		// conflict-free) or one per active lane.
		if w.lineSize != 0 && in.conflict == 0 {
			return errors.New("line table holds no bank-conflict degree")
		}
	}
	return nil
}

// OpHistogram counts warp instructions by opcode.
func (k *Kernel) OpHistogram() map[isa.Opcode]int {
	h := make(map[isa.Opcode]int)
	for i := range k.CTAs {
		for j := range k.CTAs[i].Warps {
			for l := range k.CTAs[i].Warps[j].Insts {
				h[k.CTAs[i].Warps[j].Insts[l].Op]++
			}
		}
	}
	return h
}

// CacheLineSize is the cache line granularity used for static trace
// analysis (128 B, matching the simulated caches and paper Fig. 10).
const CacheLineSize = 128

// TexLinesPerCTA reports, for each CTA, the number of distinct 128-byte
// cache lines referenced by its TEX instructions — the static analysis
// behind paper Fig. 10: the union of the instructions' line-table entries,
// or of their coalesced addresses where a warp has no table.
func (k *Kernel) TexLinesPerCTA() []int {
	out := make([]int, 0, len(k.CTAs))
	var lines []uint64
	for i := range k.CTAs {
		lines = lines[:0]
		for j := range k.CTAs[i].Warps {
			w := &k.CTAs[i].Warps[j]
			arena, tabled := w.LineTable(CacheLineSize)
			for l := range w.Insts {
				in := &w.Insts[l]
				if in.Op != isa.OpTEX {
					continue
				}
				if tabled {
					lines = append(lines, in.Lines(arena)...)
				} else {
					var lanes [isa.WarpSize]uint64
					lines = Coalesce(lines, w.Addrs(in, &lanes), CacheLineSize)
				}
			}
		}
		slices.Sort(lines)
		out = append(out, len(slices.Compact(lines)))
	}
	return out
}

// SizeBytes reports the heap the kernel's trace holds: the kernel header,
// its name, and every CTA, warp, instruction array, address arena and line
// arena at its capacity. Instructions are pointer-free, so the walk is one
// step per warp.
func (k *Kernel) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*k)) + int64(len(k.Name)) + int64(cap(k.CTAs))*int64(unsafe.Sizeof(CTA{}))
	for i := range k.CTAs {
		warps := k.CTAs[i].Warps
		n += int64(cap(warps)) * int64(unsafe.Sizeof(Warp{}))
		for j := range warps {
			w := &warps[j]
			n += int64(cap(w.Insts))*int64(unsafe.Sizeof(Inst{})) + int64(cap(w.addrs)) + int64(cap(w.lines))*8
		}
	}
	return n
}
