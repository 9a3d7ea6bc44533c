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
//
// A warp is split in two. Its program — opcodes, registers, classes, masks
// and which instructions own an address record — is what every warp of a
// kernel mostly repeats, so warps that ran the same program share one
// read-only array of it. What its addresses decide lies in the warp's own
// streams, in instruction order: the address records (addrs.go) and the line
// table derived from them (linetable.go). A Cursor walks a warp's program and
// its streams in step.
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

// Inst is one instruction of a warp's program: what its program site fixes,
// a pointer-free 12-byte record. Warps that ran the same program — most of
// a kernel's — share one array of them (Builder and Load intern programs by
// content), so an Inst holds nothing a warp's addresses decide. Those live
// in the warp's own streams, in instruction order: its packed per-lane
// addresses (addrs.go) and the line table derived from them (linetable.go),
// which a Cursor walks.
type Inst struct {
	Op   isa.Opcode
	Dst  isa.Reg
	SrcA isa.Reg
	SrcB isa.Reg
	SrcC isa.Reg
	// Class attributes memory traffic for cache-composition accounting.
	Class MemClass
	// rec is set when the instruction owns the next address record of its
	// warp's arena: every global or texture access, and a shared one that
	// carries offsets.
	rec bool
	// Mask is the active-lane mask; bit i set means lane i executed.
	Mask uint32
}

// ActiveLanes reports the number of executing lanes.
func (in *Inst) ActiveLanes() int { return bits.OnesCount32(in.Mask) }

// FullMask is the mask with all 32 lanes active.
const FullMask uint32 = 0xFFFFFFFF

// Warp is the trace of one warp: the program it executed and the addresses
// its memory instructions touched.
type Warp struct {
	ID int // warp index within its CTA
	// Insts is the program, in execution order. It may be shared with other
	// warps of the kernel and is read-only: whatever edits a warp's program
	// gives the warp a copy of its own first (Clone, SetAddrs).
	Insts []Inst
	// addrs is the warp's address arena: its memory instructions' packed
	// address records, back to back in instruction order. See addrs.go.
	addrs []byte
	// counts and lines are the warp's line table and lineSize the line size
	// it was derived at; lineSize 0 means the warp has no table (hand-built
	// or marked stale). See linetable.go.
	counts   []uint8
	lines    []uint64
	lineSize int
	// valid is the validation mark: the address of the last instruction of
	// the program the warp had when Builder or Load found its program and
	// its streams well formed, so it holds only while the warp keeps that
	// array at that length (a Clone, a truncation or a replaced Insts lose it
	// by construction; SetAddrs clears it). The mark is the warp's: a program
	// shared by many warps carries none. It is written before the kernel is
	// shared and only read afterwards.
	valid *Inst
}

// Cursor is a place in a warp's streams: where the instruction at some
// program counter finds its address record and its line-table entry. The
// streams hold the warp's memory instructions' data back to back in
// instruction order, so a cursor moves forward one instruction at a time
// (Warp.Next) and CursorAt finds one by walking from the start. The zero
// Cursor is the first instruction's.
type Cursor struct {
	count, line, addr uint32 // next line-table entry, line, and arena byte
}

// Next returns the cursor of the instruction after in, the instruction of w
// at cursor c. A record that does not lie inside the arena (which Validate
// rejects) moves the cursor to the arena's end: no record after it is
// reachable.
func (w *Warp) Next(c Cursor, in *Inst) Cursor {
	if in.rec {
		if rec, ok := w.recordAt(c, in); ok {
			c.addr += uint32(len(rec))
		} else {
			c.addr = uint32(len(w.addrs))
		}
	}
	return w.NextEntry(c, in)
}

// NextEntry is Next for a reader of the line table alone, the timing
// model's issue path: it moves past in's table entry but leaves the cursor's
// place in the address arena, which it never reads, where it was. The cursor
// it returns serves Lines and ConflictDegree, not Addrs.
func (w *Warp) NextEntry(c Cursor, in *Inst) Cursor {
	switch isa.SpaceOf(in.Op) {
	case isa.SpaceGlobal, isa.SpaceTexture:
		if int(c.count) < len(w.counts) {
			c.line += uint32(w.counts[c.count])
		}
		c.count++
	case isa.SpaceShared:
		c.count++
	}
	return c
}

// CursorAt returns the cursor of instruction pc, walking from the first.
func (w *Warp) CursorAt(pc int) Cursor {
	var c Cursor
	for l := range w.Insts[:pc] {
		c = w.Next(c, &w.Insts[l])
	}
	return c
}

// recordAt is record for in, the instruction at cursor c; ok is false too
// when in owns no record.
func (w *Warp) recordAt(c Cursor, in *Inst) ([]byte, bool) {
	if !in.rec {
		return nil, false
	}
	return w.record(int(c.addr), in)
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
// least one warp; every program ends with EXIT, runs no instruction without
// active lanes, gives an address record to every global or texture
// instruction and none to a non-memory one; a warp's address records tile
// its arena in instruction order — each as long as its form byte and the
// instruction's mask say — and a warp's line table, where it has one, holds
// one entry per memory access and exactly the lines those entries list. A
// program shared by many warps is checked once.
func (k *Kernel) Validate() error { return k.check(true) }

// Check is Validate for a trace about to run: the kernel and CTA checks in
// full, and the per-warp ones only in warps without the validation mark —
// hand-built ones, and ones changed since Builder or Load made them, both
// of which mark every warp that passes. So a trace built or loaded once is
// walked once, however many jobs replay it.
func (k *Kernel) Check() error { return k.check(false) }

// check is Validate (all) and Check (!all).
func (k *Kernel) check(all bool) error {
	if k.ThreadsPerCTA <= 0 {
		return fmt.Errorf("kernel %q: ThreadsPerCTA = %d", k.Name, k.ThreadsPerCTA)
	}
	if len(k.CTAs) == 0 {
		return fmt.Errorf("kernel %q: no CTAs", k.Name)
	}
	var checked map[program]error // each program's verdict
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
			id := program{unsafe.SliceData(w.Insts), len(w.Insts)}
			err, ok := checked[id]
			if !ok {
				err = validateProgram(w.Insts)
				if checked == nil {
					checked = make(map[program]error)
				}
				checked[id] = err
			}
			if err == nil {
				err = w.validateStreams()
			}
			if err != nil {
				return fmt.Errorf("kernel %q CTA %d warp %d: %w", k.Name, cta.ID, w.ID, err)
			}
		}
	}
	return nil
}

// program names an instruction array at a length: what warps share.
type program struct {
	first *Inst
	n     int
}

// validateProgram checks what a program fixes, whichever warps run it.
func validateProgram(p []Inst) error {
	if len(p) == 0 {
		return errors.New("empty")
	}
	if p[len(p)-1].Op != isa.OpEXIT {
		return errors.New("trace does not end with EXIT")
	}
	for l := range p {
		if err := p[l].validate(); err != nil {
			return fmt.Errorf("inst %d (%v): %w", l, p[l].Op, err)
		}
	}
	return nil
}

// validate is validateProgram's per-instruction half.
func (in *Inst) validate() error {
	if in.Mask == 0 {
		return errors.New("empty active mask")
	}
	switch isa.SpaceOf(in.Op) {
	case isa.SpaceNone:
		if in.rec {
			return errors.New("non-memory op carries addresses")
		}
	case isa.SpaceGlobal, isa.SpaceTexture:
		if !in.rec {
			return fmt.Errorf("no addresses for %d active lanes", in.ActiveLanes())
		}
	}
	return nil
}

// validateStreams checks what the warp's addresses decide against the
// program it runs: that the records of the instructions owning one fit the
// arena back to back, in instruction order, and cover it exactly; and, where
// the warp has a line table, that it holds one count per global, texture or
// shared access — at least one line for each of the first, a conflict degree
// of at least one for the last — and that the line counts add up to the
// lines it holds. Records and table entries are bounds-checked only, never
// decoded or re-derived: every trace a front end builds or Load reads is
// walked once.
func (w *Warp) validateStreams() error {
	next, count, lines := 0, 0, 0 // where the next record, count and line start
	tabled := w.lineSize != 0
	for l := range w.Insts {
		in := &w.Insts[l]
		if in.rec {
			rec, ok := w.record(next, in)
			if !ok {
				return fmt.Errorf("inst %d (%v): address record at byte %d for %d active lanes does not fit the warp's %d-byte arena", l, in.Op, next, in.ActiveLanes(), len(w.addrs))
			}
			next += len(rec)
		}
		space := isa.SpaceOf(in.Op)
		if !tabled || !countsIn(space) {
			continue
		}
		if count == len(w.counts) {
			return fmt.Errorf("inst %d (%v): the line table's %d entries end before it", l, in.Op, len(w.counts))
		}
		n := int(w.counts[count])
		count++
		switch {
		case n == 0 && space == isa.SpaceShared:
			return fmt.Errorf("inst %d (%v): line table holds no bank-conflict degree", l, in.Op)
		case n == 0:
			return fmt.Errorf("inst %d (%v): line table lists no line for %d addresses", l, in.Op, in.ActiveLanes())
		case space != isa.SpaceShared:
			lines += n
		}
	}
	if next != len(w.addrs) {
		return fmt.Errorf("address records cover %d of the arena's %d bytes", next, len(w.addrs))
	}
	if tabled && (count != len(w.counts) || lines != len(w.lines)) {
		return fmt.Errorf("line table holds %d entries and %d lines, the program's accesses use %d and %d", len(w.counts), len(w.lines), count, lines)
	}
	return nil
}

// mark gives w the validation mark when its program passed (progErr nil)
// and its streams pass.
func (w *Warp) mark(progErr error) {
	if progErr == nil && w.validateStreams() == nil {
		w.valid = &w.Insts[len(w.Insts)-1]
	}
}

// marked reports whether w carries the validation mark.
func (w *Warp) marked() bool {
	n := len(w.Insts)
	return n > 0 && w.valid == &w.Insts[n-1]
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
	var lanes [isa.WarpSize]uint64
	for i := range k.CTAs {
		lines = lines[:0]
		for j := range k.CTAs[i].Warps {
			w := &k.CTAs[i].Warps[j]
			tabled := w.HasLineTable(CacheLineSize)
			var c Cursor
			for l := range w.Insts {
				in := &w.Insts[l]
				if in.Op == isa.OpTEX {
					if tabled {
						lines = append(lines, w.Lines(c)...)
					} else {
						lines = Coalesce(lines, w.Addrs(c, in, &lanes), CacheLineSize)
					}
				}
				c = w.Next(c, in)
			}
		}
		slices.Sort(lines)
		out = append(out, len(slices.Compact(lines)))
	}
	return out
}

// SizeBytes reports the heap the kernel's trace holds: the kernel header,
// its name, and every CTA, warp, program, address arena and line table at
// its capacity, a program shared by many warps once. Instructions are
// pointer-free, so the walk is one step per warp.
func (k *Kernel) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*k)) + int64(len(k.Name)) + int64(cap(k.CTAs))*int64(unsafe.Sizeof(CTA{}))
	counted := make(map[*Inst]bool)
	for i := range k.CTAs {
		warps := k.CTAs[i].Warps
		n += int64(cap(warps)) * int64(unsafe.Sizeof(Warp{}))
		for j := range warps {
			w := &warps[j]
			if p := unsafe.SliceData(w.Insts); p != nil && !counted[p] {
				counted[p] = true
				n += int64(cap(w.Insts)) * int64(unsafe.Sizeof(Inst{}))
			}
			n += int64(cap(w.addrs)) + int64(cap(w.counts)) + int64(cap(w.lines))*8
		}
	}
	return n
}
