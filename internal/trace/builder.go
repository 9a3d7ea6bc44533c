package trace

import (
	"fmt"
	"math/bits"
	"slices"

	"crisp/internal/isa"
)

// Builder incrementally assembles one Kernel trace. Front ends create a
// Builder per kernel, open CTAs and warps, and append instructions; the
// Builder tracks register numbering per warp and appends the terminating
// EXIT automatically when a warp is closed.
type Builder struct {
	k       Kernel
	curCTA  *CTA
	open    bool // a warp is open: its program is prog
	nextReg int
	// prog is the open warp's program, built in one reused array and
	// interned when the warp closes: a kernel's warps mostly run one
	// program, so most warps allocate none.
	prog  []Inst
	progs programs
	// addrs and table collect the open CTA's address records and line
	// table, one warp after another (warp i's records end at addrEnds[i]);
	// closing the CTA copies each into one exactly-sized array the warps'
	// streams are cut from, so they cost one allocation per stream per CTA
	// and no slack. progErrs holds the verdict on each warp's program.
	addrs    []byte
	addrEnds []int
	table    tableBuf
	progErrs []error
}

// NewBuilder starts a kernel trace with the given identity and per-CTA
// resource requirements.
func NewBuilder(name string, kind KernelKind, stream, threadsPerCTA, regsPerThread, sharedMem int) *Builder {
	return &Builder{k: Kernel{
		Name:          name,
		Kind:          kind,
		Stream:        stream,
		ThreadsPerCTA: threadsPerCTA,
		RegsPerThread: regsPerThread,
		SharedMem:     sharedMem,
	}}
}

// BeginCTA opens a new CTA. Any open warp is closed first.
func (b *Builder) BeginCTA() {
	b.endCTA()
	warps := max(0, b.k.WarpsPerCTA())
	b.k.CTAs = append(b.k.CTAs, CTA{ID: len(b.k.CTAs), Warps: make([]Warp, 0, warps)})
	b.curCTA = &b.k.CTAs[len(b.k.CTAs)-1]
}

// BeginWarp opens a new warp in the current CTA and resets register
// numbering. It panics if no CTA is open.
func (b *Builder) BeginWarp() {
	if b.curCTA == nil {
		panic("trace.Builder: BeginWarp before BeginCTA")
	}
	b.EndWarp()
	b.curCTA.Warps = append(b.curCTA.Warps, Warp{ID: len(b.curCTA.Warps)})
	b.open, b.prog, b.nextReg = true, b.prog[:0], 0
}

// EndWarp closes the open warp, appending EXIT if the trace does not
// already end with one, and gives the warp the kernel's copy of its
// program. It is a no-op when no warp is open.
func (b *Builder) EndWarp() {
	if !b.open {
		return
	}
	n := len(b.prog)
	if n == 0 || b.prog[n-1].Op != isa.OpEXIT {
		mask := FullMask
		if n > 0 {
			mask = b.prog[n-1].Mask
		}
		b.prog = append(b.prog, Inst{Op: isa.OpEXIT, Dst: isa.RegNone, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: mask})
	}
	w := &b.curCTA.Warps[len(b.curCTA.Warps)-1]
	var err error
	w.Insts, err = b.progs.intern(b.prog)
	b.progErrs = append(b.progErrs, err)
	b.addrEnds = append(b.addrEnds, len(b.addrs))
	b.table.endWarp()
	b.open = false
}

// endCTA closes the open warp, hands the open CTA's warps their streams and
// marks the ones that pass validation, on the goroutine that built them.
func (b *Builder) endCTA() {
	b.EndWarp()
	if b.curCTA == nil {
		return
	}
	warps := b.curCTA.Warps
	carveAddrArenas(warps, slices.Clone(b.addrs), b.addrEnds)
	b.table.carve(warps)
	for i := range warps {
		warps[i].mark(b.progErrs[i])
	}
	b.addrs, b.addrEnds, b.progErrs = b.addrs[:0], b.addrEnds[:0], b.progErrs[:0]
}

// NewReg allocates the next virtual register for the current warp.
// Register numbers wrap within the ISA's 8-bit space; the timing model
// only uses them for dependence tracking, so reuse after 255 registers is
// harmless (it conservatively adds dependencies).
func (b *Builder) NewReg() isa.Reg {
	r := isa.Reg(b.nextReg % int(isa.RegNone))
	b.nextReg++
	return r
}

// ALU appends a non-memory instruction writing dst from up to three
// sources (pass isa.RegNone for absent operands) under the given mask,
// and returns dst for chaining.
func (b *Builder) ALU(op isa.Opcode, dst isa.Reg, mask uint32, srcs ...isa.Reg) isa.Reg {
	if isa.IsMemory(op) {
		panic(fmt.Sprintf("trace.Builder: ALU called with memory opcode %v", op))
	}
	in := Inst{Op: op, Dst: dst, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: mask}
	setSrcs(&in, srcs)
	b.append(in)
	return dst
}

// Mem appends a memory instruction with one address per active lane, in
// ascending lane order (none for an LDC). The addresses are packed into the
// warp's address arena and coalesced into its line table here, once; addrs
// is not retained, so the caller may fill the same buffer again. It returns
// the number of distinct CacheLineSize lines the addresses touch (0 for an
// instruction with none).
func (b *Builder) Mem(op isa.Opcode, dst isa.Reg, mask uint32, addrs []uint64, class MemClass, srcs ...isa.Reg) int {
	if !isa.IsMemory(op) {
		panic(fmt.Sprintf("trace.Builder: Mem called with non-memory opcode %v", op))
	}
	in := Inst{Op: op, Dst: dst, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: mask, Class: class}
	setSrcs(&in, srcs)
	return b.appendMem(in, addrs)
}

// Shared appends a shared-memory access carrying no per-lane offsets:
// the LDST unit treats it as conflict-free (one bank transaction).
func (b *Builder) Shared(op isa.Opcode, dst isa.Reg, mask uint32, srcs ...isa.Reg) {
	b.SharedAddr(op, dst, mask, nil, srcs...)
}

// SharedAddr appends a shared-memory access with per-active-lane byte
// offsets within the CTA's shared segment; the LDST unit derives bank
// conflicts from them. Addresses never leave the SM, so they are offsets,
// not virtual addresses. offsets is not retained.
func (b *Builder) SharedAddr(op isa.Opcode, dst isa.Reg, mask uint32, offsets []uint64, srcs ...isa.Reg) {
	if op != isa.OpLDS && op != isa.OpSTS {
		panic(fmt.Sprintf("trace.Builder: Shared called with %v", op))
	}
	in := Inst{Op: op, Dst: dst, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: mask}
	setSrcs(&in, srcs)
	b.appendMem(in, offsets)
}

// Barrier appends a CTA-wide barrier.
func (b *Builder) Barrier() {
	b.append(Inst{Op: isa.OpBAR, Dst: isa.RegNone, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: FullMask})
}

func setSrcs(in *Inst, srcs []isa.Reg) {
	switch len(srcs) {
	case 0:
	case 1:
		in.SrcA = srcs[0]
	case 2:
		in.SrcA, in.SrcB = srcs[0], srcs[1]
	case 3:
		in.SrcA, in.SrcB, in.SrcC = srcs[0], srcs[1], srcs[2]
	default:
		panic("trace.Builder: more than three source operands")
	}
}

func (b *Builder) append(in Inst) {
	if !b.open {
		panic("trace.Builder: instruction appended outside a warp")
	}
	b.prog = append(b.prog, in)
}

// appendMem appends a memory instruction after packing its addresses and
// deriving its line-table entry, while they are still warm from being
// computed. An address list that does not match the mask is a front-end
// bug an affine record would hide (it decodes to as many lanes as the mask
// has), so it is refused here. It returns the instruction's line count.
func (b *Builder) appendMem(in Inst, addrs []uint64) int {
	if len(addrs) > 0 {
		if len(addrs) != in.ActiveLanes() {
			panic(fmt.Sprintf("trace.Builder: %v with %d addresses for %d active lanes", in.Op, len(addrs), in.ActiveLanes()))
		}
		in.rec = true
		b.addrs = appendRecord(b.addrs, pickForm(addrs), addrs)
	}
	b.append(in)
	return b.table.add(&in, addrs)
}

// Finish closes any open warp and returns the completed kernel.
func (b *Builder) Finish() *Kernel {
	b.endCTA()
	b.curCTA = nil
	return &b.k
}

// programs interns one kernel's programs by content, so that warps running
// the same program share one exactly-sized array, and validates each once.
// A program whose hash another one holds (a collision) takes its place: the
// warps before it keep theirs, and sharing stays a matter of memory only.
type programs struct {
	byHash map[uint64]interned
}

// interned is one distinct program and the verdict on it.
type interned struct {
	insts []Inst
	err   error
}

// intern returns the kernel's array holding p's instructions, adding a copy
// of p (the caller may reuse it) when the kernel has none yet, and the
// verdict of validateProgram on it.
func (ps *programs) intern(p []Inst) ([]Inst, error) {
	h := hashProgram(p)
	if q, ok := ps.byHash[h]; ok && slices.Equal(q.insts, p) {
		return q.insts, q.err
	}
	q := interned{make([]Inst, len(p)), validateProgram(p)}
	copy(q.insts, p)
	if ps.byHash == nil {
		ps.byHash = make(map[uint64]interned)
	}
	ps.byHash[h] = q
	return q.insts, q.err
}

// hashProgram hashes every field of every instruction of p.
func hashProgram(p []Inst) uint64 {
	const mul = 0x9E3779B97F4A7C15
	h := uint64(len(p))
	for i := range p {
		in := &p[i]
		x := uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.SrcA)<<16 | uint64(in.SrcB)<<24 |
			uint64(in.SrcC)<<32 | uint64(in.Class)<<40
		if in.rec {
			x |= 1 << 48
		}
		h = bits.RotateLeft64((h^x)*mul, 29)
		h = bits.RotateLeft64((h^uint64(in.Mask))*mul, 29)
	}
	return h
}
