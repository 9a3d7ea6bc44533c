package trace

import (
	"fmt"
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
	curWarp *Warp
	nextReg int
	// longest is the instruction count of the longest warp closed so far.
	// A kernel's warps run one program, so the next warp is allocated at
	// that length up front instead of regrowing by doubling: one allocation
	// per warp, and no slack capacity in the retained trace.
	longest int
	// lines and addrs collect the open CTA's line table and address
	// records, one warp after another (warp i's end at lineEnds[i] and
	// addrEnds[i], the open warp's start at lineStart and addrStart);
	// closing the CTA copies each into one exactly-sized array the warps'
	// arenas are cut from, so they cost two allocations per CTA and no
	// slack.
	lines                []uint64
	addrs                []byte
	lineEnds, addrEnds   []int
	lineStart, addrStart int
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
	b.lineEnds, b.addrEnds = slices.Grow(b.lineEnds, warps), slices.Grow(b.addrEnds, warps)
	b.curCTA = &b.k.CTAs[len(b.k.CTAs)-1]
}

// BeginWarp opens a new warp in the current CTA and resets register
// numbering. It panics if no CTA is open.
func (b *Builder) BeginWarp() {
	if b.curCTA == nil {
		panic("trace.Builder: BeginWarp before BeginCTA")
	}
	b.EndWarp()
	w := Warp{ID: len(b.curCTA.Warps)}
	if b.longest > 0 {
		w.Insts = make([]Inst, 0, b.longest)
	}
	b.lineStart, b.addrStart = len(b.lines), len(b.addrs)
	b.curCTA.Warps = append(b.curCTA.Warps, w)
	b.curWarp = &b.curCTA.Warps[len(b.curCTA.Warps)-1]
	b.nextReg = 0
}

// EndWarp closes the open warp, appending EXIT if the trace does not
// already end with one. It is a no-op when no warp is open.
func (b *Builder) EndWarp() {
	if b.curWarp == nil {
		return
	}
	n := len(b.curWarp.Insts)
	if n == 0 || b.curWarp.Insts[n-1].Op != isa.OpEXIT {
		mask := FullMask
		if n > 0 {
			mask = b.curWarp.Insts[n-1].Mask
		}
		b.curWarp.Insts = append(b.curWarp.Insts, Inst{Op: isa.OpEXIT, Dst: isa.RegNone, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: mask})
	}
	b.longest = max(b.longest, len(b.curWarp.Insts))
	b.lineEnds, b.addrEnds = append(b.lineEnds, len(b.lines)), append(b.addrEnds, len(b.addrs))
	b.curWarp = nil
}

// endCTA closes the open warp, hands the open CTA's warps their arenas and
// validates them, on the goroutine that built them.
func (b *Builder) endCTA() {
	b.EndWarp()
	if b.curCTA != nil {
		carveLineArenas(b.curCTA.Warps, b.lines, b.lineEnds)
		carveAddrArenas(b.curCTA.Warps, slices.Clone(b.addrs), b.addrEnds)
		markWarps(b.curCTA.Warps)
		b.lines, b.lineEnds = b.lines[:0], b.lineEnds[:0]
		b.addrs, b.addrEnds = b.addrs[:0], b.addrEnds[:0]
	}
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
	if b.curWarp == nil {
		panic("trace.Builder: instruction appended outside a warp")
	}
	b.curWarp.Insts = append(b.curWarp.Insts, in)
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
		in.addrOff = uint32(len(b.addrs)-b.addrStart) + 1
		b.addrs = appendRecord(b.addrs, pickForm(addrs), addrs)
	}
	b.lines = in.table(addrs, b.lines, b.lineStart)
	b.append(in)
	return int(in.nLines)
}

// Finish closes any open warp and returns the completed kernel.
func (b *Builder) Finish() *Kernel {
	b.endCTA()
	b.curCTA = nil
	return &b.k
}
