package trace

import (
	"fmt"

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
	// lines collects the open CTA's line table, one warp after another
	// (warp i ends at ends[i], the open warp starts at warpStart); closing
	// the CTA copies it into one exactly-sized array the warps' arenas are
	// cut from, so the table costs one allocation per CTA and no slack.
	lines     []uint64
	ends      []int
	warpStart int
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
	b.k.CTAs = append(b.k.CTAs, CTA{ID: len(b.k.CTAs), Warps: make([]Warp, 0, max(0, b.k.WarpsPerCTA()))})
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
	b.warpStart = len(b.lines)
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
	b.ends = append(b.ends, len(b.lines))
	b.curWarp = nil
}

// endCTA closes the open warp and hands the open CTA's warps their line
// arenas.
func (b *Builder) endCTA() {
	b.EndWarp()
	if b.curCTA != nil {
		carveLineArenas(b.curCTA.Warps, b.lines, b.ends)
		b.lines, b.ends = b.lines[:0], b.ends[:0]
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

// Mem appends a memory instruction with one address per active lane. The
// addresses are coalesced here, once, into the warp's line table.
func (b *Builder) Mem(op isa.Opcode, dst isa.Reg, mask uint32, addrs []uint64, class MemClass, srcs ...isa.Reg) {
	if !isa.IsMemory(op) {
		panic(fmt.Sprintf("trace.Builder: Mem called with non-memory opcode %v", op))
	}
	in := Inst{Op: op, Dst: dst, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: mask, Addrs: addrs, Class: class}
	setSrcs(&in, srcs)
	b.appendMem(in)
}

// Shared appends a shared-memory access carrying no per-lane offsets:
// the LDST unit treats it as conflict-free (one bank transaction).
func (b *Builder) Shared(op isa.Opcode, dst isa.Reg, mask uint32, srcs ...isa.Reg) {
	b.SharedAddr(op, dst, mask, nil, srcs...)
}

// SharedAddr appends a shared-memory access with per-active-lane byte
// offsets within the CTA's shared segment; the LDST unit derives bank
// conflicts from them. Addresses never leave the SM, so they are offsets,
// not virtual addresses.
func (b *Builder) SharedAddr(op isa.Opcode, dst isa.Reg, mask uint32, offsets []uint64, srcs ...isa.Reg) {
	if op != isa.OpLDS && op != isa.OpSTS {
		panic(fmt.Sprintf("trace.Builder: Shared called with %v", op))
	}
	in := Inst{Op: op, Dst: dst, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: mask, Addrs: offsets}
	setSrcs(&in, srcs)
	b.appendMem(in)
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

// appendMem appends a memory instruction after deriving its line-table
// entry, while its addresses are still warm from being computed.
func (b *Builder) appendMem(in Inst) {
	b.lines = in.table(b.lines, b.warpStart)
	b.append(in)
}

// Finish closes any open warp and returns the completed kernel.
func (b *Builder) Finish() *Kernel {
	b.endCTA()
	b.curCTA = nil
	return &b.k
}
