package sm

import (
	"fmt"

	"crisp/internal/isa"
	"crisp/internal/robust"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

// This file implements checkpoint capture/restore for one SM. Warp and
// CTA runtime structures carry pointers and closures that cannot be
// serialized directly, so the snapshot uses positional identities instead:
// warps are numbered in (scheduler, slot) order, CTAs in first-reference
// order, and each warp names its trace by (stream, kernel index, CTA
// index, warp index). The RestoreEnv resolves those names back to live
// kernels and rebuilds the completion closures, so a restored SM is
// structurally identical to the one that was captured.

func smStateErr(format string, args ...any) error {
	return &robust.SimError{Kind: robust.KindSnapshot, Msg: fmt.Sprintf(format, args...)}
}

// CaptureState snapshots the SM at cycle now. kernelIdx maps a resident
// CTA's kernel back to its index in the owning stream's kernel list (the
// GPU knows the lists; the SM only holds pointers).
//
// Scoreboard state is captured sparsely: a register whose pending-write
// cycle is ≤ now can never bind a future issue (earliestFor only stalls on
// constraints strictly after the current cycle), so only future entries
// are recorded.
func (c *Core) CaptureState(now int64, kernelIdx func(stream int, k *trace.Kernel) (int, error)) (snapshot.CoreState, error) {
	// Settle any sleep debt so the captured slot counters match what a
	// cycle-by-cycle run would have accumulated by this cycle. (The GPU
	// settles every core before capturing stream stats too; this makes a
	// directly-captured core self-consistent.)
	c.FlushSkipDebt()
	cs := snapshot.CoreState{
		ID:         c.ID,
		ArrivalSeq: c.arrivalSeq,
		SchedSlots: c.schedSlots,
		EmptySlots: c.emptySlots,
		WakeAt:     c.wakeAt,
	}

	// Pass 1: assign positional refs. Warps get consecutive refs in
	// (scheduler, slot) order; CTAs in first-reference order — both walks
	// are over slices, so the numbering is deterministic.
	warpRef := make(map[*warpRT]int)
	ctaRef := make(map[*ctaRT]int)
	var ctas []*ctaRT
	for si := range c.scheds {
		for _, w := range c.scheds[si].warps {
			warpRef[w] = len(warpRef)
			if _, ok := ctaRef[w.cta]; !ok {
				ctaRef[w.cta] = len(ctas)
				ctas = append(ctas, w.cta)
			}
		}
	}

	// Pass 2: serialize CTAs, then schedulers with their warps.
	cs.CTAs = make([]snapshot.CTAState, len(ctas))
	for i, cta := range ctas {
		ki, err := kernelIdx(cta.stream, cta.kernel)
		if err != nil {
			return snapshot.CoreState{}, err
		}
		st := snapshot.CTAState{
			Ref:        i,
			StreamID:   cta.stream,
			KernelIdx:  ki,
			CTAIdx:     cta.ctaIdx,
			Task:       cta.task,
			WarpsLeft:  cta.warpsLeft,
			BarArrived: cta.barArrived,
		}
		for _, bw := range cta.barWaiting {
			r, ok := warpRef[bw]
			if !ok {
				return snapshot.CoreState{}, smStateErr("SM %d: barrier-waiting warp not resident", c.ID)
			}
			st.BarWaiting = append(st.BarWaiting, r)
		}
		cs.CTAs[i] = st
	}

	cs.Scheds = make([]snapshot.SchedState, len(c.scheds))
	for si := range c.scheds {
		s := &c.scheds[si]
		ss := snapshot.SchedState{
			LastWarp: -1,
			RR:       s.rr,
			UnitFree: append([]int64(nil), s.unitFree[:]...),
		}
		if s.last != nil {
			if r, ok := warpRef[s.last]; ok {
				ss.LastWarp = r
			}
		}
		ss.Warps = make([]snapshot.WarpState, len(s.warps))
		for wi, w := range s.warps {
			ws := snapshot.WarpState{
				Ref:          warpRef[w],
				CTA:          ctaRef[w.cta],
				WarpIdx:      int(w.warpIdx),
				PC:           w.pc,
				BlockedUntil: w.blockedUntil,
				Arrival:      w.arrival,
			}
			sb := s.sb[w.blk*regsPerWarp : (w.blk+1)*regsPerWarp]
			for r := range sb {
				if sb[r] > now {
					ws.PendingRegs = append(ws.PendingRegs, snapshot.RegState{
						Reg:     r,
						Ready:   sb[r],
						FromMem: s.regFromMem(w.blk, isa.Reg(r)),
					})
				}
			}
			ss.Warps[wi] = ws
		}
		cs.Scheds[si] = ss
	}
	return cs, nil
}

// RestoreEnv supplies what an SM cannot rebuild alone: kernel resolution
// and completion closures.
type RestoreEnv struct {
	// Kernel resolves (stream, kernel index) to the live kernel.
	Kernel func(stream, kernelIdx int) (*trace.Kernel, error)
	// OnComplete builds the CTA-completion closure for a restored CTA —
	// the same bookkeeping IssueCTA's caller installed originally.
	OnComplete func(stream, kernelIdx, ctaIdx, smID int) func(now int64)
}

// RestoreState rebuilds the SM from a capture. The core must be freshly
// built (no resident work); resource usage and per-task warp counts are
// recomputed from the restored CTAs rather than trusted from the file.
func (c *Core) RestoreState(cs snapshot.CoreState, env RestoreEnv) error {
	if cs.ID != c.ID {
		return smStateErr("SM id mismatch: snapshot %d, core %d", cs.ID, c.ID)
	}
	if len(cs.Scheds) != len(c.scheds) {
		return smStateErr("SM %d: snapshot has %d schedulers, core has %d", c.ID, len(cs.Scheds), len(c.scheds))
	}
	c.arrivalSeq = cs.ArrivalSeq
	c.schedSlots = cs.SchedSlots
	c.emptySlots = cs.EmptySlots
	c.wakeAt = cs.WakeAt
	c.pendingSkipped = 0
	c.tasks.Reset()
	c.usageTotal = Resources{}
	c.resident = 0

	// Rebuild CTAs.
	ctas := make([]*ctaRT, len(cs.CTAs))
	for i, st := range cs.CTAs {
		if st.Ref != i {
			return smStateErr("SM %d: CTA refs not dense", c.ID)
		}
		k, err := env.Kernel(st.StreamID, st.KernelIdx)
		if err != nil {
			return err
		}
		if st.CTAIdx < 0 || st.CTAIdx >= len(k.CTAs) {
			return smStateErr("SM %d: CTA index %d outside kernel %q (%d CTAs)", c.ID, st.CTAIdx, k.Name, len(k.CTAs))
		}
		if st.WarpsLeft <= 0 || st.WarpsLeft > len(k.CTAs[st.CTAIdx].Warps) {
			return smStateErr("SM %d: CTA %d of %q has impossible warpsLeft %d", c.ID, st.CTAIdx, k.Name, st.WarpsLeft)
		}
		cta := &ctaRT{
			kernel:     k,
			ctaIdx:     st.CTAIdx,
			task:       st.Task,
			stream:     st.StreamID,
			res:        Need(k),
			warpsLeft:  st.WarpsLeft,
			barArrived: st.BarArrived,
		}
		if env.OnComplete != nil {
			cta.onComplete = env.OnComplete(st.StreamID, st.KernelIdx, st.CTAIdx, c.ID)
		}
		ctas[i] = cta
		c.tasks.Get(cta.task).usage.add(cta.res)
		c.usageTotal.add(cta.res)
	}

	// Rebuild warps scheduler by scheduler, collecting refs so barrier
	// lists and GTO cursors can be re-linked afterwards.
	warpByRef := make(map[int]*warpRT)
	for si := range c.scheds {
		s := &c.scheds[si]
		ss := cs.Scheds[si]
		if len(ss.UnitFree) != len(s.unitFree) {
			return smStateErr("SM %d: snapshot has %d pipeline units, core has %d", c.ID, len(ss.UnitFree), len(s.unitFree))
		}
		copy(s.unitFree[:], ss.UnitFree)
		s.rr = ss.RR
		s.last = nil
		s.warps = s.warps[:0]
		s.sb = s.sb[:0]
		s.memBits = s.memBits[:0]
		s.memo = s.memo[:0]
		s.freeBlocks = s.freeBlocks[:0]
		s.stallUntil = 0
		for _, ws := range ss.Warps {
			if ws.CTA < 0 || ws.CTA >= len(ctas) {
				return smStateErr("SM %d: warp references unknown CTA %d", c.ID, ws.CTA)
			}
			cta := ctas[ws.CTA]
			warps := cta.kernel.CTAs[cta.ctaIdx].Warps
			if ws.WarpIdx < 0 || ws.WarpIdx >= len(warps) {
				return smStateErr("SM %d: warp index %d outside CTA of %d warps", c.ID, ws.WarpIdx, len(warps))
			}
			tw := &warps[ws.WarpIdx]
			if ws.PC < 0 || ws.PC >= len(tw.Insts) {
				return smStateErr("SM %d: warp pc %d outside trace of %d insts", c.ID, ws.PC, len(tw.Insts))
			}
			w := &warpRT{
				insts:        tw.Insts,
				tabled:       tw.HasLineTable(c.cfg.LineSize),
				warpIdx:      int32(ws.WarpIdx),
				pc:           ws.PC,
				blockedUntil: ws.BlockedUntil,
				tw:           tw,
				cur:          tw.CursorAt(ws.PC), // the one walk a restored warp makes
				stream:       cta.stream,
				task:         cta.task,
				cta:          cta,
				arrival:      ws.Arrival,
			}
			s.admit(w)
			for _, rs := range ws.PendingRegs {
				if rs.Reg < 0 || rs.Reg >= regsPerWarp {
					return smStateErr("SM %d: pending register %d out of range", c.ID, rs.Reg)
				}
				s.setReg(w, isa.Reg(rs.Reg), rs.Ready, rs.FromMem)
			}
			if _, dup := warpByRef[ws.Ref]; dup {
				return smStateErr("SM %d: duplicate warp ref %d", c.ID, ws.Ref)
			}
			warpByRef[ws.Ref] = w
			c.tasks.Get(cta.task).warps++
			c.resident++
		}
	}

	// Re-link barrier waiters and GTO last-issued cursors.
	for i, st := range cs.CTAs {
		for _, r := range st.BarWaiting {
			w, ok := warpByRef[r]
			if !ok {
				return smStateErr("SM %d: barrier list references unknown warp %d", c.ID, r)
			}
			ctas[i].barWaiting = append(ctas[i].barWaiting, w)
		}
	}
	for si := range c.scheds {
		if r := cs.Scheds[si].LastWarp; r >= 0 {
			w, ok := warpByRef[r]
			if !ok {
				return smStateErr("SM %d: scheduler %d GTO cursor references unknown warp %d", c.ID, si, r)
			}
			c.scheds[si].last = w
		}
	}
	return nil
}
