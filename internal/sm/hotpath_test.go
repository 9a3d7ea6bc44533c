package sm

import (
	"testing"
	"unsafe"

	"crisp/internal/compute"
	"crisp/internal/isa"
	"crisp/internal/obs"
)

// earliest is what the scan evaluates for one slot.
func (s *scheduler) earliest(slot int) (int64, obs.StallCause) {
	return s.at(slot).bind(&s.unitFree)
}

// refEarliest is the earliest-issue answer as it was before the memo was split: one pass
// from scratch over the barrier release, the four scoreboard entries and
// the pipeline, in that order, each binding only if strictly later.
func refEarliest(s *scheduler, w *warpRT) (int64, obs.StallCause) {
	in := &w.insts[w.pc]
	e, cause := w.blockedUntil, obs.StallBarrier
	if in.Dst != isa.RegNone {
		if r := s.regReady(w.blk, in.Dst); r > e {
			e, cause = r, s.regCause(w.blk, in.Dst)
		}
	}
	for _, src := range [3]isa.Reg{in.SrcA, in.SrcB, in.SrcC} {
		if src == isa.RegNone {
			continue
		}
		if r := s.regReady(w.blk, src); r > e {
			e, cause = r, s.regCause(w.blk, src)
		}
	}
	unit := isa.UnitOf(in.Op)
	if unit != isa.UnitCTRL && unit != isa.UnitNone {
		if f := s.unitFree[unit]; f > e {
			e, cause = f, obs.StallPipeBusy
		}
	}
	return e, cause
}

// TestEarliestMemoMatchesRecompute steps a core through NN's tiled matmul
// (global loads, STS/LDS with offsets, two barriers per K tile whose
// waiters sit on all four schedulers, EXIT) with the memo on. Within one
// scheduler step every earliest call precedes the step's only state
// change, its issue; so comparing every live warp of a scheduler with a
// from-scratch recompute right before that scheduler steps covers every
// value any call in the step can return — across retires (drop),
// barrier releases by other schedulers earlier in the same cycle, new
// CTAs and sleeps.
func TestEarliestMemoMatchesRecompute(t *testing.T) {
	k := compute.NN(1 << 20).Kernels[1]
	for _, mode := range []struct {
		name  string
		sched SchedPolicy
	}{
		{"direct-gto", SchedGTO},
		{"direct-lrr", SchedLRR},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c, _, _ := testCore(t)
			c.Sched = mode.sched
			var checks, reused, releases, retires int
			nextCTA, total := 0, 12
			now := int64(0)
			for nextCTA < total || c.Busy() {
				for nextCTA < total && c.CanAccept(k, 1) {
					c.IssueCTA(now, k, nextCTA, 1, nil)
					nextCTA++
				}
				wake := never
				for si := range c.scheds {
					s := &c.scheds[si]
					for _, w := range s.warps {
						if s.memo[w.slot].ok {
							reused++
						}
						e, cause := s.earliest(w.slot)
						if re, rc := refEarliest(s, w); e != re || cause != rc {
							t.Fatalf("cycle %d sched %d slot %d pc %d (%v): memo says (%d, %v), recompute (%d, %v)",
								now, si, w.slot, w.pc, w.insts[w.pc].Op, e, cause, re, rc)
						}
						checks++
					}
					warps, blocked := len(s.warps), c.BarrierBlocked()
					if n := s.step(now); n < wake {
						wake = n
					}
					if len(s.warps) < warps {
						retires++
					}
					if c.BarrierBlocked() < blocked {
						releases++
					}
				}
				// Sleep as the run loop does, so memos also have to survive
				// jumps over many cycles.
				now = max(wake, now+1)
				if now >= never {
					t.Fatal("core livelocked")
				}
			}
			if reused == 0 || releases == 0 || retires < total*k.WarpsPerCTA() {
				t.Fatalf("%d checks, %d on a live memo, %d barrier releases, %d retires: the run no longer exercises the memo",
					checks, reused, releases, retires)
			}
			t.Logf("%d checks, %d on a live memo, %d barrier releases, %d retires", checks, reused, releases, retires)
		})
	}
}

// TestEarliestMemoCombinesPipelineLast pins the split's one ordering rule:
// the pipeline's next free cycle — the only input another warp's issue
// moves — is read at query time and binds only when strictly later than
// the memoized register constraint, as a single from-scratch pass decides.
func TestEarliestMemoCombinesPipelineLast(t *testing.T) {
	c, _, _ := testCore(t)
	c.IssueCTA(0, chainKernel(4), 0, 0, nil)
	s := &c.scheds[0]
	w := s.warps[0]
	c.Step(0) // MOV issues; the first FADD now waits on its result
	in := &w.insts[w.pc]
	unit := isa.UnitOf(in.Op)
	regE := s.regReady(w.blk, in.SrcA)
	for _, tc := range []struct {
		unitFree int64
		wantE    int64
		want     obs.StallCause
	}{
		{0, regE, obs.StallScoreboard},
		{regE, regE, obs.StallScoreboard}, // a tie stays with the register
		{regE + 3, regE + 3, obs.StallPipeBusy},
		{regE - 1, regE, obs.StallScoreboard}, // and the memo was not overwritten
	} {
		s.unitFree[unit] = tc.unitFree // what another warp's issue does
		e, cause := s.earliest(w.slot)
		if re, rc := refEarliest(s, w); e != re || cause != rc || e != tc.wantE || cause != tc.want {
			t.Errorf("unitFree %d: memo says (%d, %v), recompute (%d, %v), want (%d, %v)",
				tc.unitFree, e, cause, re, rc, tc.wantE, tc.want)
		}
		if !s.memo[w.slot].ok {
			t.Errorf("unitFree %d: the query left no memo behind", tc.unitFree)
		}
	}
}

// TestStepDoesNotAllocate guards Core.Step at steady state: a core full
// of resident matmul CTAs (LDG, STS/LDS with offsets, barriers) that have
// all been through a barrier once, under both scheduling disciplines.
func TestStepDoesNotAllocate(t *testing.T) {
	k := compute.NN(1 << 20).Kernels[1]
	for _, sched := range []SchedPolicy{SchedGTO, SchedLRR} {
		c, _, _ := testCore(t)
		c.Sched = sched
		for i := 0; c.CanAccept(k, 1); i++ {
			c.IssueCTA(0, k, i, 1, nil)
		}
		now := int64(0)
		step := func() {
			now = max(c.Step(now), now+1)
		}
		for i := 0; i < 1500; i++ { // warm: barrier lists, fill tables
			step()
		}
		resident := c.TotalResidentWarps()
		if n := testing.AllocsPerRun(1000, step); n != 0 {
			t.Errorf("sched %d: Step allocates %v times per call", sched, n)
		}
		if c.TotalResidentWarps() != resident {
			t.Errorf("sched %d: warps retired during the measurement (%d → %d); not a steady state",
				sched, resident, c.TotalResidentWarps())
		}
	}
}

func TestWarpRecordIsTwoCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(warpRT{}); n != 128 {
		t.Errorf("warpRT is %d bytes; at 128 the allocator aligns it to its two cache lines, hot fields first", n)
	}
	if off := unsafe.Offsetof(warpRT{}.tw); off != 64 {
		t.Errorf("warpRT's second line starts at offset %d", off)
	}
}
