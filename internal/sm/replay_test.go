package sm

import (
	"runtime"
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/mem"
)

// TestStallReplayMatchesScan steps a core through NN's tiled matmul — LDG,
// STS/LDS with offsets, two barriers per K tile whose waiters sit on all
// four schedulers, EXIT — with the replay check on: every replayed slot,
// and every sleep settled from a record, is compared with the scan it
// skipped. Each mode must see replays, barrier releases that cross
// schedulers and arrivals onto stalled schedulers: the writes that have to
// kill a record.
func TestStallReplayMatchesScan(t *testing.T) {
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
			checks := VerifyStallReplays(t, c)
			var releases, arrivalsOnStalled int
			nextCTA, total := 0, 12
			now := int64(0)
			for nextCTA < total || c.Busy() {
				// One arrival per 64 cycles at most: CTAs out of phase with
				// one another, so that a new one lands among stalled warps.
				for nextCTA < total && now >= int64(nextCTA)*64 && c.CanAccept(k, 1) {
					for i := range c.scheds {
						if c.scheds[i].stallUntil > now {
							arrivalsOnStalled++
							break
						}
					}
					c.IssueCTA(now, k, nextCTA, 1, nil)
					nextCTA++
				}
				if t.Failed() {
					t.FailNow() // a stale record can park a scheduler forever
				}
				blocked := c.BarrierBlocked()
				wake := c.Step(now)
				if c.BarrierBlocked() < blocked {
					releases++
				}
				// Sleep as the run loop does, charging the slept steps, but
				// not past the next arrival.
				if nextCTA < total {
					wake = min(wake, int64(nextCTA)*64)
				}
				if wake >= never {
					t.Fatal("core livelocked")
				}
				for now++; now < wake; now++ {
					if c.Busy() {
						c.Skip()
					}
				}
				c.FlushSkipDebt()
			}
			if c.StallReplays() == 0 || *checks < c.StallReplays() || releases == 0 || arrivalsOnStalled == 0 {
				t.Fatalf("%d replays, %d checks, %d barrier releases, %d arrivals on a stalled scheduler: the run no longer exercises the record",
					c.StallReplays(), *checks, releases, arrivalsOnStalled)
			}
			t.Logf("%d replays, %d checks, %d barrier releases, %d arrivals on a stalled scheduler",
				c.StallReplays(), *checks, releases, arrivalsOnStalled)
		})
	}
}

// TestLegacyStepReplaysNothing: the -no-skip oracle keeps no stall record.
func TestLegacyStepReplaysNothing(t *testing.T) {
	k := compute.NN(1 << 20).Kernels[1]
	c, _, _ := testCore(t)
	c.SetLegacyStep(true)
	c.IssueCTA(0, k, 0, 1, nil)
	for now := int64(0); c.Busy(); now++ {
		c.Step(now)
	}
	if c.StallReplays() != 0 {
		t.Errorf("legacy stepping replayed %d stalls", c.StallReplays())
	}
}

// TestRetiredWarpIsUnreachable: the warp that issues EXIT leaves its
// scheduler inside that issue — no slot, no greedy cursor, no stall record
// points at it afterwards — which is why no scan tests for a finished warp.
func TestRetiredWarpIsUnreachable(t *testing.T) {
	for _, sched := range []SchedPolicy{SchedGTO, SchedLRR} {
		c, _, _ := testCore(t)
		c.Sched = sched
		c.IssueCTA(0, chainKernel(3), 0, 0, nil)
		c.IssueCTA(0, chainKernel(9), 0, 0, nil)
		s := &c.scheds[0]
		short := s.warps[0]
		for now := int64(0); len(s.warps) == 2; now++ {
			c.Step(now)
		}
		if short.pc != len(short.insts) {
			t.Fatalf("sched %d: the short warp retired at pc %d of %d", sched, short.pc, len(short.insts))
		}
		if len(s.warps) != 1 || s.warps[0] == short || s.warps[0].slot != 0 || len(s.memo) != 1 {
			t.Errorf("sched %d: after the retire the scheduler holds %d warps, %d memos, survivor in slot %d", sched, len(s.warps), len(s.memo), s.warps[0].slot)
		}
		if s.last == short || s.stallWarp == short && s.stallUntil != 0 {
			t.Errorf("sched %d: the scheduler still points at the retired warp", sched)
		}
		if len(c.freeWarps) != 1 || c.freeWarps[0] != short || len(s.freeBlocks) != 1 || s.freeBlocks[0] != short.blk {
			t.Errorf("sched %d: the retired warp's record and scoreboard block were not handed back", sched)
		}
		// The next arrival takes both over, on a zeroed scoreboard.
		blk := short.blk
		s.sb[blk*regsPerWarp+5] = 1 << 40 // as if the retired warp had a fill in flight
		c.IssueCTA(100, chainKernel(2), 0, 0, nil)
		if w := s.warps[1]; w != short || w.blk != blk || w.pc != 0 || s.regReady(blk, 5) != 0 {
			t.Errorf("sched %d: the arrival did not reuse the record and a clean block", sched)
		}
	}
}

// TestIssueCTAAfterRetireDoesNotAllocate guards the steady state of CTA
// turnover: once a core has been full, a CTA's runtime records, scoreboard
// blocks and scheduler slots all come from what retired CTAs handed back.
func TestIssueCTAAfterRetireDoesNotAllocate(t *testing.T) {
	k := compute.NN(1 << 20).Kernels[1]
	c, _, _ := testCore(t)
	now := int64(0)
	fill := func() {
		for i := 0; c.CanAccept(k, 1); i++ {
			c.IssueCTA(now, k, i%len(k.CTAs), 1, nil)
		}
	}
	drain := func() {
		for c.Busy() {
			now = max(c.Step(now), now+1)
		}
	}
	fill()
	drain()
	blocks := len(c.scheds[0].sb)
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&before)
		fill()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("round %d: refilling a drained core allocates %d times", round, n)
		}
		drain()
	}
	if len(c.scheds[0].sb) != blocks {
		t.Errorf("the scoreboard grew from %d to %d entries across refills", blocks, len(c.scheds[0].sb))
	}
}

// TestLegacyStepMidResidency: a warp that issues from the line table lets
// its cursor's place in the address arena lag, so switching its core onto
// the legacy path, which derives lines from the records, first walks every
// resident warp's cursor to its PC. A run switched half-way must touch
// memory exactly as one that never switched.
func TestLegacyStepMidResidency(t *testing.T) {
	k := compute.NN(1 << 20).Kernels[1] // LDG, STG, and STS/LDS with offsets
	run := func(switchAt int64) (int64, mem.Counters) {
		cfg := config.JetsonOrin()
		ms, err := mem.NewSystem(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCore(0, &cfg, ms, newCounter())
		c.IssueCTA(0, k, 0, 1, nil)
		now := int64(0)
		for ; c.Busy(); now++ {
			if now == switchAt {
				c.SetLegacyStep(true)
			}
			c.Step(now)
		}
		return now, *ms.Counters(k.Stream)
	}
	cycles, counters := run(-1)
	if cycles < 2000 {
		t.Fatalf("the CTA ran %d cycles: too short to switch half-way", cycles)
	}
	if gotCycles, got := run(cycles / 2); gotCycles != cycles || got != counters {
		t.Errorf("switched half-way: %d cycles, counters %+v; never switched: %d cycles, %+v", gotCycles, got, cycles, counters)
	}
}
