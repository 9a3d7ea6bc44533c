package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"crisp/internal/config"
	"crisp/internal/sm"
)

// TAP and Warped-Slicer each had a second decision rule for exactly two
// tasks, the one the paper's Figs. 12–15 were reproduced with. One rule per
// policy replaced both; the two-task rules stay here as the reference, and
// at two tasks the unified rule must return the identical split or caps.

// pairSplitRef is TAP's two-task rule for two cache-sensitive tasks: task
// 0's share of the sets is its share of the granted ways in 1/256ths,
// clamped so neither task drops below a quarter of the bank.
func pairSplitRef(setsPerBank, minSets int, ways []int, assoc int) []int {
	lo := max(setsPerBank/4, minSets)
	s0 := setsPerBank * (ways[0] * 256 / assoc) / 256
	if s0 < lo {
		s0 = lo
	}
	if s0 > setsPerBank-lo {
		s0 = setsPerBank - lo
	}
	return []int{s0, setsPerBank - s0}
}

// bestPairRef is Warped-Slicer's two-task rule: of every pair of sampled
// caps whose envelopes fit in one SM, the one maximizing the sum of
// normalized per-task performance (ties: the smaller caps; 1:1 when nothing
// fits).
func bestPairRef(w *WarpedSlicerN, c wsCurves) []int {
	best, bestScore := []int{1, 1}, -1.0
	trial := make([]int, 2)
	for _, ia := range c.sampled[0] {
		for _, ib := range c.sampled[1] {
			trial[0], trial[1] = w.sampleCaps[ia], w.sampleCaps[ib]
			if !w.fits(trial) {
				continue
			}
			if score := c.perf[0][ia]/c.maxPerf[0] + c.perf[1][ib]/c.maxPerf[1]; score > bestScore {
				bestScore = score
				copy(best, trial)
			}
		}
	}
	return best
}

// TestTAPSplitMatchesPairReference draws two-task way grants (they sum to
// the associativity, as grantWays' do) over bank and floor sizes that pass
// Tick's precondition, and pins the clamp at both ends and in between.
func TestTAPSplitMatchesPairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	active := []bool{true, true}
	clamped := map[string]int{}
	for i := 0; i < 5000; i++ {
		assoc := []int{4, 8, 12, 16, 32}[rng.Intn(5)]
		minSets := 1 + rng.Intn(40)
		spb := 2*minSets + rng.Intn(1024)
		w0 := rng.Intn(assoc + 1)
		ways := []int{w0, assoc - w0}
		want := pairSplitRef(spb, minSets, ways, assoc)
		tap := &TAPN{setsPerBank: spb, minSets: minSets}
		got := make([]int, 2)
		tap.sensitiveSplit(got, ways, active, spb, assoc, 2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d sets, min %d, ways %v of %d: split %v, reference %v", spb, minSets, ways, assoc, got, want)
		}
		switch lo := max(spb/4, minSets); {
		case want[0] == lo:
			clamped["task 0 raised"]++
		case want[1] == lo:
			clamped["task 1 raised"]++
		default:
			clamped["unclamped"]++
		}
	}
	for _, k := range []string{"task 0 raised", "task 1 raised", "unclamped"} {
		if clamped[k] == 0 {
			t.Errorf("no draw was %s: %v", k, clamped)
		}
	}
}

// TestWarpedSlicerSearchMatchesPairReference draws two-task curves — small
// integer readings so that scores tie, random subsets of the cap points
// sampled (one task in ten sampled at none) — and kernel shapes from tiny
// to larger than the SM, so that some draws fit every pair and some none.
func TestWarpedSlicerSearchMatchesPairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ws := must(NewWarpedSlicerN(newGPU(t, config.JetsonOrin()), 2))(t)
	full := sm.Full(ws.g.Config())
	nothingFits := 0
	for i := 0; i < 5000; i++ {
		c := wsCurves{perf: make([][]float64, 2), sampled: make([][]int, 2), maxPerf: make([]float64, 2)}
		for task := 0; task < 2; task++ {
			threads := 32 * (1 + rng.Intn(48))
			ws.kernelNeed[task] = sm.Resources{
				Threads: threads,
				Regs:    threads * (16 + rng.Intn(240)),
				Shared:  rng.Intn(full.Shared/2 + 1),
				CTAs:    1,
			}
			c.perf[task] = make([]float64, len(ws.sampleCaps))
			unsampled := rng.Intn(10) == 0
			for ci := range ws.sampleCaps {
				if unsampled || rng.Intn(3) == 0 {
					continue
				}
				c.perf[task][ci] = float64(rng.Intn(5) * 100)
				c.sampled[task] = append(c.sampled[task], ci)
				c.maxPerf[task] = max(c.maxPerf[task], c.perf[task][ci])
			}
			if c.maxPerf[task] == 0 {
				c.maxPerf[task] = 1
			}
		}
		want := bestPairRef(ws, c)
		if !searchable(c) {
			t.Fatalf("two tasks' %d×%d sampled caps exceed the search limit", len(c.sampled[0]), len(c.sampled[1]))
		}
		if got := ws.search(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("needs %+v, curves %+v: caps %v, reference %v", ws.kernelNeed, c, got, want)
		}
		if len(c.sampled[0]) > 0 && len(c.sampled[1]) > 0 && !ws.fits([]int{ws.sampleCaps[c.sampled[0][0]], ws.sampleCaps[c.sampled[1][0]]}) {
			nothingFits++
		}
	}
	if nothingFits == 0 {
		t.Error("no draw had a sampled space with nothing that fits")
	}
}
