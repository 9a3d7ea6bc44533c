package partition

import "crisp/internal/sm"

// wsState is the warped-slicer phase.
type wsState uint8

const (
	wsSampling wsState = iota
	wsSteady
)

type wsConfig struct {
	sampleCycles int64
}

// wsCurves is one sampling window's reading, per task: the mean
// instructions retired at each CTA cap (indices into sampleCaps), which cap
// indices at least one SM sampled (ascending), and the curve's maximum (1
// when the task retired nothing) to normalize by.
type wsCurves struct {
	perf    [][]float64
	sampled [][]int
	maxPerf []float64
}

// envelopeFor sizes a task's intra-SM envelope to hold ctas CTAs of need;
// a task with no kernel yet, or no cap, gets the static 1/tasks share.
func envelopeFor(need sm.Resources, ctas int, full sm.Resources, tasks int) sm.Resources {
	if need.Threads == 0 || ctas <= 0 {
		return sm.Fraction(full, 1, tasks)
	}
	env := sm.Resources{
		Threads: need.Threads * ctas,
		Regs:    need.Regs * ctas,
		Shared:  need.Shared * ctas,
		CTAs:    ctas,
	}
	// Clamp to the SM.
	if env.Threads > full.Threads {
		env.Threads = full.Threads
	}
	if env.Regs > full.Regs {
		env.Regs = full.Regs
	}
	if env.Shared > full.Shared {
		env.Shared = full.Shared
	}
	if env.CTAs > full.CTAs {
		env.CTAs = full.CTAs
	}
	return env
}

// bestPair is the two-task rule, the one the paper's Figs. 12–13 were
// reproduced with: of every pair of sampled caps whose envelopes fit in one
// SM, the one maximizing the sum of normalized per-task performance (ties:
// the smaller caps; 1:1 when nothing fits). (waterFill, the n-way rule, is
// greedy and stops at a different split at two tasks: 5 of 9 WarpedSlicer
// rows of Fig. 12 move.)
func (w *WarpedSlicerN) bestPair(c wsCurves) []int {
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
