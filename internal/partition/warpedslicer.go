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

// searchLimit is the largest cross product of sampled caps search walks:
// eight caps for each of four tasks. A larger space (five or more tenants
// on a many-SM part: about 6⁸ combinations at eight tenants on 46 SMs) is
// water-filled instead.
const searchLimit = 4096

// search is the exhaustive rule, the one the paper's Figs. 12–13 were
// reproduced with at two tasks: of every combination of sampled caps whose
// envelopes fit in one SM together, the one maximizing the sum of
// normalized per-task performance. Combinations are visited with task 0
// outermost and each task's caps ascending, and only a strictly better
// score replaces the best, so ties go to the smaller caps; when nothing
// fits (or some task was not sampled) every task gets cap 1.
func (w *WarpedSlicerN) search(c wsCurves) []int {
	best, bestScore := make([]int, w.tasks), -1.0
	for t := range best {
		best[t] = 1
	}
	for _, s := range c.sampled {
		if len(s) == 0 {
			return best
		}
	}
	pick := make([]int, w.tasks) // per task, an index into c.sampled[t]
	trial := make([]int, w.tasks)
	for {
		score := 0.0
		for t, k := range pick {
			ci := c.sampled[t][k]
			trial[t] = w.sampleCaps[ci]
			score += c.perf[t][ci] / c.maxPerf[t]
		}
		if score > bestScore && w.fits(trial) {
			bestScore = score
			copy(best, trial)
		}
		t := w.tasks - 1
		for ; t >= 0; t-- {
			if pick[t]++; pick[t] < len(c.sampled[t]) {
				break
			}
			pick[t] = 0
		}
		if t < 0 {
			return best
		}
	}
}

// searchable reports whether the sampled caps' cross product is at most
// searchLimit.
func searchable(c wsCurves) bool {
	n := 1
	for _, s := range c.sampled {
		if n *= len(s); n > searchLimit {
			return false
		}
	}
	return true
}
