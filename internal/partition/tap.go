package partition

import (
	"crisp/internal/gpu"
	"crisp/internal/mem"
)

// TAP applies TLP-aware utility-based cache partitioning to the shared L2
// on top of MPS inter-SM sharing (Lee & Kim, adapted to two GPU tasks as
// the paper does). Each task has a utility monitor sampling its L2 access
// stream; at every repartition epoch the set split is chosen by marginal
// utility, with the TLP-aware correction: a task whose access stream shows
// no cache sensitivity (compute-bound, e.g. HOLO) is clamped to the
// minimum allocation so the cache-sensitive task keeps the capacity
// (paper Figs. 14-15).
type TAP struct {
	MPS
	g      *gpu.GPU
	taskOf func(stream int) int
	mapper *mem.SetMapper
	umons  [2]*mem.UMON

	setsPerBank int
	minSets     int
	epochs      int
}

// NewTAP builds TAP for g: even SM split, shared banks, set-partitioned
// mapper, and observers wired into the memory system.
func NewTAP(g *gpu.GPU, taskOf func(stream int) int) *TAP {
	cfg := g.Config()
	t := &TAP{
		MPS:         MPS{taskOfSM: splitSMs(cfg.NumSMs, cfg.NumSMs/2)},
		g:           g,
		taskOf:      taskOf,
		setsPerBank: g.Mem().SetsPerBank(),
		minSets:     1,
	}
	half := t.setsPerBank / 2
	t.mapper = &mem.SetMapper{
		TaskOf: taskOf,
		Regions: map[int]mem.SetRegion{
			0: {Start: 0, Count: half},
			1: {Start: half, Count: t.setsPerBank - half},
		},
	}
	t.umons[0] = mem.NewUMON(cfg.L2Assoc, 4)
	t.umons[1] = mem.NewUMON(cfg.L2Assoc, 4)
	g.Mem().SetMapper(t.mapper)
	g.Mem().SetObserver(t)
	return t
}

// Name implements gpu.Policy.
func (t *TAP) Name() string { return "TAP" }

// Regions reports the current set split (for the composition study).
func (t *TAP) Regions() map[int]mem.SetRegion { return t.mapper.Regions }

// ObserveL2 implements mem.Observer, feeding the task's utility monitor.
func (t *TAP) ObserveL2(stream int, lineAddr uint64, hit bool) {
	task := t.taskOf(stream)
	if task >= 0 && task < 2 {
		t.umons[task].Observe(lineAddr)
	}
}

// Tick implements gpu.Policy: repartition by marginal utility with the
// TLP-aware insensitivity clamp. Because reassigning sets remaps resident
// lines (an effective flush), the split is decided once after a warmup
// sampling window and then re-evaluated only at long intervals — frequent
// re-partitioning costs more in remap misses than any allocation gain.
func (t *TAP) Tick(now int64) {
	t.epochs++
	if t.epochs > 1 && t.epochs < 32 {
		return
	}
	if t.epochs >= 32 {
		t.epochs = 1
	}
	u0, u1 := t.umons[0], t.umons[1]
	if u0.Accesses+u1.Accesses < 1024 {
		return
	}
	assoc := len(u0.WayHits)

	// TLP-aware classification. "Active" means the task contributes a
	// non-negligible share of L2 accesses; "sensitive" means its shadow
	// tags show real reuse (cache capacity would convert misses to hits).
	total := u0.Accesses + u1.Accesses
	active := func(u *mem.UMON) bool { return u.Accesses*50 >= total }
	sens := func(u *mem.UMON) bool {
		return active(u) && u.Utility(assoc) > u.Accesses/16
	}
	a0, a1 := active(u0), active(u1)
	s0, s1 := sens(u0), sens(u1)

	half := t.setsPerBank / 2
	quarter := t.setsPerBank / 4
	var sets0 int
	switch {
	case !a0 && a1:
		// Task 0 barely touches memory (e.g. HOLO as task 0): hand the
		// cache to task 1.
		sets0 = t.minSets
	case a0 && !a1:
		sets0 = t.setsPerBank - t.minSets
	case s0 && s1:
		// Both reuse: split by access-rate-normalized utility (TAP's
		// hit-rate comparison, not raw hit counts).
		w0, w1 := 0, 0
		for w0+w1 < assoc {
			m0 := float64(u0.MarginalUtility(w0+1)) / float64(max64(u0.Accesses, 1))
			m1 := float64(u1.MarginalUtility(w1+1)) / float64(max64(u1.Accesses, 1))
			if m0 >= m1 {
				w0++
			} else {
				w1++
			}
		}
		sets0 = t.setsPerBank * (w0 * 256 / assoc) / 256
		if sets0 < quarter {
			sets0 = quarter
		}
		if sets0 > t.setsPerBank-quarter {
			sets0 = t.setsPerBank - quarter
		}
	default:
		// At most one task shows capacity sensitivity and both are
		// active: these pairs are bandwidth-, not capacity-bound, so
		// TAP matches shared-LRU behavior with an even split rather
		// than squeezing the streaming task into conflict misses —
		// the paper's finding that TAP shows no speedup over MPS
		// because "the baseline cache replacement policy, LRU, is
		// efficient enough".
		sets0 = half
	}
	_ = s0
	_ = s1
	if sets0 < t.minSets {
		sets0 = t.minSets
	}
	if sets0 > t.setsPerBank-t.minSets {
		sets0 = t.setsPerBank - t.minSets
	}

	// Hysteresis: ignore small deltas — a remap is never worth a few
	// sets.
	cur := t.mapper.Regions[0].Count
	if d := sets0 - cur; d > -8 && d < 8 {
		u0.Reset()
		u1.Reset()
		return
	}
	t.mapper.Regions = map[int]mem.SetRegion{
		0: {Start: 0, Count: sets0},
		1: {Start: sets0, Count: t.setsPerBank - sets0},
	}
	u0.Reset()
	u1.Reset()
}

var _ mem.Observer = (*TAP)(nil)
var _ gpu.Policy = (*TAP)(nil)
var _ gpu.Policy = (*MPS)(nil)
var _ gpu.Policy = (*MiG)(nil)
var _ gpu.Policy = (*FG)(nil)
var _ gpu.Policy = (*WarpedSlicer)(nil)

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
