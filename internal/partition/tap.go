package partition

import "crisp/internal/gpu"

// Deprecated: NewTAP is NewTAPN at two tasks on a config that can be split
// (nil otherwise); it stays only so the frozen bench/ compiles, and goes
// with the [benchmark] PR.
func NewTAP(g *gpu.GPU, taskOf func(stream int) int) *TAPN {
	t, _ := NewTAPN(g, taskOf, 2)
	return t
}

// pairSplit is TAP's two-task rule for two cache-sensitive tasks, the one
// the paper's Figs. 14–15 were reproduced with: task 0's share of the sets
// is its share of the granted ways in 1/256ths, clamped so neither task
// drops below a quarter of the bank. (sensitiveSplit, the n-way rule,
// weighs ways+1 instead and reads differently at two tasks: 2 of 6 TAP
// rows of Fig. 14 move.)
func (t *TAPN) pairSplit(sets, ways []int, assoc int) {
	lo := max(t.setsPerBank/4, t.minSets)
	sets[0] = t.setsPerBank * (ways[0] * 256 / assoc) / 256
	if sets[0] < lo {
		sets[0] = lo
	}
	if sets[0] > t.setsPerBank-lo {
		sets[0] = t.setsPerBank - lo
	}
	sets[1] = t.setsPerBank - sets[0]
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
