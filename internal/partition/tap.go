package partition

import "crisp/internal/gpu"

// Deprecated: NewTAP is NewTAPN at two tasks on a config that can be split
// (nil otherwise); it stays only so the frozen bench/ compiles, and goes
// with the [benchmark] PR.
func NewTAP(g *gpu.GPU, taskOf func(stream int) int) *TAPN {
	t, _ := NewTAPN(g, taskOf, 2)
	return t
}
