package partition

import (
	"fmt"

	"crisp/internal/gpu"
	"crisp/internal/sm"
	"crisp/internal/trace"
)

// The paper's limitation section notes the framework "can be easily
// extended to support more than 2 workloads"; the two static primitives
// here are that extension and, at two tasks, the paper's own MPS and EVEN:
// inter-SM grouping (SMGroups) and intra-SM splitting (FGN).

// SMGroups is MPS: contiguous, near-equal SM groups for n tasks, shared L2
// — at two tasks the paper's baseline in both concurrency studies ("MPS
// even").
type SMGroups struct {
	numSMs int
	tasks  int
}

// NewSMGroups builds an n-way inter-SM partition.
func NewSMGroups(numSMs, tasks int) (*SMGroups, error) {
	if tasks < 1 || tasks > numSMs {
		return nil, fmt.Errorf("partition: cannot split %d SMs into %d groups", numSMs, tasks)
	}
	return &SMGroups{numSMs: numSMs, tasks: tasks}, nil
}

// Name implements gpu.Policy.
func (p *SMGroups) Name() string { return policyName("MPS", p.tasks) }

// AllowSM implements gpu.Policy.
func (p *SMGroups) AllowSM(smID, task int) bool {
	if task < 0 || task >= p.tasks {
		return false
	}
	return smID*p.tasks/p.numSMs == task
}

// Limit implements gpu.Policy.
func (p *SMGroups) Limit(smID, task int) (sm.Resources, bool) { return sm.Resources{}, false }

// OnLaunch implements gpu.Policy.
func (p *SMGroups) OnLaunch(now int64, k *trace.Kernel, task int) {}

// Tick implements gpu.Policy.
func (p *SMGroups) Tick(now int64) {}

// FGN is static fine-grained intra-SM partitioning: every task runs on
// every SM within a 1/n resource envelope — at two tasks the paper's "EVEN"
// configuration.
type FGN struct {
	tasks int
	limit sm.Resources
}

// NewFGN builds an n-way intra-SM even split for g.
func NewFGN(g *gpu.GPU, tasks int) (*FGN, error) {
	if tasks < 1 {
		return nil, fmt.Errorf("partition: FGN needs at least one task")
	}
	return &FGN{tasks: tasks, limit: sm.Fraction(sm.Full(g.Config()), 1, tasks)}, nil
}

// Name implements gpu.Policy.
func (p *FGN) Name() string { return policyName("EVEN", p.tasks) }

// AllowSM implements gpu.Policy.
func (p *FGN) AllowSM(smID, task int) bool { return task >= 0 && task < p.tasks }

// Limit implements gpu.Policy.
func (p *FGN) Limit(smID, task int) (sm.Resources, bool) {
	if task < 0 || task >= p.tasks {
		return sm.Resources{}, false
	}
	return p.limit, true
}

// OnLaunch implements gpu.Policy.
func (p *FGN) OnLaunch(now int64, k *trace.Kernel, task int) {}

// Tick implements gpu.Policy.
func (p *FGN) Tick(now int64) {}

var _ gpu.Policy = (*SMGroups)(nil)
var _ gpu.Policy = (*FGN)(nil)
