// Package partition implements the GPU sharing mechanisms of paper Fig. 4
// plus the two prior-work policies evaluated in the concurrency case
// studies — one type and one constructor per policy, each taking the task
// count:
//
//   - SMGroups (MPS): coarse inter-SM partitioning; L2 and memory stay
//     shared.
//   - MiGN: inter-SM partitioning plus L2 bank and memory-channel
//     partitioning — each task sees only its subset of banks.
//   - FGN (EVEN): fine-grained intra-SM partitioning (the async-compute
//     analog): every SM runs every task under per-task resource envelopes.
//   - PriorityEvenN: FGN with lower task ids claiming freed resources
//     first.
//   - WarpedSlicerN: dynamic intra-SM partitioning — parallel SMs sample
//     the IPC-vs-CTA-count curve of each kernel, then the per-SM CTA split
//     is chosen from the curves (Xu et al., ISCA'16).
//   - TAPN: TLP-aware utility-based L2 set partitioning on top of MPS
//     (Lee & Kim, HPCA'12), with utility monitors per task.
//
// Every policy is the same code at every task count, with one decision
// rule each. WarpedSlicerN walks every combination of sampled caps while
// that space is small (every mix up to four tasks) and water-fills beyond;
// the choice rests on the search's size, not on the task count. TAPN
// splits sets by each task's share of the granted ways with a floor of
// half an even share, which at two tasks is the quarter-bank clamp the
// paper's Figs. 14–15 were reproduced with.
//
// Every decision procedure iterates tasks in ascending id with explicit
// tie-breaks (lowest task wins), so the policies are deterministic under
// any host parallelism. SMs and banks are grouped by unit·tasks/total (14
// SMs over four tasks: 4|3|4|3); at two tasks an odd SM, bank or set count
// leaves the odd unit with task 0.
//
// Tasks are small integers; by convention the concurrent platform uses
// task 0 for graphics and task 1 for compute.
package partition

import "fmt"

// TaskGraphics and TaskCompute are the conventional task ids.
const (
	TaskGraphics = 0
	TaskCompute  = 1
)

// policyName is every policy's Name: the bare name up to two tasks, …xN
// beyond. The name is Arch.PolicyName in a snapshot — checked on restore
// and counted in its bytes — so the bare two-task form is what keeps
// checkpoints written by the pairwise policies resumable.
func policyName(base string, tasks int) string {
	if tasks > 2 {
		return fmt.Sprintf("%sx%d", base, tasks)
	}
	return base
}
