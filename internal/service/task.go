package service

import (
	"sync"

	"crisp/internal/obs"
)

// Task lifecycle states. Unlike jobs, tasks have no queued/running split
// visible to clients — a leased task has its one attempt running on some
// worker.
type taskState string

const (
	taskPending taskState = "pending"
	taskLeased  taskState = "leased"
	taskDone    taskState = "done"
	taskFailed  taskState = "failed"
)

// sweepTask is the one unit crispd executes: one resolved simulation,
// supervised by coordinator.runTask. A sweep owns one per grid cell; a
// directly submitted job owns exactly one — a job is a sweep of one.
// Mutable fields are guarded by the coordinator's mutex.
type sweepTask struct {
	id     string // unique across owners: "s000001/3", "j000007"
	owner  owner
	queue  *taskQueue // the pool it runs on; retries requeue here
	index  int        // grid position within the owner (0 for a job)
	spec   JobSpec
	res    *resolved
	digest string
	// dir is the task's checkpoint root; each attempt writes into its own
	// subdirectory (a1, a2, ...) so a retry resumes from a dead worker's
	// checkpoints without ever writing into them. "" = no checkpoints:
	// retries restart at cycle 0.
	dir string

	state    taskState
	worker   int  // pool worker running the newest attempt
	attempts int  // failed attempts so far
	started  int  // attempts started
	resumed  bool // some committed or running attempt resumed from a checkpoint
	cacheHit bool // committed from a cache, not an execution
	result   *StoredResult
	errMsg   string
}

// owner is everything about a task that is not supervision, and so the
// only place a *Job and a *Sweep differ: how progress reaches a timeline,
// whether anyone still wants the result, what is persisted, and what
// "terminal" means. The coordinator calls every method except sample with
// its mutex held.
type owner interface {
	// live reports whether the owner still wants the task run: not
	// canceled, not already terminal.
	live() bool
	// attemptStarted: attempt n is starting.
	attemptStarted(t *sweepTask, n int)
	// attemptResumed: attempt n restored the checkpoint at cycle.
	attemptResumed(t *sweepTask, n int, cycle int64)
	// sample receives the running attempt's interval telemetry, on the
	// simulation goroutine, no locks held.
	sample(obs.Sample)
	// note puts one supervision remark (a scheduled retry) on the timeline.
	note(t *sweepTask, detail string)
	// attemptFailed: a retryable failure was counted against the budget;
	// t.attempts is the new count.
	attemptFailed(t *sweepTask, err error)
	// attemptStopped: an attempt ended after the owner stopped being live,
	// or while the daemon drains. Nothing is retried; err is nil when the
	// attempt had in fact succeeded.
	attemptStopped(t *sweepTask, err error)
	// taskDone: t.result was committed, exactly once.
	taskDone(t *sweepTask)
	// taskFailed: the task failed for good — permanently, or (exhausted)
	// by using up its attempt budget.
	taskFailed(t *sweepTask, err error, exhausted bool)
}

// taskQueue is an unbounded FIFO of runnable tasks feeding one worker
// pool. Admission control bounds what enters; the queue itself never
// blocks a submitter or a retry timer.
type taskQueue struct {
	mu    sync.Mutex
	items []*sweepTask
	wake  chan struct{} // one token: "the queue may be non-empty"
}

func newTaskQueue() *taskQueue { return &taskQueue{wake: make(chan struct{}, 1)} }

func (q *taskQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *taskQueue) push(t *sweepTask) {
	q.mu.Lock()
	q.items = append(q.items, t)
	q.mu.Unlock()
	q.signal()
}

// pop returns the oldest task, or nil. With tasks left behind it passes
// the wake token on, so one push burst wakes every idle worker in turn.
func (q *taskQueue) pop() *sweepTask {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return nil
	}
	t := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	if len(q.items) > 0 {
		q.signal()
	}
	return t
}
