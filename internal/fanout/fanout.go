// Package fanout runs independent tasks on the host's CPUs without letting
// their order show: results come back in the order the tasks were handed
// in, on the goroutine that handed them in. The front ends use it wherever
// work is a pure function of inputs fixed beforehand — a batch's fragment
// shading, a scene's textures, a workload's kernels — so a trace is the
// same bits at any GOMAXPROCS ("Parallelizing a modern GPU simulator",
// Huerta 2025: parallelise only where results stay identical to the
// serial run).
package fanout

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Ordered runs tasks on up to GOMAXPROCS goroutines and passes each result
// to commit in submission order, on the goroutine that owns the Ordered
// (the one calling Reserve, Go, Wait and Close). At most GOMAXPROCS tasks
// are uncommitted at any time, so whatever tasks and results hold is
// bounded too. With GOMAXPROCS = 1 Go is Do: the task runs on the caller
// and is committed before Go returns.
//
// The owner must arrange for Close to run (defer it) before it returns, so
// that no task outlives it whichever way it leaves.
type Ordered[T any] struct {
	commit  func(T)
	limit   int
	pending []*slot[T] // uncommitted tasks, oldest first
}

type slot[T any] struct {
	done   chan struct{} // closed when the task has returned or panicked
	val    T
	failed *Panic
}

// Panic is what the owner of an Ordered panics with when a task panicked on
// a worker goroutine: the task's panic value and that goroutine's stack,
// which the owner's own stack no longer shows.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// Unwrap exposes an error the task panicked with to errors.Is and As.
func (p *Panic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// New returns an Ordered delivering results to commit.
func New[T any](commit func(T)) *Ordered[T] {
	return &Ordered[T]{commit: commit, limit: runtime.GOMAXPROCS(0)}
}

// Reserve blocks until a task can start at once, committing finished
// results meanwhile. Go does the same; call Reserve first when the task's
// input is itself worth bounding (a batch's fragment list), and build the
// input after it returns.
func (o *Ordered[T]) Reserve() {
	for len(o.pending) >= o.limit {
		o.commitOldest()
	}
}

// Go starts task. Its result is committed by a later Reserve, Go, Do or
// Wait.
func (o *Ordered[T]) Go(task func() T) {
	if o.limit == 1 {
		o.Do(task)
		return
	}
	o.Reserve()
	s := &slot[T]{done: make(chan struct{})}
	o.pending = append(o.pending, s)
	go func() {
		defer close(s.done)
		defer func() {
			if r := recover(); r != nil {
				s.failed = &Panic{Value: r, Stack: debug.Stack()}
			}
		}()
		s.val = task()
	}()
}

// Do runs task on the calling goroutine and commits its result in its turn,
// like any other: for a task so small that handing it to another goroutine
// would cost more than running it.
func (o *Ordered[T]) Do(task func() T) {
	if len(o.pending) == 0 {
		o.commit(task())
		return
	}
	o.Reserve()
	o.pending = append(o.pending, &slot[T]{done: closed, val: task()})
}

// closed is the done channel of a slot whose task ran in Do.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Wait commits every outstanding result in order.
func (o *Ordered[T]) Wait() {
	for len(o.pending) > 0 {
		o.commitOldest()
	}
}

// Close waits for the tasks still running and commits nothing: what an
// owner leaving early on an error or a panic of its own needs. After Wait
// it does nothing. A task's panic is re-raised here as anywhere else.
func (o *Ordered[T]) Close() {
	var failed *Panic
	for _, s := range o.pending {
		<-s.done
		if failed == nil {
			failed = s.failed
		}
	}
	o.pending = nil
	if failed != nil {
		panic(failed)
	}
}

// commitOldest waits for the oldest task and commits its result. If the
// task panicked, the tasks already running finish, none is committed or
// started, and the panic continues on this goroutine.
func (o *Ordered[T]) commitOldest() {
	s := o.pending[0]
	<-s.done
	if s.failed != nil {
		o.Close()
	}
	o.pending[0] = nil
	o.pending = o.pending[1:]
	o.commit(s.val)
}
