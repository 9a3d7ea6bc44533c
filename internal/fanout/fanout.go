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
	"sync"
)

// window is how many tasks per CPU may be uncommitted at once. A finished
// result waits in the window for the tasks before it, so a long oldest task
// idles no CPU until W tasks queue behind it. On 2 CPUs, in ten rotating
// trace-collect runs against the old bound (W = GOMAXPROCS), 8× read 1.17×
// and 4× 1.10× for 7 % and 1 % more peak RSS; with one CPU taken by another
// process, 8× beat 4× in 9 of 12 pairs (docs/PERFORMANCE.md, "The fan-out
// does not wait for its oldest task").
const window = 8

// Window is W, the most tasks an Ordered made now leaves uncommitted: 1 at
// GOMAXPROCS = 1, where Go is Do, and window × GOMAXPROCS otherwise.
func Window() int {
	return windowFor(runtime.GOMAXPROCS(0))
}

func windowFor(procs int) int {
	if procs == 1 {
		return 1
	}
	return window * procs
}

// Ordered runs tasks on up to GOMAXPROCS goroutines and passes each result
// to commit in submission order, on the goroutine that owns the Ordered
// (the one calling Reserve, Go, Do, Wait and Close).
//
//   - Tasks start in submission order, and at most GOMAXPROCS run at once.
//   - At most W (Window) are uncommitted, so whatever tasks and results
//     hold is bounded too. A finished result does not hold a running
//     slot: the CPUs keep working while the oldest task does.
//   - With GOMAXPROCS = 1 Go is Do: the task runs on the caller and is
//     committed before Go returns.
//
// The owner must arrange for Close to run (defer it) before it returns, so
// that no task outlives it whichever way it leaves.
type Ordered[T any] struct {
	commit  func(T)
	procs   int
	window  int
	pending []*slot[T] // uncommitted tasks, oldest first; the owner's alone

	mu      sync.Mutex
	queue   []*slot[T] // tasks waiting for a CPU, oldest first
	workers int        // worker goroutines alive, each running a task
	stopped bool       // a task panicked or the owner closed: the queue stays empty
	exited  sync.WaitGroup
}

type slot[T any] struct {
	task   func() T      // until a worker takes it
	done   chan struct{} // closed when the task has returned or panicked, or will never start
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
	procs := runtime.GOMAXPROCS(0)
	return &Ordered[T]{commit: commit, procs: procs, window: windowFor(procs)}
}

// Reserve commits the finished results next in line, then blocks until
// fewer than W tasks are uncommitted, committing meanwhile. Go
// and Do do the same; call Reserve first when the task's input is itself
// worth bounding (a batch's fragment list), and build the input after it
// returns.
func (o *Ordered[T]) Reserve() {
	for len(o.pending) > 0 && o.pending[0].finished() {
		o.commitOldest()
	}
	for len(o.pending) >= o.window {
		o.commitOldest()
	}
}

// Go queues task to start after every task handed in before it. Its result
// is committed by a later Reserve, Go, Do or Wait.
func (o *Ordered[T]) Go(task func() T) {
	if o.procs == 1 {
		o.Do(task)
		return
	}
	o.Reserve()
	s := &slot[T]{task: task, done: make(chan struct{})}
	o.pending = append(o.pending, s)
	o.mu.Lock()
	spawn := false
	switch {
	case o.stopped:
		close(s.done) // a task has panicked: this one never starts
	case o.workers < o.procs: // a CPU is free, so the queue is empty
		spawn = true
		o.workers++
		o.exited.Add(1)
	default:
		o.queue = append(o.queue, s)
	}
	o.mu.Unlock()
	if spawn {
		go o.work(s)
	}
}

// Do runs task on the calling goroutine and commits its result in its turn,
// like any other: for a task so small that handing it to another goroutine
// would cost more than running it. While every CPU runs a task, or tasks
// handed in before it wait to start, Do queues it as Go does instead.
func (o *Ordered[T]) Do(task func() T) {
	o.Reserve()
	if len(o.pending) == 0 { // nothing is running
		o.commit(task())
		return
	}
	o.mu.Lock()
	inline := len(o.queue) == 0 && o.workers < o.procs && !o.stopped
	o.mu.Unlock()
	if !inline {
		o.Go(task)
		return
	}
	o.pending = append(o.pending, &slot[T]{done: closed, val: task()})
}

func (s *slot[T]) finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// closed is the done channel of a slot whose task ran in Do.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// work runs s, then queued tasks oldest first until none is left.
func (o *Ordered[T]) work(s *slot[T]) {
	defer o.exited.Done()
	for {
		task := s.task
		s.task = nil // let what the task holds go with it
		o.run(s, task)
		o.mu.Lock()
		if len(o.queue) == 0 {
			o.workers--
			o.mu.Unlock()
			return
		}
		s = o.queue[0]
		o.queue[0] = nil
		o.queue = o.queue[1:]
		o.mu.Unlock()
	}
}

func (o *Ordered[T]) run(s *slot[T], task func() T) {
	defer close(s.done)
	defer func() {
		if r := recover(); r != nil {
			o.stop()
			s.failed = &Panic{Value: r, Stack: debug.Stack()}
		}
	}()
	s.val = task()
}

// Wait commits every outstanding result in order.
func (o *Ordered[T]) Wait() {
	for len(o.pending) > 0 {
		o.commitOldest()
	}
}

// Close waits for the running tasks, starts none of those still waiting for
// a CPU, and commits nothing: what an owner leaving early on an error or a
// panic of its own needs. After Wait it only waits for the idle workers to
// leave. A task's panic is re-raised here as anywhere else.
func (o *Ordered[T]) Close() {
	o.stop()
	var failed *Panic
	for _, s := range o.pending {
		<-s.done
		if failed == nil {
			failed = s.failed
		}
	}
	o.pending = nil
	o.exited.Wait()
	if failed != nil {
		panic(failed)
	}
}

// stop keeps the tasks waiting for a CPU from ever starting; their slots
// read as done. Running tasks finish.
func (o *Ordered[T]) stop() {
	o.mu.Lock()
	o.stopped = true
	for _, s := range o.queue {
		close(s.done)
	}
	o.queue = nil
	o.mu.Unlock()
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
