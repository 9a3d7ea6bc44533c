package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// settle waits for goroutines that have closed their done channel to leave.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestOrderedCommitsInOrderWithinBound: whatever order tasks finish in, and
// whether they ran on a worker (Go) or on the owner (Do), results arrive in
// submission order on the owner's goroutine; never more than GOMAXPROCS
// tasks run at once, and between Reserve and commit there are never more
// than W of them: 1 at GOMAXPROCS 1, window × GOMAXPROCS otherwise.
func TestOrderedCommitsInOrderWithinBound(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		setProcs(t, procs)
		base := runtime.NumGoroutine()
		const n = 200
		var alive, peak, running, peakRunning atomic.Int32
		var got []int
		q := New(func(i int) {
			got = append(got, i)
			alive.Add(-1)
		})
		for i := 0; i < n; i++ {
			q.Reserve()
			if a := alive.Add(1); a > peak.Load() {
				peak.Store(a) // only the owner writes peak
			}
			start := q.Go
			if i%5 == 0 { // some on the owner's goroutine, in their turn all the same
				start = q.Do
			}
			start(func() int {
				r := running.Add(1)
				for {
					p := peakRunning.Load()
					if r <= p || peakRunning.CompareAndSwap(p, r) {
						break
					}
				}
				if i%7 == 0 { // let later tasks overtake this one
					time.Sleep(200 * time.Microsecond)
				}
				running.Add(-1)
				return i
			})
		}
		q.Wait()
		q.Close()
		if len(got) != n {
			t.Fatalf("GOMAXPROCS=%d: %d results of %d", procs, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("GOMAXPROCS=%d: result %d committed at position %d", procs, v, i)
			}
		}
		w := window * procs
		if procs == 1 {
			w = 1
		}
		if int(peak.Load()) > w || int(peakRunning.Load()) > procs {
			t.Errorf("GOMAXPROCS=%d: %d uncommitted and %d running at once", procs, peak.Load(), peakRunning.Load())
		}
		settle(t, base)
	}
}

// ownTimed runs owner on a goroutine of its own. If it has not returned
// within five seconds, ownTimed fails the test with what(), after calling
// release, which must let the owner's tasks finish, and waiting for the owner.
func ownTimed(t *testing.T, what func() string, release func(), owner func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		owner()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		msg := what()
		release()
		<-done
		t.Fatal(msg)
	}
}

// TestOrderedDoesNotWaitForItsOldest: a long oldest task holds one CPU, not
// all of them. While task 0 runs, the owner hands in W-1 = window ×
// GOMAXPROCS - 1 more, and the other CPUs run every one of them; task 0
// returns only then.
func TestOrderedDoesNotWaitForItsOldest(t *testing.T) {
	for _, procs := range []int{2, 8} {
		setProcs(t, procs)
		base := runtime.NumGoroutine()
		w := window * procs
		var ran atomic.Int32
		others, release := make(chan struct{}), make(chan struct{})
		var releaseOnce sync.Once
		committed := 0
		stalled := func() string {
			return fmt.Sprintf("GOMAXPROCS=%d: head-of-line blocking: %d of the %d tasks behind a running oldest task ran within 5s",
				procs, ran.Load(), w-1)
		}
		ownTimed(t, stalled, func() { releaseOnce.Do(func() { close(release) }) }, func() {
			q := New(func(int) { committed++ })
			defer q.Close()
			q.Go(func() int {
				select {
				case <-others:
				case <-release:
				}
				return 0
			})
			for i := 1; i < w; i++ {
				q.Go(func() int {
					if ran.Add(1) == int32(w-1) {
						close(others)
					}
					return i
				})
			}
			q.Wait()
		})
		if committed != w {
			t.Errorf("GOMAXPROCS=%d: %d of %d results committed", procs, committed, w)
		}
		settle(t, base)
	}
}

// TestOrderedStartsInSubmissionOrder: no task starts before one handed in
// earlier. With all CPUs but one held by blocked tasks, the last CPU runs
// the rest one by one, and they start in the order they were handed in. All
// W fit in the window, so the owner hands every one in without waiting.
func TestOrderedStartsInSubmissionOrder(t *testing.T) {
	for _, procs := range []int{2, 8} {
		setProcs(t, procs)
		base := runtime.NumGoroutine()
		held, n := procs-1, window*procs
		var mu sync.Mutex
		var order []int
		gate := make(chan struct{})
		var gateOnce sync.Once
		open := func() { gateOnce.Do(func() { close(gate) }) }
		stalled := func() string {
			mu.Lock()
			defer mu.Unlock()
			return fmt.Sprintf("GOMAXPROCS=%d: %d of the %d tasks behind %d blocked ones ran within 5s", procs, len(order), n-held, held)
		}
		ownTimed(t, stalled, open, func() {
			q := New(func(int) {})
			defer q.Close()
			for i := 0; i < n; i++ {
				q.Go(func() int {
					if i < held {
						<-gate
						return i
					}
					mu.Lock()
					order = append(order, i)
					if len(order) == n-held {
						open()
					}
					mu.Unlock()
					return i
				})
			}
			q.Wait()
		})
		for k, i := range order {
			if i != held+k {
				t.Fatalf("GOMAXPROCS=%d: tasks started in the order %v", procs, order)
			}
		}
		settle(t, base)
	}
}

// TestOrderedInlineAtOne: with one CPU there is no second goroutine at all.
func TestOrderedInlineAtOne(t *testing.T) {
	setProcs(t, 1)
	base := runtime.NumGoroutine()
	committed := 0
	q := New(func(int) { committed++ })
	defer q.Close()
	for i := 0; i < 10; i++ {
		q.Go(func() int {
			if n := runtime.NumGoroutine(); n != base {
				t.Errorf("task %d runs beside %d goroutines, %d before", i, n, base)
			}
			return i
		})
		if committed != i+1 {
			t.Fatalf("task %d not committed when Go returned", i)
		}
	}
	q.Wait()
}

// TestOrderedTaskPanicReachesOwner: a task's panic is re-raised on the
// owner with the worker's stack, after the running tasks have finished;
// nothing at or after the panicked task is committed, nothing new starts.
func TestOrderedTaskPanicReachesOwner(t *testing.T) {
	boom := errors.New("boom")
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		base := runtime.NumGoroutine()
		var started, finished atomic.Int32
		var committed []int
		recovered := func() (r any) {
			defer func() { r = recover() }()
			q := New(func(i int) { committed = append(committed, i) })
			defer q.Close()
			for i := 0; i < 50; i++ {
				q.Go(func() int {
					started.Add(1)
					defer finished.Add(1)
					if i == 5 {
						panic(boom)
					}
					time.Sleep(100 * time.Microsecond)
					return i
				})
			}
			q.Wait()
			return nil
		}()
		if recovered == nil {
			t.Fatalf("GOMAXPROCS=%d: the task's panic never reached the owner", procs)
		}
		if procs > 1 {
			p, ok := recovered.(*Panic)
			if !ok || p.Value != boom || len(p.Stack) == 0 || !errors.Is(p, boom) {
				t.Errorf("GOMAXPROCS=%d: recovered %#v, want a *Panic carrying boom and a stack", procs, recovered)
			}
		} else if recovered != boom {
			t.Errorf("GOMAXPROCS=1: recovered %v, want the task's own panic value", recovered)
		}
		if started.Load() != finished.Load() {
			t.Errorf("GOMAXPROCS=%d: %d tasks started, %d finished when the owner unwound", procs, started.Load(), finished.Load())
		}
		if int(started.Load()) > 5+1+procs {
			t.Errorf("GOMAXPROCS=%d: %d tasks started; none may start after the panic is seen", procs, started.Load())
		}
		for i, v := range committed {
			if v != i || v >= 5 {
				t.Errorf("GOMAXPROCS=%d: committed %v", procs, committed)
				break
			}
		}
		settle(t, base)
	}
}

// TestOrderedCloseWaitsWithoutCommitting: an owner that leaves early takes
// its tasks with it.
func TestOrderedCloseWaitsWithoutCommitting(t *testing.T) {
	setProcs(t, 4)
	base := runtime.NumGoroutine()
	var finished atomic.Int32
	committed := 0
	func() {
		q := New(func(int) { committed++ })
		defer q.Close()
		for i := 0; i < 4; i++ {
			q.Go(func() int {
				time.Sleep(time.Millisecond)
				finished.Add(1)
				return i
			})
		}
	}()
	if finished.Load() != 4 || committed != 0 {
		t.Errorf("after Close: %d of 4 tasks finished, %d committed", finished.Load(), committed)
	}
	settle(t, base)
}

// TestOrderedCloseStartsNoWaitingTask: an owner that leaves early waits for
// the running tasks only; those still waiting for a CPU never start. Two
// running and four waiting fit in the window of 2 CPUs, so nothing blocks
// the owner before Close.
func TestOrderedCloseStartsNoWaitingTask(t *testing.T) {
	setProcs(t, 2)
	base := runtime.NumGoroutine()
	var finished, ran atomic.Int32
	committed := 0
	gate := make(chan struct{})
	var gateOnce sync.Once
	open := func() { gateOnce.Do(func() { close(gate) }) }
	stalled := func() string {
		return "Close waited for tasks still waiting for a CPU"
	}
	ownTimed(t, stalled, open, func() {
		q := New(func(int) { committed++ })
		go func() { // hold both CPUs until Close has stopped the queue
			for {
				q.mu.Lock()
				stopped := q.stopped
				q.mu.Unlock()
				if stopped {
					open()
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		defer q.Close()
		for i := 0; i < 2; i++ {
			q.Go(func() int {
				<-gate
				finished.Add(1)
				return i
			})
		}
		for i := 2; i < 6; i++ {
			q.Go(func() int {
				ran.Add(1)
				return i
			})
		}
	})
	if finished.Load() != 2 || ran.Load() != 0 || committed != 0 {
		t.Errorf("after Close: %d of 2 running tasks finished, %d of 4 waiting ones ran, %d committed", finished.Load(), ran.Load(), committed)
	}
	settle(t, base)
}
