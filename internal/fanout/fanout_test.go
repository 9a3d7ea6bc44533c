package fanout

import (
	"errors"
	"runtime"
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
// submission order on the owner's goroutine, and between Reserve and commit
// there are never more than GOMAXPROCS of them.
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
		if int(peak.Load()) > procs || int(peakRunning.Load()) > procs {
			t.Errorf("GOMAXPROCS=%d: %d uncommitted and %d running at once", procs, peak.Load(), peakRunning.Load())
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
