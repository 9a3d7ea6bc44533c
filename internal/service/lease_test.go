package service

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crisp/internal/robust"
)

func TestLeaseTableGrantRenewRelease(t *testing.T) {
	lt := newLeaseTable(time.Hour)

	ep1 := lt.Grant("s1/0", 0, false)
	if !lt.Renew("s1/0", ep1) {
		t.Fatal("holder's renewal refused")
	}
	if lt.Renew("s1/0", ep1+99) {
		t.Fatal("renewal with a bogus epoch accepted")
	}
	if lt.Renew("s1/1", ep1) {
		t.Fatal("renewal of an ungranted key accepted")
	}

	// A re-grant replaces the lease with a fresh epoch: the old holder is
	// fenced off — its renewals and release must both fail.
	ep2 := lt.Grant("s1/0", 1, false)
	if ep2 <= ep1 {
		t.Fatalf("epochs not increasing: %d then %d", ep1, ep2)
	}
	if lt.Renew("s1/0", ep1) {
		t.Fatal("fenced-off holder renewed a replaced lease")
	}
	if lt.Release("s1/0", ep1) {
		t.Fatal("fenced-off holder released a replaced lease")
	}
	if !lt.Release("s1/0", ep2) {
		t.Fatal("current holder's release refused")
	}
	if _, _, ok := lt.Holder("s1/0"); ok {
		t.Fatal("lease survived its release")
	}
}

func TestLeaseTableEpochsUniqueAcrossKeys(t *testing.T) {
	lt := newLeaseTable(time.Hour)
	seen := map[uint64]string{}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("s1/%d", i%5) // re-grants included
		ep := lt.Grant(key, i, false)
		if prev, dup := seen[ep]; dup {
			t.Fatalf("epoch %d granted twice (%s then %s)", ep, prev, key)
		}
		seen[ep] = key
	}
}

func TestLeaseTableExpiry(t *testing.T) {
	lt := newLeaseTable(50 * time.Millisecond)
	ep := lt.Grant("s1/0", 0, false)
	lt.Grant("s1/1", 1, false)

	// Keep s1/0 alive with renewals past the original TTL; let s1/1 lapse.
	deadline := time.Now().Add(120 * time.Millisecond)
	for time.Now().Before(deadline) {
		if !lt.Renew("s1/0", ep) {
			t.Fatal("live holder's renewal refused")
		}
		time.Sleep(10 * time.Millisecond)
	}
	expired := lt.Expired(time.Now())
	if len(expired) != 1 || expired[0].key != "s1/1" {
		t.Fatalf("Expired = %+v, want exactly s1/1", expired)
	}
	if _, _, ok := lt.Holder("s1/1"); ok {
		t.Fatal("expired lease still in table")
	}
	if _, _, ok := lt.Holder("s1/0"); !ok {
		t.Fatal("renewed lease evicted")
	}
	_, _, expirations := lt.Counters()
	if expirations != 1 {
		t.Fatalf("expirations counter = %d, want 1", expirations)
	}
}

// TestLeaseTableDeaf pins the hbdrop chaos contract: a deaf lease
// acknowledges renewals (the holder believes it is healthy) while never
// extending its expiry — the simulated partition that forces the
// coordinator to win the duplicate-commit race.
func TestLeaseTableDeaf(t *testing.T) {
	lt := newLeaseTable(30 * time.Millisecond)
	ep := lt.Grant("s1/0", 0, true)
	for i := 0; i < 5; i++ {
		if !lt.Renew("s1/0", ep) {
			t.Fatal("deaf lease must acknowledge renewals")
		}
		time.Sleep(10 * time.Millisecond)
	}
	expired := lt.Expired(time.Now())
	if len(expired) != 1 || expired[0].epoch != ep {
		t.Fatalf("deaf lease did not expire despite renewals: %+v", expired)
	}
}

// taskFixture builds a server (not started: the pools stay idle, so tasks
// sit in their queue and the test drives the coordinator by hand) holding
// one task of the named owner: the first cell of a two-task sweep, or a
// persisted job with one coalesced follower.
func taskFixture(t *testing.T, owner string) (*Server, *sweepTask) {
	t.Helper()
	if owner == "sweep" {
		_, _, sw := sweepFixture(t)
		return sw.c.s, sw.tasks[0]
	}
	s, err := New(Config{Workers: 1, ProgressInterval: 512, StateDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	job, err := s.Submit(tinySpec("SPL", "", "EVEN"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if co, err := s.Submit(tinySpec("SPL", "", "EVEN")); err != nil || !co.coalesce {
		t.Fatalf("follower: %v (coalesced %v)", err, co != nil && co.coalesce)
	}
	return s, job.task
}

// sweepFixture builds a server (not started: the shard pool stays idle, so
// tasks sit in the queue and the test drives the coordinator by hand) with
// one two-task sweep admitted.
func sweepFixture(t *testing.T) (*Server, *coordinator, *Sweep) {
	t.Helper()
	s, err := New(Config{Workers: 1, ProgressInterval: 512})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sw, err := s.SubmitSweep(SweepSpec{
		Scenes: []string{"SPL"}, Computes: []string{"", "VIO"}, Policies: []string{"EVEN"},
		Width: 128, Height: 72,
	})
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if len(sw.tasks) != 2 {
		t.Fatalf("fixture sweep has %d tasks, want 2", len(sw.tasks))
	}
	return s, s.coord, sw
}

// TestCommitExactlyOnceAfterRevocation is the lease-expiry race, run
// deterministically (satellite of the fleet tier): a worker's lease is
// revoked and its task reassigned while the worker keeps running; both the
// reassigned attempt and the revoked orphan then deliver results.
// Exactly one commit must land; the duplicate is discarded by digest —
// for a sweep's task and for a job's alike.
func TestCommitExactlyOnceAfterRevocation(t *testing.T) {
	for _, owner := range []string{"sweep", "job"} {
		t.Run(owner, func(t *testing.T) {
			s, task := taskFixture(t, owner)
			c := s.coord

			// Attempt 1: leased, then revoked by expiry (the holder is deaf
			// or partitioned — from the coordinator's view, silent).
			ep1 := c.leases.Grant(task.key(), 0, false)
			c.mu.Lock()
			task.state, task.epoch, task.worker = taskLeased, ep1, 0
			c.mu.Unlock()
			c.leases.Expired(time.Now().Add(2 * DefaultLeaseTTL)) // force-expire

			// Reassignment: attempt 2 on another shard, fresh epoch.
			ep2 := c.leases.Grant(task.key(), 1, false)
			c.mu.Lock()
			task.epoch, task.worker = ep2, 1
			c.mu.Unlock()

			// Determinism makes the two candidate results bit-identical.
			fresh := func() *StoredResult {
				return &StoredResult{Digest: task.digest, StatsDigest: "feedfacefeedface", Cycles: 4096}
			}
			winner := fresh()

			c.mu.Lock()
			c.commitLocked(task, ep2, winner, false) // reassigned attempt commits first
			c.mu.Unlock()
			c.mu.Lock()
			c.commitLocked(task, ep1, fresh(), false) // revoked orphan finishes anyway
			c.mu.Unlock()

			if sw, ok := task.owner.(*Sweep); ok {
				c.mu.Lock()
				if sw.doneN != 1 {
					t.Fatalf("doneN = %d, want 1 (exactly one commit)", sw.doneN)
				}
				if sw.dups != 1 {
					t.Fatalf("sweep duplicate count = %d, want 1", sw.dups)
				}
				c.mu.Unlock()
			} else if st := s.Snapshot(); st.Done != 2 || st.JobsByState[StateDone] != 2 {
				// The primary and its follower, each exactly once.
				t.Fatalf("done counter %d, jobs done %d; want 2 and 2", st.Done, st.JobsByState[StateDone])
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			if task.state != taskDone {
				t.Fatalf("task state = %s, want done", task.state)
			}
			if task.result != winner {
				t.Fatal("committed result is not the reassigned attempt's")
			}
			if got := c.duplicates.Load(); got != 1 {
				t.Fatalf("coordinator duplicate counter = %d, want 1", got)
			}
			if _, _, ok := c.leases.Holder(task.key()); ok {
				t.Fatal("lease survived both commits")
			}
			if sr, ok := c.s.store.get(task.digest); !ok || sr != winner {
				t.Fatal("cache does not hold exactly the winning result")
			}
		})
	}
}

// TestHandleFailureStaleEpochDropped: a revoked holder's late *failure*
// report must not disturb the reassigned attempt — nor, for a job, reach
// its persisted attempt count.
func TestHandleFailureStaleEpochDropped(t *testing.T) {
	for _, owner := range []string{"sweep", "job"} {
		t.Run(owner, func(t *testing.T) {
			s, task := taskFixture(t, owner)
			c := s.coord

			ep1 := c.leases.Grant(task.key(), 0, false)
			c.mu.Lock()
			task.state, task.epoch, task.worker = taskLeased, ep1, 0
			c.mu.Unlock()

			// Reassigned under a fresh epoch; the orphan's epoch is now stale.
			ep2 := c.leases.Grant(task.key(), 1, false)
			c.mu.Lock()
			task.epoch, task.worker = ep2, 1
			c.mu.Unlock()

			c.handleFailure(task, ep1, &robust.SimError{Kind: robust.KindCrash, Msg: "orphan crashed late"})

			c.mu.Lock()
			defer c.mu.Unlock()
			if task.state != taskLeased || task.epoch != ep2 {
				t.Fatalf("stale failure report disturbed the live attempt: state=%s epoch=%d (want leased/%d)", task.state, task.epoch, ep2)
			}
			if task.attempts != 0 {
				t.Fatalf("stale failure burned an attempt: %d", task.attempts)
			}
			if sw, ok := task.owner.(*Sweep); ok {
				if sw.revoked != 0 {
					t.Fatalf("stale failure counted a revocation: %d", sw.revoked)
				}
			} else if _, err := os.Stat(filepath.Join(task.dir, "attempts.json")); err == nil {
				t.Fatal("stale failure report was persisted to attempts.json")
			}
			if _, _, ok := c.leases.Holder(task.key()); !ok {
				t.Fatal("stale failure report released the live attempt's lease")
			}
		})
	}
}
