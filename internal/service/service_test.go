package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	crisp "crisp"
	"crisp/internal/obs"
	"crisp/internal/snapshot"
)

// tinySpec is a fast job: the 128×72 resolution the core tests use.
func tinySpec(scene, comp, policy string) JobSpec {
	return JobSpec{Scene: scene, Compute: comp, Policy: policy, Width: 128, Height: 72}
}

// directRun executes the same job the service would, via the facade, for
// bit-identical comparison.
func directRun(t *testing.T, spec JobSpec) *crisp.Result {
	t.Helper()
	r, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	res, err := crisp.RunSpec(context.Background(), r.spec, nil)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	return res
}

func waitState(t *testing.T, s *Server, id string, want State, timeout time.Duration) *Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		job.mu.Lock()
		st, errMsg := job.state, job.errMsg
		job.mu.Unlock()
		if st == want {
			return job
		}
		switch st {
		case StateFailed, StateCanceled, StateDone, StateQuarantined:
			t.Fatalf("job %s reached %s (want %s): %s", id, st, want, errMsg)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s)", id, st, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceEndToEnd is the ISSUE acceptance test: N concurrent
// submissions covering K distinct jobs all complete, with exactly K
// simulator executions (the rest served by the cache or coalesced onto an
// in-flight run), and each cached result bit-identical to a direct
// crisp.RunPair of the same inputs.
func TestServiceEndToEnd(t *testing.T) {
	specs := []JobSpec{
		tinySpec("SPL", "", "serial"),
		tinySpec("SPL", "VIO", "EVEN"),
		{Compute: "VIO"},
	}
	const dup = 4 // submissions per distinct job

	s, err := New(Config{Workers: 2, ProgressInterval: 512})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	var (
		mu  sync.Mutex
		ids []string
		wg  sync.WaitGroup
	)
	for i := 0; i < dup; i++ {
		for _, spec := range specs {
			wg.Add(1)
			go func(spec JobSpec) {
				defer wg.Done()
				job, err := s.Submit(spec)
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				mu.Lock()
				ids = append(ids, job.ID)
				mu.Unlock()
			}(spec)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(ids) != dup*len(specs) {
		t.Fatalf("submitted %d jobs, tracked %d", dup*len(specs), len(ids))
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone, 2*time.Minute)
	}

	st := s.Snapshot()
	if st.Executions != int64(len(specs)) {
		t.Errorf("executions = %d, want exactly %d (one per distinct job)", st.Executions, len(specs))
	}
	if got := st.CacheHits + st.Coalesced; got != int64(dup*len(specs)-len(specs)) {
		t.Errorf("cache hits (%d) + coalesced (%d) = %d, want %d",
			st.CacheHits, st.Coalesced, got, dup*len(specs)-len(specs))
	}
	if st.Done != int64(dup*len(specs)) {
		t.Errorf("done = %d, want %d", st.Done, dup*len(specs))
	}

	// Every cached result must match a direct facade run bit for bit.
	for _, spec := range specs {
		r, err := spec.resolve()
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		sr, ok := s.Result(r.digest)
		if !ok {
			t.Fatalf("no cached result for %+v (digest %s)", spec, r.digest)
		}
		direct := directRun(t, spec)
		dd, err := direct.StatsDigest()
		if err != nil {
			t.Fatalf("StatsDigest: %v", err)
		}
		if sr.Cycles != direct.Cycles {
			t.Errorf("%s/%s/%s: service cycles %d != direct %d",
				spec.Scene, spec.Compute, spec.Policy, sr.Cycles, direct.Cycles)
		}
		if want := fmt.Sprintf("%016x", dd); sr.StatsDigest != want {
			t.Errorf("%s/%s/%s: service stats digest %s != direct %s",
				spec.Scene, spec.Compute, spec.Policy, sr.StatsDigest, want)
		}
	}

	// A fresh submission of a completed job is an instant cache hit.
	job, err := s.Submit(specs[0])
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	job.mu.Lock()
	state, hit := job.state, job.cacheHit
	job.mu.Unlock()
	if state != StateDone || !hit {
		t.Errorf("resubmission: state=%s cacheHit=%v, want done cache hit", state, hit)
	}
}

// TestQueueFullAdmission fills the bounded queue of an un-started server
// (no workers draining it) and asserts the over-capacity submission is
// rejected with a QueueFullError carrying a positive Retry-After, then
// that starting the pool drains the backlog.
func TestQueueFullAdmission(t *testing.T) {
	s, err := New(Config{QueueDepth: 1, Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// A queued job canceled before any worker saw it gives its slot back
	// at once: the bound counts live queued jobs, not queue entries.
	gone, err := s.Submit(tinySpec("SPL", "VIO", "EVEN"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if ok, err := s.Cancel(gone.ID); err != nil || !ok {
		t.Fatalf("Cancel(queued) = %v, %v", ok, err)
	}
	if n := s.Snapshot().QueueDepth; n != 0 {
		t.Fatalf("queue depth %d after canceling the only queued job, want 0", n)
	}

	first, err := s.Submit(tinySpec("SPL", "", "serial"))
	if err != nil {
		t.Fatalf("first submit after a canceled one: %v", err)
	}
	// Distinct digest (different policy), so it cannot coalesce: it must
	// hit admission control.
	_, err = s.Submit(tinySpec("SPL", "", "EVEN"))
	qf, ok := err.(*QueueFullError)
	if !ok {
		t.Fatalf("over-capacity submit: got err %v, want *QueueFullError", err)
	}
	if qf.RetryAfter < time.Second {
		t.Errorf("Retry-After %v, want >= 1s", qf.RetryAfter)
	}

	// An identical job coalesces instead of being rejected: dedup costs
	// no queue slot.
	co, err := s.Submit(tinySpec("SPL", "", "serial"))
	if err != nil {
		t.Fatalf("identical submit while queue full: %v", err)
	}
	if !co.coalesce {
		t.Errorf("identical submission did not coalesce")
	}

	s.Start()
	defer s.Drain(context.Background())
	waitState(t, s, first.ID, StateDone, 2*time.Minute)
	waitState(t, s, co.ID, StateDone, time.Second)
}

// TestDrainAndResume drains a server mid-simulation and restarts it on the
// same state directory: the recovered job must resume from its final
// snapshot and finish bit-identical to an uninterrupted run.
func TestDrainAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("drain/restart round trip is not short")
	}
	dir := t.TempDir()
	spec := tinySpec("SPL", "VIO", "EVEN")

	s1, err := New(Config{
		Workers:          1,
		StateDir:         dir,
		ProgressInterval: 256,
		CheckpointEvery:  512,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s1.Start()
	job, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until the run has made observable progress, so the drain
	// interrupts a genuinely mid-flight simulation.
	deadline := time.Now().Add(time.Minute)
	for {
		job.mu.Lock()
		cycle := int64(0)
		if ev, ok := job.hub.Latest(obs.TimelineSample); ok {
			cycle = ev.Cycle
		}
		st := job.state
		job.mu.Unlock()
		if st == StateRunning && cycle > 0 {
			break
		}
		if st == StateDone {
			t.Skip("job finished before it could be drained; nothing to resume")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never made progress (state %s)", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	job.mu.Lock()
	st := job.state
	job.mu.Unlock()
	if st != StateQueued {
		t.Fatalf("drained job state = %s, want queued (resumable)", st)
	}

	// Second daemon instance over the same state directory.
	s2, err := New(Config{Workers: 1, StateDir: dir, ProgressInterval: 256})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	recovered, ok := s2.Job(job.ID)
	if !ok {
		t.Fatalf("restarted server lost job %s", job.ID)
	}
	if len(snapshot.Candidates(attemptDirs(recovered.task.dir)...)) == 0 {
		t.Errorf("recovered job has no snapshot to resume from")
	}
	s2.Start()
	defer s2.Drain(context.Background())
	waitState(t, s2, job.ID, StateDone, 2*time.Minute)

	r, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	sr, ok := s2.Result(r.digest)
	if !ok {
		t.Fatalf("no cached result after resume")
	}
	if !sr.Resumed {
		t.Errorf("result not marked resumed; the restart re-simulated from scratch")
	}
	direct := directRun(t, spec)
	dd, _ := direct.StatsDigest()
	if sr.Cycles != direct.Cycles || sr.StatsDigest != fmt.Sprintf("%016x", dd) {
		t.Errorf("resumed result (cycles %d, digest %s) != direct (cycles %d, digest %016x)",
			sr.Cycles, sr.StatsDigest, direct.Cycles, dd)
	}

	// Third instance: the cache now answers without any execution.
	s3, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("third New: %v", err)
	}
	s3.Start()
	defer s3.Drain(context.Background())
	hit, err := s3.Submit(spec)
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	hit.mu.Lock()
	hitState, cached := hit.state, hit.cacheHit
	hit.mu.Unlock()
	if hitState != StateDone || !cached {
		t.Errorf("restarted cache: state=%s cached=%v, want instant hit", hitState, cached)
	}
	if n := s3.Snapshot().Executions; n != 0 {
		t.Errorf("restarted server executed %d jobs for a cached digest", n)
	}
}

// TestCancelQueuedAndRunning exercises DELETE semantics at both lifecycle
// points.
func TestCancelQueuedAndRunning(t *testing.T) {
	s, err := New(Config{QueueDepth: 4, Workers: 1, ProgressInterval: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// No workers yet: cancel a queued job deterministically.
	queued, err := s.Submit(tinySpec("SPL", "", "serial"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if ok, err := s.Cancel(queued.ID); err != nil || !ok {
		t.Fatalf("Cancel(queued) = %v, %v", ok, err)
	}
	queued.mu.Lock()
	st := queued.state
	queued.mu.Unlock()
	if st != StateCanceled {
		t.Fatalf("canceled queued job state = %s", st)
	}
	if ok, _ := s.Cancel(queued.ID); ok {
		t.Errorf("second cancel reported success on a finished job")
	}

	running, err := s.Submit(tinySpec("SPL", "VIO", "EVEN"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())
	waitState(t, s, running.ID, StateRunning, time.Minute)
	if ok, err := s.Cancel(running.ID); err != nil || !ok {
		t.Fatalf("Cancel(running) = %v, %v", ok, err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		running.mu.Lock()
		st := running.state
		running.mu.Unlock()
		if st == StateCanceled {
			break
		}
		if st == StateDone {
			t.Skip("run finished before the cancel landed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled running job stuck in %s", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := s.Snapshot().Canceled; n != 2 {
		t.Errorf("canceled counter = %d, want 2", n)
	}
}

// TestSubmitValidation maps bad specs to ValidationError.
func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	bad := []JobSpec{
		{},                              // no workload at all
		{Scene: "no-such-scene"},        // unknown scene
		{Compute: "no-such-kernel"},     // unknown compute workload
		{Scene: "SPL", Policy: "bogus"}, // unknown policy
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		} else if _, ok := err.(*ValidationError); !ok {
			t.Errorf("Submit(%+v) error %T, want *ValidationError", spec, err)
		}
	}
}

// TestDigestNormalization: submissions that resolve identically share one
// digest — empty policy vs "serial", named config vs the equivalent
// inline config.
func TestDigestNormalization(t *testing.T) {
	base := tinySpec("SPL", "", "serial")
	r1, err := base.resolve()
	if err != nil {
		t.Fatal(err)
	}
	empty := tinySpec("SPL", "", "")
	r2, err := empty.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r1.digest != r2.digest {
		t.Errorf("policy \"\" digest %s != \"serial\" digest %s", r2.digest, r1.digest)
	}

	inline := base
	inline.Config = []byte(`{"base": "JetsonOrin"}`)
	r3, err := inline.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r3.digest != r1.digest {
		t.Errorf("inline JetsonOrin digest %s != named digest %s", r3.digest, r1.digest)
	}

	other := base
	other.GPU = "RTX3070"
	r4, err := other.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r4.digest == r1.digest {
		t.Errorf("RTX3070 and JetsonOrin jobs share digest %s", r4.digest)
	}

	// Budgets and watchdogs bound execution; they must not key the cache.
	budgeted := base
	budgeted.CycleBudget = 1 << 40
	budgeted.WatchdogWindow = 1 << 30
	r5, err := budgeted.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r5.digest != r1.digest {
		t.Errorf("budgeted job digest %s != base digest %s", r5.digest, r1.digest)
	}
}
