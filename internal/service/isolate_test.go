package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"crisp/internal/obs"
	"crisp/internal/robust/chaos"
)

// TestMain doubles the test binary as the crispd worker: runWorkerProcess
// re-execs os.Executable() with WorkerEnv set, and that lands here before
// any test runs — exactly the interception cmd/crispd performs.
func TestMain(m *testing.M) {
	if os.Getenv(WorkerEnv) == "1" {
		os.Exit(WorkerMain())
	}
	os.Exit(m.Run())
}

// TestIsolatedRunMatchesInProcess: process isolation must be invisible to
// results — a job executed in a child worker process produces the same
// bit-identical digest as the direct in-process run, and its telemetry
// still flows to the job's timeline hub.
func TestIsolatedRunMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("isolated round trip is not short")
	}
	spec := tinySpec("SPL", "VIO", "EVEN")
	direct := directRun(t, spec)
	dd, err := direct.StatsDigest()
	if err != nil {
		t.Fatalf("StatsDigest: %v", err)
	}

	s, err := New(Config{Workers: 1, ProgressInterval: 256, Isolate: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateDone, 2*time.Minute)

	sr, ok := s.Result(job.Digest)
	if !ok {
		t.Fatalf("no cached result from isolated run")
	}
	if want := fmt.Sprintf("%016x", dd); sr.Cycles != direct.Cycles || sr.StatsDigest != want {
		t.Errorf("isolated result (cycles %d, digest %s) != direct (cycles %d, digest %s)",
			sr.Cycles, sr.StatsDigest, direct.Cycles, want)
	}
	// The child's samples were forwarded through the stdio protocol onto
	// the job's hub: the timeline must hold interval telemetry.
	if _, ok := job.hub.Latest(obs.TimelineSample); !ok {
		t.Errorf("isolated run produced no timeline samples; the worker protocol dropped them")
	}
	if n := s.Snapshot().WorkerCrashes; n != 0 {
		t.Errorf("worker crashes = %d on a clean isolated run", n)
	}
}

// TestIsolatedCrashRecovery is the hard-crash drill: the chaos fault makes
// the worker SIGKILL itself mid-run — no final snapshot, no goodbye — and
// the supervisor must classify the crash, retry from the last periodic
// checkpoint, and still converge to the bit-identical digest, all without
// the daemon itself dying.
func TestIsolatedCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash recovery round trip is not short")
	}
	spec := tinySpec("SPL", "VIO", "EVEN")
	killAt, wantCycles, wantDigest := chaosKillAt(t, spec)

	s, err := New(Config{
		Workers:          1,
		StateDir:         t.TempDir(),
		ProgressInterval: 256,
		CheckpointEvery:  512,
		RetryBase:        time.Millisecond,
		Isolate:          true,
		Chaos:            chaos.Spec{Seed: 13, KillCycle: killAt, Kills: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateDone, 3*time.Minute)

	st := s.Snapshot()
	if st.WorkerCrashes < 1 {
		t.Errorf("worker crashes = %d, want >= 1 (the SIGKILL must register as a crash)", st.WorkerCrashes)
	}
	if st.Retries < 1 {
		t.Errorf("retries = %d, want >= 1", st.Retries)
	}
	sr, ok := s.Result(job.Digest)
	if !ok {
		t.Fatalf("no cached result after crash recovery")
	}
	if !sr.Resumed {
		t.Errorf("crash-recovered result not marked resumed; progress to the last checkpoint was thrown away")
	}
	if sr.Cycles != wantCycles || sr.StatsDigest != wantDigest {
		t.Errorf("crash-recovered result (cycles %d, digest %s) != uninterrupted (cycles %d, digest %s)",
			sr.Cycles, sr.StatsDigest, wantCycles, wantDigest)
	}
	// The crash verdict keeps the cycle of the last sample the parent
	// read: the child streamed up to the kill, so it is at least killAt.
	crashAt := int64(-1)
	for _, ev := range job.hub.Events(0, 0) {
		if i := strings.Index(ev.Detail, "sim crash at cycle "); ev.Kind == obs.TimelineLifecycle && i >= 0 {
			fmt.Sscanf(ev.Detail[i:], "sim crash at cycle %d", &crashAt)
		}
	}
	if crashAt < killAt {
		t.Errorf("recorded crash cycle = %d, want >= %d (the kill cycle)", crashAt, killAt)
	}

	// The daemon survived its worker's death: it still accepts and
	// completes new work.
	after, err := s.Submit(tinySpec("SPL", "", "serial"))
	if err != nil {
		t.Fatalf("Submit after crash: %v", err)
	}
	waitState(t, s, after.ID, StateDone, 2*time.Minute)
}

// TestCancelIsolatedRun: DELETE on a job running in a child process must
// SIGTERM the worker, reap it, and land the job in canceled — the cancel
// path must not leak the child or misclassify its exit as a crash.
func TestCancelIsolatedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("isolated cancel round trip is not short")
	}
	s, err := New(Config{Workers: 1, ProgressInterval: 256, Isolate: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	job, err := s.Submit(tinySpec("SPL", "VIO", "EVEN"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Cancel once the child demonstrably runs (samples flowing), so the
	// SIGTERM interrupts a live worker rather than a spawning one...
	deadline := time.Now().Add(time.Minute)
	for {
		job.mu.Lock()
		st := job.state
		_, sampled := job.hub.Latest(obs.TimelineSample)
		job.mu.Unlock()
		if st == StateRunning && sampled {
			break
		}
		if st == StateDone {
			t.Skip("job finished before it could be canceled")
		}
		if time.Now().After(deadline) {
			t.Fatalf("isolated job never produced samples (state %s)", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ok, err := s.Cancel(job.ID); err != nil || !ok {
		t.Fatalf("Cancel(isolated) = %v, %v", ok, err)
	}
	waitState(t, s, job.ID, StateCanceled, time.Minute)
	if n := s.Snapshot().Retries; n != 0 {
		t.Errorf("retries = %d after cancel, want 0", n)
	}
}

// TestCancelDuringIsolatedSpawn races DELETE against worker startup: the
// job is canceled the instant it leaves the queue, so the cancel lands
// while the child is being spawned or barely alive. Cancel must win and
// the child must be reaped.
func TestCancelDuringIsolatedSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawn race round trip is not short")
	}
	s, err := New(Config{Workers: 1, ProgressInterval: 256, Isolate: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	job, err := s.Submit(tinySpec("SPL", "VIO", "EVEN"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	// Fire the cancel as soon as the job turns running — before the child
	// has produced any sample.
	deadline := time.Now().Add(time.Minute)
	for {
		job.mu.Lock()
		st := job.state
		job.mu.Unlock()
		if st == StateRunning {
			break
		}
		if st != StateQueued {
			t.Fatalf("job reached %s before the cancel race", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started")
		}
	}
	if ok, err := s.Cancel(job.ID); err != nil || !ok {
		t.Fatalf("Cancel(spawning) = %v, %v", ok, err)
	}
	waitState(t, s, job.ID, StateCanceled, time.Minute)
	if n := s.Snapshot().Retries; n != 0 {
		t.Errorf("retries = %d after spawn-race cancel, want 0 (cancel must never be retried)", n)
	}
}

// TestIsolatedSilentChildIsReaped: a child that never says anything — no
// sample, no heartbeat, no terminal event — must not hold its worker
// forever: after four heartbeat periods of silence it is killed, the
// attempt takes the crash verdict naming that cause, and the job runs out
// its budget into quarantine.
func TestIsolatedSilentChildIsReaped(t *testing.T) {
	s, err := New(Config{Workers: 1, Isolate: true, WorkerCommand: []string{"sleep", "60"},
		HeartbeatEvery: 25 * time.Millisecond, MaxAttempts: 2, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())
	job, err := s.Submit(tinySpec("SPL", "", "serial"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateQuarantined, 30*time.Second)
	if n := s.Snapshot().WorkerCrashes; n != 2 {
		t.Errorf("worker crashes = %d, want 2 (one per silent attempt)", n)
	}
	job.mu.Lock()
	msg := job.errMsg
	job.mu.Unlock()
	if want := "worker process silent for 100ms (4 heartbeats) was killed"; !strings.Contains(msg, want) {
		t.Errorf("quarantine error %q does not name the silence (want %q)", msg, want)
	}
}

// TestWorkerProtocolMismatchRefused: a -worker-bin of another build must
// cost one refused attempt with a message, not a silent misreading. A
// stub child whose result event lacks the protocol number fails its job
// at once — a validation error naming both numbers, no retry — and this
// build's worker answers a request of another protocol with an error
// event naming both.
func TestWorkerProtocolMismatchRefused(t *testing.T) {
	stub := `cat >/dev/null; echo '{"type":"result","result":{"digest":"0123456789abcdef","stats_digest":"feedfacefeedface"}}'`
	s, err := New(Config{Workers: 1, Isolate: true, WorkerCommand: []string{"sh", "-c", stub},
		MaxAttempts: 3, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())
	job, err := s.Submit(tinySpec("SPL", "", "serial"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateFailed, 30*time.Second)
	job.mu.Lock()
	msg := job.errMsg
	job.mu.Unlock()
	if want := fmt.Sprintf("carries wire protocol 0 (0: none), this crispd speaks %d", wireProtocol); !strings.Contains(msg, want) {
		t.Errorf("job error %q does not name both protocol numbers (want %q)", msg, want)
	}
	if st := s.Snapshot(); st.Attempts != 1 || st.Retries != 0 || st.WorkerCrashes != 0 {
		t.Errorf("%d attempts, %d retries, %d crashes; want one refused attempt", st.Attempts, st.Retries, st.WorkerCrashes)
	}

	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	cmd.Stdin = strings.NewReader(`{"protocol":1,"spec":{"scene":"SPL","policy":"serial"}}`)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	ev, err := decodeWorkerEvent(bytes.TrimSpace(out))
	if err != nil {
		t.Fatalf("worker answered %q: %v", out, err)
	}
	want := fmt.Sprintf("worker speaks wire protocol %d, the request carries 1", wireProtocol)
	if ev.Type != evError || ev.ErrKind != "validation" || ev.Protocol != wireProtocol || !strings.Contains(ev.ErrMsg, want) {
		t.Errorf("worker answered %+v, want a validation error event carrying protocol %d and naming %q", ev, wireProtocol, want)
	}
}

// TestRequestSameForJobAndSweepTask pins the one attempt description: a
// job-owned and a sweep-owned task of the same spec build the same
// request — heartbeat cadence, checkpoint cadence and default-merged
// limits included — apart from where they checkpoint.
func TestRequestSameForJobAndSweepTask(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, StateDir: dir, DefaultBudget: 1 << 40, WatchdogWindow: 1 << 20,
		CheckpointEvery: 512, ProgressInterval: 256, HeartbeatEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := tinySpec("SPL", "VIO", "EVEN")
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sw, err := s.SubmitSweep(oneCellSweep(spec))
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	jr := s.requestFor(job.task, 2, 9000)
	sr := s.requestFor(sw.tasks[0], 2, 9000)
	if want := filepath.Join(dir, "jobs", job.ID, "a2"); jr.CheckpointDir != want {
		t.Errorf("job attempt 2 checkpoints into %q, want %q", jr.CheckpointDir, want)
	}
	if !strings.HasPrefix(sr.CheckpointDir, filepath.Join(dir, "sweeps", sw.ID)) || filepath.Base(sr.CheckpointDir) != "a2" {
		t.Errorf("sweep task attempt 2 checkpoints into %q", sr.CheckpointDir)
	}
	jr.CheckpointDir, sr.CheckpointDir = "", ""
	if !reflect.DeepEqual(jr, sr) {
		t.Errorf("requests differ beyond their directories:\n job   %+v\n sweep %+v", jr, sr)
	}
	want := workerRequest{Protocol: wireProtocol, Spec: spec, CheckpointEvery: 512,
		Budget: 1 << 40, Watchdog: 1 << 20, ProgressInterval: 256, HeartbeatEvery: int64(20 * time.Millisecond), KillAt: 9000}
	if !reflect.DeepEqual(jr, want) {
		t.Errorf("request %+v, want %+v", jr, want)
	}
	// A spec's own limits win over the server defaults.
	own := tinySpec("SPL", "", "serial")
	own.CycleBudget, own.WatchdogWindow = 777, -1
	oj, err := s.Submit(own)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if r := s.requestFor(oj.task, 1, 0); r.Budget != 777 || r.Watchdog != -1 {
		t.Errorf("spec limits lost to the defaults: budget %d watchdog %d", r.Budget, r.Watchdog)
	}
}
