package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	crisp "crisp"
	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/robust/chaos"
	"crisp/internal/snapshot"
)

// chaosKillAt picks a kill cycle roughly halfway through the job, derived
// from an uninterrupted direct run so the fault lands mid-simulation
// regardless of how long the workload happens to be.
func chaosKillAt(t *testing.T, spec JobSpec) (killAt int64, directCycles int64, directDigest string) {
	t.Helper()
	direct := directRun(t, spec)
	dd, err := direct.StatsDigest()
	if err != nil {
		t.Fatalf("StatsDigest: %v", err)
	}
	killAt = direct.Cycles / 2
	if killAt < 1024 {
		t.Skipf("run too short to interrupt meaningfully (%d cycles)", direct.Cycles)
	}
	return killAt, direct.Cycles, fmt.Sprintf("%016x", dd)
}

// TestRetryResumesFromCheckpoint is the tentpole determinism audit: a job
// killed mid-run by an injected fault is retried from its snapshot and the
// recovered result is bit-identical to an uninterrupted run.
func TestRetryResumesFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos recovery round trip is not short")
	}
	spec := tinySpec("SPL", "VIO", "EVEN")
	killAt, wantCycles, wantDigest := chaosKillAt(t, spec)

	s, err := New(Config{
		Workers:          1,
		StateDir:         t.TempDir(),
		ProgressInterval: 256,
		CheckpointEvery:  512,
		RetryBase:        time.Millisecond,
		Chaos:            chaos.Spec{Seed: 7, KillCycle: killAt, Kills: 1},
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
	waitState(t, s, job.ID, StateDone, 2*time.Minute)

	st := s.Snapshot()
	if st.ChaosKills != 1 {
		t.Errorf("chaos kills = %d, want 1", st.ChaosKills)
	}
	if st.Retries < 1 {
		t.Errorf("retries = %d, want >= 1 (the kill must have forced a retry)", st.Retries)
	}
	sr, ok := s.Result(job.Digest)
	if !ok {
		t.Fatalf("no cached result after recovery")
	}
	if !sr.Resumed {
		t.Errorf("recovered result not marked resumed; the retry re-simulated from scratch")
	}
	if sr.Cycles != wantCycles || sr.StatsDigest != wantDigest {
		t.Errorf("recovered result (cycles %d, digest %s) != uninterrupted (cycles %d, digest %s)",
			sr.Cycles, sr.StatsDigest, wantCycles, wantDigest)
	}
	// The first attempt rendered SPL and built VIO; the retry must find
	// both in the server's trace cache instead of paying the front end
	// again before it restores the checkpoint.
	if fe := st.Frontend; fe.Misses != 2 || fe.Hits < 2 {
		t.Errorf("front end across the retry: %d builds, %d hits; want the 2 builds of the first attempt and >= 2 hits from the resume", fe.Misses, fe.Hits)
	}
}

// oneCellSweep is the sweep whose single grid cell is spec's pair.
func oneCellSweep(spec JobSpec) SweepSpec {
	return SweepSpec{Scenes: []string{spec.Scene}, Computes: []string{spec.Compute}, Policies: []string{spec.Policy},
		Width: spec.Width, Height: spec.Height}
}

// TestChaosCorruptFallsBack layers checkpoint corruption on top of the
// kill: the newest snapshot is truncated before the retry resumes, forcing
// the fallback to the previous checkpoint — and the result must STILL be
// bit-identical. A job and a one-cell sweep of the same spec take the same
// path and must show the same counters.
func TestChaosCorruptFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos recovery round trip is not short")
	}
	spec := tinySpec("SPL", "VIO", "EVEN")
	killAt, wantCycles, wantDigest := chaosKillAt(t, spec)

	for _, owner := range []string{"job", "sweep"} {
		t.Run(owner, func(t *testing.T) {
			s, err := New(Config{
				Workers:          1,
				StateDir:         t.TempDir(),
				ProgressInterval: 256,
				CheckpointEvery:  512,
				RetryBase:        time.Millisecond,
				Chaos:            chaos.Spec{Seed: 11, KillCycle: killAt, Kills: 1, CorruptLatest: "truncate"},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			s.Start()
			defer s.Drain(context.Background())

			digest := ""
			if owner == "job" {
				job, err := s.Submit(spec)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				waitState(t, s, job.ID, StateDone, 2*time.Minute)
				digest = job.Digest
			} else {
				sw, err := s.SubmitSweep(oneCellSweep(spec))
				if err != nil {
					t.Fatalf("SubmitSweep: %v", err)
				}
				digest = waitSweep(t, s, sw.ID, StateDone, 2*time.Minute).Tasks[0].Digest
			}

			st := s.Snapshot()
			if st.ChaosCorruptions != 1 {
				t.Errorf("chaos corruptions = %d, want 1", st.ChaosCorruptions)
			}
			if st.CheckpointFallbacks < 1 {
				t.Errorf("checkpoint fallbacks = %d, want >= 1 (the corrupt snapshot must have been skipped)", st.CheckpointFallbacks)
			}
			sr, ok := s.Result(digest)
			if !ok {
				t.Fatalf("no cached result after corrupt-fallback recovery")
			}
			if sr.Cycles != wantCycles || sr.StatsDigest != wantDigest {
				t.Errorf("fallback result (cycles %d, digest %s) != uninterrupted (cycles %d, digest %s)",
					sr.Cycles, sr.StatsDigest, wantCycles, wantDigest)
			}
		})
	}
}

// TestFailureVerdict pins the one classification every failed attempt
// goes through, whoever owns the task.
func TestFailureVerdict(t *testing.T) {
	s, err := New(Config{MaxAttempts: 3, RetryBase: 100 * time.Millisecond, RetryMax: time.Second, RetrySeed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const digest = "00c0ffee00c0ffee"
	sim := func(k robust.Kind) error { return &robust.SimError{Kind: k, Cycle: 9000, Msg: "planted"} }
	cases := []struct {
		name   string
		err    error
		failed int
		want   verdict
		delay  time.Duration
	}{
		{"canceled", sim(robust.KindCanceled), 1, verdictCanceled, 0},
		{"canceled under a panic envelope", &robust.SimError{Kind: robust.KindPanic, Err: sim(robust.KindCanceled)}, 1, verdictCanceled, 0},
		{"validation is permanent", sim(robust.KindValidation), 1, verdictPermanent, 0},
		{"deadlock is permanent", sim(robust.KindDeadlock), 1, verdictPermanent, 0},
		{"a bare error is permanent", fmt.Errorf("not a SimError"), 1, verdictPermanent, 0},
		{"first crash retries", sim(robust.KindCrash), 1, verdictRetry, s.backoffDelay(digest, 2)},
		{"second watchdog retries, longer", sim(robust.KindWatchdog), 2, verdictRetry, s.backoffDelay(digest, 3)},
		{"injected fault under a panic envelope retries", &robust.SimError{Kind: robust.KindPanic, Err: sim(robust.KindInjected)}, 1, verdictRetry, s.backoffDelay(digest, 2)},
		{"third failure exhausts the budget", sim(robust.KindCrash), 3, verdictExhausted, 0},
	}
	for _, tc := range cases {
		got, delay := s.verdict(digest, tc.failed, tc.err)
		if got != tc.want || delay != tc.delay {
			t.Errorf("%s: verdict %d after %v, want %d after %v", tc.name, got, delay, tc.want, tc.delay)
		}
	}
	// The backoff is pinned, not merely self-consistent: base·2^(n-2) plus
	// jitter in [0, delay/2) keyed on (RetrySeed, digest, attempt).
	for attempt, base := range map[int]time.Duration{2: 100 * time.Millisecond, 3: 200 * time.Millisecond, 9: time.Second} {
		d := s.backoffDelay(digest, attempt)
		if d < base || d >= base+base/2+1 {
			t.Errorf("backoffDelay(attempt %d) = %v, want in [%v, %v)", attempt, d, base, base+base/2+1)
		}
		if d != s.backoffDelay(digest, attempt) {
			t.Errorf("backoffDelay(attempt %d) is not deterministic", attempt)
		}
	}
	other, _ := New(Config{RetryBase: 100 * time.Millisecond, RetrySeed: 8})
	if s.backoffDelay(digest, 2) == other.backoffDelay(digest, 2) {
		t.Errorf("RetrySeed does not key the jitter")
	}
}

// TestQuarantineAfterAttemptBudget kills every attempt: the job must land
// in quarantine (not a hot retry loop), persist the decision, and stay
// quarantined across a daemon restart.
func TestQuarantineAfterAttemptBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos quarantine round trip is not short")
	}
	spec := tinySpec("SPL", "VIO", "EVEN")
	killAt, _, _ := chaosKillAt(t, spec)
	dir := t.TempDir()

	s1, err := New(Config{
		Workers:          1,
		StateDir:         dir,
		ProgressInterval: 256,
		CheckpointEvery:  512,
		MaxAttempts:      3,
		RetryBase:        time.Millisecond,
		Chaos:            chaos.Spec{Seed: 3, KillCycle: killAt, Kills: 3},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s1.Start()
	job, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s1, job.ID, StateQuarantined, 2*time.Minute)

	st := s1.Snapshot()
	if st.Quarantined != 1 {
		t.Errorf("quarantined counter = %d, want 1", st.Quarantined)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want exactly 3 (the budget)", st.Attempts)
	}
	job.mu.Lock()
	errMsg := job.errMsg
	job.mu.Unlock()
	if !strings.Contains(errMsg, "quarantined after 3 failed attempts") {
		t.Errorf("quarantine message %q lacks the attempt count", errMsg)
	}
	if ok, _ := s1.Cancel(job.ID); ok {
		t.Errorf("Cancel succeeded on a quarantined job; quarantine must be terminal")
	}
	qpath := filepath.Join(dir, "jobs", job.ID, "quarantined.json")
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("quarantine marker not persisted: %v", err)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// A restarted daemon must honor the marker: the job comes back
	// quarantined and is never re-executed.
	s2, err := New(Config{Workers: 1, StateDir: dir, MaxAttempts: 3})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	s2.Start()
	defer s2.Drain(context.Background())
	rec, ok := s2.Job(job.ID)
	if !ok {
		t.Fatalf("restarted server lost quarantined job %s", job.ID)
	}
	rec.mu.Lock()
	recState := rec.state
	rec.mu.Unlock()
	if recState != StateQuarantined {
		t.Errorf("recovered job state = %s, want quarantined", recState)
	}
	if n := s2.Snapshot().Executions; n != 0 {
		t.Errorf("restarted server re-executed a quarantined job %d times", n)
	}
}

// TestAttemptCountSurvivesRestart plants a persisted attempts.json at the
// budget: the booting daemon must quarantine the job instead of handing a
// crash-looping poison job a fresh retry budget.
func TestAttemptCountSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("SPL", "", "serial")
	r, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	jdir := filepath.Join(dir, "jobs", "j000001")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	pj, _ := json.Marshal(persistedJob{ID: "j000001", Digest: r.digest, Spec: spec})
	if err := os.WriteFile(filepath.Join(jdir, "job.json"), pj, 0o644); err != nil {
		t.Fatal(err)
	}
	ar, _ := json.Marshal(attemptRecord{Attempts: 3, LastError: "simulated watchdog stall", Kind: "watchdog"})
	if err := os.WriteFile(filepath.Join(jdir, "attempts.json"), ar, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 1, StateDir: dir, MaxAttempts: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	job, ok := s.Job("j000001")
	if !ok {
		t.Fatalf("planted job not recovered")
	}
	job.mu.Lock()
	st, errMsg := job.state, job.errMsg
	job.mu.Unlock()
	if st != StateQuarantined {
		t.Fatalf("job at the attempt limit recovered as %s, want quarantined", st)
	}
	if !strings.Contains(errMsg, "watchdog stall") {
		t.Errorf("quarantine message %q lost the last error", errMsg)
	}
	if _, err := os.Stat(filepath.Join(jdir, "quarantined.json")); err != nil {
		t.Errorf("at-boot quarantine not persisted: %v", err)
	}
	if n := s.Snapshot().Quarantined; n != 1 {
		t.Errorf("quarantined counter = %d, want 1", n)
	}
}

// TestCancelDuringBackoff races DELETE against a pending retry: the cancel
// must win — the job goes canceled, and no retry attempt ever starts.
func TestCancelDuringBackoff(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos cancel race is not short")
	}
	spec := tinySpec("SPL", "VIO", "EVEN")
	killAt, _, _ := chaosKillAt(t, spec)

	s, err := New(Config{
		Workers:          1,
		StateDir:         t.TempDir(),
		ProgressInterval: 256,
		CheckpointEvery:  512,
		RetryBase:        time.Hour, // park the retry: the test must cancel it
		Chaos:            chaos.Spec{Seed: 5, KillCycle: killAt, Kills: 1},
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
	// Wait until attempt 1 has failed — the job is now inside its one-hour
	// backoff sleep.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		job.mu.Lock()
		failed, st := job.failedAttempts, job.state
		job.mu.Unlock()
		if failed >= 1 {
			break
		}
		if st != StateQueued && st != StateRunning {
			t.Fatalf("job reached %s before the injected kill", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("injected kill never fired (state %s)", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if ok, err := s.Cancel(job.ID); err != nil || !ok {
		t.Fatalf("Cancel(mid-backoff) = %v, %v", ok, err)
	}
	waitState(t, s, job.ID, StateCanceled, time.Minute)

	st := s.Snapshot()
	if st.Retries != 0 {
		t.Errorf("retries = %d after cancel-during-backoff, want 0 (no retry may fire after cancel)", st.Retries)
	}
	if st.Canceled != 1 {
		t.Errorf("canceled counter = %d, want 1", st.Canceled)
	}
	job.mu.Lock()
	errMsg := job.errMsg
	job.mu.Unlock()
	if !strings.Contains(errMsg, "canceled during retry backoff") {
		t.Errorf("cancel-during-backoff error %q lacks the backoff marker", errMsg)
	}
}

// TestScanJobsQuarantinesCorruptEntries plants a corrupt persisted job next
// to a valid one: boot must succeed, set the damaged entry aside as
// *.corrupt, and recover the healthy job untouched.
func TestScanJobsQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("SPL", "", "serial")
	r, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}

	good := filepath.Join(dir, "jobs", "j000001")
	os.MkdirAll(good, 0o755)
	pj, _ := json.Marshal(persistedJob{ID: "j000001", Digest: r.digest, Spec: spec})
	os.WriteFile(filepath.Join(good, "job.json"), pj, 0o644)

	bad := filepath.Join(dir, "jobs", "j000002")
	os.MkdirAll(bad, 0o755)
	os.WriteFile(filepath.Join(bad, "job.json"), []byte("{truncated garbag"), 0o644)

	s, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("New must survive a corrupt persisted job: %v", err)
	}
	if _, ok := s.Job("j000001"); !ok {
		t.Errorf("healthy job not recovered alongside the corrupt one")
	}
	if _, ok := s.Job("j000002"); ok {
		t.Errorf("corrupt job recovered as if valid")
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Errorf("corrupt job dir not set aside: %v", err)
	}
	// A second boot must not trip over the quarantined leftovers.
	if _, err := New(Config{Workers: 1, StateDir: dir}); err != nil {
		t.Errorf("reboot over quarantined leftovers: %v", err)
	}
}

// plantCheckpoints runs spec until budget cycles into dir the way a daemon
// attempt would (interval metrics on), leaving its periodic checkpoints
// and the final snapshot the budget kill flushes.
func plantCheckpoints(t *testing.T, spec JobSpec, dir string, budget int64) {
	t.Helper()
	r, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	_, err = crisp.RunSpec(context.Background(), r.spec, nil,
		crisp.WithMetrics(256), crisp.WithCheckpointDir(dir), crisp.WithCheckpointEvery(512), crisp.WithCycleBudget(budget))
	if err == nil {
		t.Fatalf("budget %d did not interrupt the run", budget)
	}
	if newestCycle(t, r.digest, dir) < 0 {
		t.Fatalf("no checkpoint planted in %s", dir)
	}
}

// newestCycle is the header cycle of job's newest snapshot in dirs, the
// one the resume scan tries first (-1 = none).
func newestCycle(t *testing.T, job string, dirs ...string) int64 {
	t.Helper()
	for _, path := range snapshot.Candidates(dirs...) {
		if hdr, err := snapshot.PeekHeader(path); err == nil && hdr.SpecDigest == job {
			return hdr.Cycle
		}
	}
	return -1
}

// TestRestartAcrossCheckpointLayouts boots over a state dir holding a job
// whose two attempt directories (a1, a2) both hold checkpoints: it must
// resume from the newest one and finish bit-identical to an uninterrupted
// run.
func TestRestartAcrossCheckpointLayouts(t *testing.T) {
	if testing.Short() {
		t.Skip("restart round trip is not short")
	}
	dir := t.TempDir()
	spec := tinySpec("SPL", "VIO", "MPS")
	r, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	jdir := filepath.Join(dir, "jobs", "j000001")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	pj, _ := json.Marshal(persistedJob{ID: "j000001", Digest: r.digest, Spec: spec})
	if err := os.WriteFile(filepath.Join(jdir, "job.json"), pj, 0o644); err != nil {
		t.Fatal(err)
	}
	direct := directRun(t, spec)
	if direct.Cycles < 4096 {
		t.Skipf("run too short to checkpoint twice (%d cycles)", direct.Cycles)
	}
	plantCheckpoints(t, spec, filepath.Join(jdir, "a1"), direct.Cycles/4)
	plantCheckpoints(t, spec, filepath.Join(jdir, "a2"), direct.Cycles/2)

	s, err := New(Config{Workers: 1, StateDir: dir, ProgressInterval: 256, CheckpointEvery: 512})
	if err != nil {
		t.Fatalf("New over two attempt directories: %v", err)
	}
	job, ok := s.Job("j000001")
	if !ok {
		t.Fatal("job not recovered")
	}
	a2At := newestCycle(t, r.digest, filepath.Join(jdir, "a2"))
	if got := newestCycle(t, r.digest, attemptDirs(job.task.dir)...); got != a2At {
		t.Errorf("newest checkpoint at cycle %d, want a2's at %d", got, a2At)
	}
	s.Start()
	defer s.Drain(context.Background())
	waitState(t, s, "j000001", StateDone, 2*time.Minute)
	sr, ok := s.Result(r.digest)
	if !ok {
		t.Fatal("no cached result")
	}
	dd, _ := direct.StatsDigest()
	if !sr.Resumed {
		t.Error("job re-simulated from cycle 0")
	}
	if sr.Cycles != direct.Cycles || sr.StatsDigest != fmt.Sprintf("%016x", dd) {
		t.Errorf("job resumed to (cycles %d, digest %s), direct run (cycles %d, digest %016x)",
			sr.Cycles, sr.StatsDigest, direct.Cycles, dd)
	}
	if got, want := resumeMarkers(job), []string{fmt.Sprintf("resuming from checkpoint at cycle %d", a2At)}; !reflect.DeepEqual(got, want) {
		t.Errorf("timeline resume markers %q, want %q", got, want)
	}
}

// TestResumeFallsBackAcrossAttemptDirs boots over a job whose newest
// attempt directory (a2) holds only checkpoints with intact headers and
// truncated bodies, as chaos corrupt=truncate leaves them, and whose older
// one (a1) holds readable ones. In-process and isolated alike, the attempt
// must pass over a2's files, resume from a1's newest to the uninterrupted
// run's digest, and be the only thing that reports a resume: one on the
// timeline and on /metrics, with the passed-over files one fallback.
func TestResumeFallsBackAcrossAttemptDirs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec := tinySpec("", "HOLO", "EVEN")
	r, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	clean := directRun(t, spec)
	cd, _ := clean.StatsDigest()
	for _, isolate := range []bool{false, true} {
		dir := t.TempDir()
		jdir := filepath.Join(dir, "jobs", "j000001")
		plantCheckpoints(t, spec, filepath.Join(jdir, "a1"), clean.Cycles/3)
		plantCheckpoints(t, spec, filepath.Join(jdir, "a2"), 2*clean.Cycles/3)
		a1At := newestCycle(t, r.digest, filepath.Join(jdir, "a1"))
		damaged := snapshot.Candidates(filepath.Join(jdir, "a2"))
		for _, path := range damaged {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			hdr := strings.IndexByte(string(raw), '\n') + 1
			if err := os.WriteFile(path, raw[:hdr+(len(raw)-hdr)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got := newestCycle(t, r.digest, attemptDirs(jdir)...); got <= a1At {
			t.Fatalf("isolate=%v: a2's damaged checkpoints rank at %d, not above a1's %d", isolate, got, a1At)
		}
		pj, _ := json.Marshal(persistedJob{ID: "j000001", Digest: r.digest, Spec: spec})
		if err := os.WriteFile(filepath.Join(jdir, "job.json"), pj, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := New(Config{Workers: 1, StateDir: dir, ProgressInterval: 256, CheckpointEvery: 512, Isolate: isolate})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.Start()
		job := waitState(t, s, "j000001", StateDone, 2*time.Minute)
		s.Drain(context.Background())
		sr, ok := s.Result(r.digest)
		if !ok {
			t.Fatalf("isolate=%v: no cached result", isolate)
		}
		if !sr.Resumed || sr.Cycles != clean.Cycles || sr.StatsDigest != fmt.Sprintf("%016x", cd) {
			t.Errorf("isolate=%v: got (resumed %v, cycles %d, stats %s), want a resume to the clean run's (%d, %016x)",
				isolate, sr.Resumed, sr.Cycles, sr.StatsDigest, clean.Cycles, cd)
		}
		// The done job's directory is gone; its resume point and the
		// fallback count say which files the scan passed over.
		if got, want := resumeMarkers(job), []string{fmt.Sprintf("resuming from checkpoint at cycle %d", a1At)}; !reflect.DeepEqual(got, want) {
			t.Errorf("isolate=%v: timeline resume markers %q, want %q", isolate, got, want)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, line := range []string{"crispd_fleet_resumes_total 1\n", "crispd_checkpoint_fallbacks_total 1\n", "crispd_retries_total 0\n"} {
			if !strings.Contains(rec.Body.String(), line) {
				t.Errorf("isolate=%v: /metrics lacks %q", isolate, strings.TrimSpace(line))
			}
		}
	}
}

// resumeMarkers lists the resume markers on a job's timeline.
func resumeMarkers(j *Job) (details []string) {
	for _, ev := range j.hub.Events(0, 0) {
		if ev.Kind == obs.TimelineAttempt && strings.HasPrefix(ev.Detail, "resuming") {
			details = append(details, ev.Detail)
		}
	}
	return details
}

// plantVersion1 leaves in dir what a build before snapshot format version 2
// left: a final.crispsnap this build refuses by its header line (which is
// all of the file the refusal reads).
func plantVersion1(t *testing.T, dir string) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "final"+snapshot.Ext)
	hdr := `{"magic":"crispsnap","version":1,"cycle":4096,"policy":"EVEN","scene":"SPL","compute":"VIO","body_len":0,"body_fnv":0}` + "\n"
	if err := os.WriteFile(path, []byte(hdr), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRestartAcrossFormatVersions boots over a state dir whose drained job
// holds only a version-1 final.crispsnap: across the upgrade progress is
// lost, the job is not. The boot succeeds, the job is re-registered and
// runs from cycle 0 to the digest a fresh submission gets, and the refused
// file is set aside and counted as one checkpoint fallback.
func TestRestartAcrossFormatVersions(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("SPL", "VIO", "EVEN")
	r, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	jdir := filepath.Join(dir, "jobs", "j000001")
	old := plantVersion1(t, filepath.Join(jdir, "a1"))
	pj, _ := json.Marshal(persistedJob{ID: "j000001", Digest: r.digest, Spec: spec})
	if err := os.WriteFile(filepath.Join(jdir, "job.json"), pj, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 1, StateDir: dir, ProgressInterval: 256, CheckpointEvery: 512})
	if err != nil {
		t.Fatalf("New over a version-1 state dir: %v", err)
	}
	job, ok := s.Job("j000001")
	if !ok {
		t.Fatal("job not re-registered")
	}
	if got := newestCycle(t, r.digest, attemptDirs(job.task.dir)...); got >= 0 {
		t.Fatalf("newest checkpoint at cycle %d, want none: the only snapshot is version 1", got)
	}
	s.Start()
	defer s.Drain(context.Background())
	waitState(t, s, "j000001", StateDone, 2*time.Minute)
	sr, ok := s.Result(r.digest)
	if !ok {
		t.Fatal("no cached result")
	}
	direct := directRun(t, spec)
	dd, _ := direct.StatsDigest()
	if sr.Resumed || sr.Cycles != direct.Cycles || sr.StatsDigest != fmt.Sprintf("%016x", dd) {
		t.Errorf("got (resumed %v, cycles %d, digest %s), want a run from cycle 0 equal to the direct one (cycles %d, digest %016x)",
			sr.Resumed, sr.Cycles, sr.StatsDigest, direct.Cycles, dd)
	}
	if st := s.Snapshot(); st.CheckpointFallbacks != 1 || st.Retries != 0 || st.Fleet.FleetResumes != 0 {
		t.Errorf("fallbacks = %d, retries = %d, resumes = %d; want the refused file counted once, no retry and no resume",
			st.CheckpointFallbacks, st.Retries, st.Fleet.FleetResumes)
	}

	if got := resumeMarkers(job); len(got) != 0 {
		t.Errorf("timeline announces resumes that did not happen: %q", got)
	}

	// The finished job's directory is gone, so watch the set-aside itself
	// on a directory of our own: the same call the attempt above made.
	again := plantVersion1(t, filepath.Join(dir, "again", "a1"))
	env, aside, _ := snapshot.LoadNewest(r.digest, attemptDirs(filepath.Join(dir, "again"))...)
	if env != nil || len(aside) != 1 || aside[0] != again {
		t.Errorf("LoadNewest = %v, set aside %v; want nothing loaded and [%s] set aside", env != nil, aside, again)
	}
	if _, err := os.Stat(again + ".corrupt"); err != nil {
		t.Errorf("refused snapshot not set aside: %v", err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Errorf("the restarted job's version-1 file is still there: %v", err)
	}
}

// TestForeignVersionCheckpointIsNotAResume: a task directory holding only a
// snapshot this build refuses is not a handoff point — the sweep must not
// count a checkpoint resume or announce one it cannot perform.
func TestForeignVersionCheckpointIsNotAResume(t *testing.T) {
	s, err := New(Config{Workers: 1, FleetWorkers: 1, StateDir: t.TempDir(), ProgressInterval: 256, CheckpointEvery: 512})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sw, err := s.SubmitSweep(SweepSpec{Scenes: []string{"SPL"}, Computes: []string{"VIO"}, Policies: []string{"EVEN"}, Width: 128, Height: 72})
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	plantVersion1(t, filepath.Join(sw.tasks[0].dir, "a1"))
	s.Start()
	defer s.Drain(context.Background())
	v := waitSweep(t, s, sw.ID, StateDone, 2*time.Minute)
	if v.Resumes != 0 {
		t.Errorf("checkpoint_resumes = %d, want 0", v.Resumes)
	}
	for _, ev := range sw.hub.Events(0, 0) {
		if strings.Contains(ev.Detail, "resuming") {
			t.Errorf("timeline announces a resume that cannot happen: %q", ev.Detail)
		}
	}
	if st := s.Snapshot(); st.CheckpointFallbacks != 1 {
		t.Errorf("fallbacks = %d, want the refused file counted once", st.CheckpointFallbacks)
	}
}
