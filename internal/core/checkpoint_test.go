package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"crisp/internal/config"
	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/snapshot"
)

// statsDigestOf fails the test on digest error so call sites stay one line.
func statsDigestOf(t *testing.T, r *Result) uint64 {
	t.Helper()
	d, err := r.StatsDigest()
	if err != nil {
		t.Fatalf("StatsDigest: %v", err)
	}
	return d
}

// countPeriodic counts ckpt-*.crispsnap files in dir (final.crispsnap is
// exempt from retention and not counted).
func countPeriodic(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ckpt-") && strings.HasSuffix(e.Name(), snapshot.Ext) {
			n++
		}
	}
	return n
}

// TestCheckpointResumeRoundTrip is the tentpole acceptance test: for every
// partitioning policy, and for both a render-only and a concurrent
// render+compute pair, an interrupted run resumed from its on-disk snapshot
// must finish bit-identical — same cycle count, same stats digest, and a
// digest series consistent with the uninterrupted run's — with restore going
// through the full file round trip (encode → gzip → disk → decode).
func TestCheckpointResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy × workload resume matrix is not short")
	}
	workloads := []struct {
		name, scene, compute string
	}{
		{"render-only", "SPL", ""},
		{"render+compute", "SPL", "VIO"},
	}
	for _, wl := range workloads {
		for _, pol := range PolicyKinds() {
			wl, pol := wl, pol
			t.Run(wl.name+"/"+string(pol), func(t *testing.T) {
				t.Parallel()
				// Probe the run length first so every cadence scales with it:
				// the tiny test scenes complete in a few thousand cycles.
				probe, err := RunPair(config.JetsonOrin(), wl.scene, wl.compute, pol, tinyOpts())
				if err != nil {
					t.Fatalf("probe run: %v", err)
				}
				if probe.Cycles < 64 {
					t.Fatalf("baseline too short to interrupt meaningfully: %d cycles", probe.Cycles)
				}
				digestEvery := max(1, probe.Cycles/16)
				base, err := RunPair(config.JetsonOrin(), wl.scene, wl.compute, pol, tinyOpts(),
					WithStateDigest(digestEvery))
				if err != nil {
					t.Fatalf("baseline run: %v", err)
				}

				// Interrupt mid-run via the cycle budget, checkpointing all the way.
				dir := t.TempDir()
				_, err = RunPair(config.JetsonOrin(), wl.scene, wl.compute, pol, tinyOpts(),
					WithStateDigest(digestEvery),
					WithCheckpointDir(dir),
					WithCheckpointEvery(max(1, base.Cycles/8)),
					WithCycleBudget(base.Cycles/2))
				se, ok := robust.AsSimError(err)
				if !ok || se.Kind != robust.KindBudget {
					t.Fatalf("interrupted run: err = %v, want budget SimError", err)
				}
				if _, err := os.Stat(filepath.Join(dir, "final.crispsnap")); err != nil {
					t.Fatalf("no final snapshot next to the failure: %v", err)
				}
				if n := countPeriodic(t, dir); n > snapshot.DefaultRetain {
					t.Errorf("retention kept %d periodic checkpoints, want <= %d", n, snapshot.DefaultRetain)
				}

				// Resume from disk and run to completion.
				res, err := ResumeFile(context.Background(), dir)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if !res.Resumed || res.ResumedFrom <= 0 {
					t.Errorf("Resumed/ResumedFrom = %v/%d, want true/>0", res.Resumed, res.ResumedFrom)
				}
				if res.Cycles != base.Cycles {
					t.Errorf("resumed run finished at cycle %d, uninterrupted at %d", res.Cycles, base.Cycles)
				}
				if got, want := statsDigestOf(t, res), statsDigestOf(t, base); got != want {
					t.Errorf("stats digest mismatch after resume: %#x != %#x", got, want)
				}
				if len(res.Digests) == 0 {
					t.Fatalf("resumed run produced no digests (spec should re-arm the auditor)")
				}
				if c, diverged := snapshot.FirstDivergence(base.Digests, res.Digests); diverged {
					t.Errorf("state digests diverge at cycle %d", c)
				}
			})
		}
	}
}

// TestResumedSamplesMatchUninterrupted: from a resume on, the interval
// series is the uninterrupted run's, sample for sample. The checkpoint used
// to drop the metrics baseline's stall vector, so the first sample after
// every resume reported cumulative stalls as one interval's. Host counters
// (StepsExecuted and the like) restart at a resume by design and are not
// compared.
func TestResumedSamplesMatchUninterrupted(t *testing.T) {
	run := func(opts ...RunOption) (*Result, error) {
		return RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts(), append(opts, WithMetrics(2048))...)
	}
	clean, err := run()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]obs.SeriesPoint, len(clean.Metrics.Samples))
	for _, s := range clean.Metrics.Samples {
		want[s.Cycle] = s.Points
	}

	dir := t.TempDir()
	if _, err := run(WithCheckpointDir(dir), WithCycleBudget(clean.Cycles/2)); err == nil {
		t.Fatal("budgeted run completed; expected an interrupt leaving a snapshot")
	}
	res, err := ResumeFile(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Samples) == 0 {
		t.Fatal("resumed run sampled nothing")
	}
	for _, s := range res.Metrics.Samples {
		if w, ok := want[s.Cycle]; !ok {
			t.Errorf("resumed sample at cycle %d; the uninterrupted run has none there", s.Cycle)
		} else if !reflect.DeepEqual(s.Points, w) {
			t.Errorf("cycle %d: resumed points %+v\nuninterrupted %+v", s.Cycle, s.Points, w)
		}
	}
}

// TestIndependentRunsDigestIdentical asserts the determinism half of the
// auditor: two independent runs of the same concurrent job produce the same
// digest at every sampled cycle, and a mismatch would name the first
// divergent cycle.
func TestIndependentRunsDigestIdentical(t *testing.T) {
	run := func() *Result {
		res, err := RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts(),
			WithStateDigest(512))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Digests) == 0 || len(a.Digests) != len(b.Digests) {
		t.Fatalf("digest series lengths %d vs %d, want equal and nonzero", len(a.Digests), len(b.Digests))
	}
	if c, diverged := snapshot.FirstDivergence(a.Digests, b.Digests); diverged {
		t.Fatalf("independent runs diverge at cycle %d", c)
	}
	if da, db := statsDigestOf(t, a), statsDigestOf(t, b); da != db {
		t.Fatalf("stats digests differ across independent runs: %#x != %#x", da, db)
	}
}

// TestWatchdogLeavesResumableSnapshot asserts crash-dump/snapshot
// co-emission: a watchdog-killed run leaves both a dump (attached to the
// SimError) and a final snapshot, and resuming that snapshot with the
// watchdog disabled completes at exactly the clean run's cycle count.
func TestWatchdogLeavesResumableSnapshot(t *testing.T) {
	base, err := RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	dir := t.TempDir()
	_, err = RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts(),
		WithCheckpointDir(dir), WithWatchdog(4))
	se, ok := robust.AsSimError(err)
	if !ok || se.Kind != robust.KindWatchdog {
		t.Fatalf("err = %v, want watchdog SimError", err)
	}
	if se.Dump == nil {
		t.Errorf("watchdog SimError carries no crash dump")
	}
	final := filepath.Join(dir, "final.crispsnap")
	if _, err := os.Stat(final); err != nil {
		t.Fatalf("watchdog kill left no final snapshot: %v", err)
	}

	res, err := ResumeFile(context.Background(), final, WithWatchdog(-1))
	if err != nil {
		t.Fatalf("resume after watchdog kill: %v", err)
	}
	if res.Cycles != base.Cycles {
		t.Errorf("resumed completion at cycle %d, clean run at %d", res.Cycles, base.Cycles)
	}
	if got, want := statsDigestOf(t, res), statsDigestOf(t, base); got != want {
		t.Errorf("stats digest mismatch after watchdog resume: %#x != %#x", got, want)
	}
}

// TestCheckpointTimingsReported asserts the Result exposes checkpoint save
// accounting when checkpointing is armed.
func TestCheckpointTimingsReported(t *testing.T) {
	dir := t.TempDir()
	res, err := RunPair(config.JetsonOrin(), "SPL", "", PolicySerial, tinyOpts(),
		WithCheckpointDir(dir), WithCheckpointEvery(1000))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.CheckpointSaves == 0 {
		t.Fatalf("no checkpoint saves recorded over %d cycles at a 20k interval", res.Cycles)
	}
	if res.CheckpointSaveTime <= 0 {
		t.Errorf("CheckpointSaveTime = %v, want > 0", res.CheckpointSaveTime)
	}
}

// TestResumeRejectsIncompleteSpec asserts a snapshot of a job built from
// in-memory traces refuses resume with a structured snapshot error rather
// than misbehaving.
func TestResumeRejectsIncompleteSpec(t *testing.T) {
	if _, err := jobFromSpec(snapshot.Spec{Policy: "EVEN"}, MixEnv{}); err == nil {
		t.Fatalf("jobFromSpec accepted an incomplete spec")
	} else if se, ok := robust.AsSimError(resumeErr(err)); !ok || se.Kind != robust.KindSnapshot {
		t.Fatalf("err = %v, want snapshot SimError", err)
	}
}

// TestRestoreRefusesForeignJob: a snapshot is a resume point only for the
// job that wrote it. State restored into other workloads, another policy or
// another configuration used to run to completion and report numbers that
// belong to neither job; it is a snapshot SimError at every entry, before
// anything runs.
func TestRestoreRefusesForeignJob(t *testing.T) {
	dir := t.TempDir()
	if _, err := RunPair(config.JetsonOrin(), "", "VIO", PolicyMPS, tinyOpts(),
		WithCheckpointDir(dir), WithCycleBudget(4000)); err == nil {
		t.Fatal("budgeted run succeeded; expected an interrupt leaving a snapshot")
	}
	env, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := func(what string, err error) {
		t.Helper()
		if se, ok := robust.AsSimError(err); !ok || se.Kind != robust.KindSnapshot {
			t.Errorf("%s: err = %v, want a snapshot SimError", what, err)
		}
	}

	other := SpecForPair(config.JetsonOrin(), "", "HOLO", PolicyEven, tinyOpts())
	_, err = RunSpec(context.Background(), other, env)
	want("RunSpec of another job", err)

	j, err := jobFromSpec(other, MixEnv{})
	if err != nil {
		t.Fatal(err)
	}
	j.Restore = env
	_, err = j.Run()
	want("Job{Restore: foreign}.Run", err)

	// The snapshot's own job on another machine: nothing but the config moved.
	j, err = jobFromSpec(env.Spec, MixEnv{})
	if err != nil {
		t.Fatal(err)
	}
	j.GPU.DRAMLatency *= 2
	j.Restore = env
	_, err = j.Run()
	want("the same workloads on another config", err)

	// Its own job — observability cadences changed, which key nothing — resumes.
	clean, err := RunPair(config.JetsonOrin(), "", "VIO", PolicyMPS, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSpec(context.Background(), SpecForPair(config.JetsonOrin(), "", "VIO", PolicyMPS, tinyOpts()), env, WithMetrics(512))
	if err != nil {
		t.Fatalf("resume of the snapshot's own job: %v", err)
	}
	if !res.Resumed || res.Cycles != clean.Cycles || statsDigestOf(t, res) != statsDigestOf(t, clean) {
		t.Errorf("resumed %v to %d cycles / %016x, the clean run takes %d / %016x",
			res.Resumed, res.Cycles, statsDigestOf(t, res), clean.Cycles, statsDigestOf(t, clean))
	}
}

// TestFreshRunErrorsAreTheCatalogs: an unknown name on a fresh run is the
// caller's typo, reported by the catalog that does not know it; only a
// resume turns the same failure into a snapshot error.
func TestFreshRunErrorsAreTheCatalogs(t *testing.T) {
	for _, spec := range []snapshot.Spec{
		SpecForPair(config.JetsonOrin(), "NO_SUCH_SCENE", "", PolicyEven, tinyOpts()),
		SpecForPair(config.JetsonOrin(), "", "NO_SUCH_KERNEL", PolicyEven, tinyOpts()),
		SpecForPair(config.JetsonOrin(), "", "HOLO", "NO_SUCH_POLICY", tinyOpts()),
	} {
		_, err := RunSpec(context.Background(), spec, nil)
		if err == nil {
			t.Fatalf("%s+%s/%s ran", spec.Scene, spec.Compute, spec.Policy)
		}
		if _, ok := robust.AsSimError(err); ok || strings.Contains(err.Error(), "snapshot") {
			t.Errorf("fresh-run error speaks of snapshots: %v", err)
		}
		_, err = RunSpec(context.Background(), spec, &snapshot.Envelope{Spec: spec})
		if se, ok := robust.AsSimError(err); !ok || se.Kind != robust.KindSnapshot {
			t.Errorf("the same spec resumed: err = %v, want a snapshot SimError", err)
		}
	}
}
