package main

import (
	"path/filepath"
	"strings"
	"testing"

	"crisp"
	"crisp/internal/core"
	"crisp/internal/scenario"
	"crisp/internal/trace"
)

// TestReplayReproducesLiveRuns: traces collected, saved and loaded back,
// then replayed, are the run the simulator makes from the named workloads —
// a replay is a job like any other, not a second way to assemble a GPU.
func TestReplayReproducesLiveRuns(t *testing.T) {
	cfg := crisp.JetsonOrin()
	opts := crisp.DefaultRenderOptions()
	opts.W, opts.H = 128, 72
	dir := t.TempDir()
	file := func(scene, compute string) string {
		kernels, err := collected(scene, compute, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, scene+compute+".trace.gz")
		if err := trace.SaveFile(path, kernels); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spl, vio := file("SPL", ""), file("", "VIO")

	replay := func(policy core.PolicyKind, paths ...string) (*core.Job, *core.Result) {
		t.Helper()
		job, err := replayJob(cfg, policy, paths)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return job, res
	}
	same := func(what string, got, want *core.Result) {
		t.Helper()
		gd, _ := got.StatsDigest()
		wd, _ := want.StatsDigest()
		if got.Cycles != want.Cycles || gd != wd {
			t.Errorf("%s: replay %d cycles / %016x, live %d cycles / %016x", what, got.Cycles, gd, want.Cycles, wd)
		}
	}

	for _, pol := range []core.PolicyKind{core.PolicyEven, core.PolicyMPS, core.PolicyTAP} {
		live, err := core.RunPair(cfg, "SPL", "VIO", pol, opts)
		if err != nil {
			t.Fatal(err)
		}
		job, res := replay(pol, spl, vio)
		same("spl vio under "+string(pol), res, live)

		// The report lists tasks in task order, the same every run.
		summary := replaySummary(job, res)
		if _, again := replay(pol, spl, vio); replaySummary(job, again) != summary {
			t.Errorf("%s: two replays report differently:\n%s", pol, summary)
		}
		if i0, i1 := strings.Index(summary, "\n0 "), strings.Index(summary, "\n1 "); i0 < 0 || i1 < i0 {
			t.Errorf("%s: tasks out of order:\n%s", pol, summary)
		}
	}

	// A graphics file at task 1 gets the batch window every render tenant
	// gets, so "replay vio spl" is the mix {VIO, SPL}.
	mix := scenario.MixSpec{Name: "vio-spl", Tenants: []scenario.Tenant{
		{Name: "VIO", Compute: "VIO"}, {Name: "SPL", Scene: "SPL"},
	}}
	live, err := core.RunMix(cfg, mix, core.PolicyEven, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, res := replay(core.PolicyEven, vio, spl)
	same("vio spl under EVEN", res, live)
}
