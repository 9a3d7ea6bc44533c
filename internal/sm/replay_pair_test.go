package sm_test

import (
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/gpu"
	"crisp/internal/partition"
	"crisp/internal/render"
	"crisp/internal/sm"
)

// TestStallReplayOnRenderComputePair runs a rendered frame beside a compute
// workload under an intra-SM split, so that both tasks' warps share every
// scheduler, through the GPU's run loop under GTO and LRR, with the replay
// check on every core: each replayed slot re-runs the scan it skipped.
// Every run must also land on the cycle count of the -no-skip oracle,
// which keeps no stall record.
func TestStallReplayOnRenderComputePair(t *testing.T) {
	opts := render.DefaultOptions()
	opts.W, opts.H = 128, 72
	frame, err := core.RenderScene("SPL", opts)
	if err != nil {
		t.Fatal(err)
	}
	vio, err := compute.ByName("VIO", core.ComputeStreamBase)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sched sm.SchedPolicy, noSkip bool) (cycles, replays, checks int64) {
		t.Helper()
		g, err := gpu.New(config.JetsonOrin())
		if err != nil {
			t.Fatal(err)
		}
		g.NoSkip = noSkip
		g.SetWarpScheduler(sched)
		g.TaskWindows[partition.TaskGraphics] = 32
		for _, st := range frame.Streams {
			if err := g.AddStream(gpu.StreamDef{ID: st.Stream, Task: partition.TaskGraphics, Label: st.Label, Kernels: st.Kernels}); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.AddStream(gpu.StreamDef{ID: core.ComputeStreamBase, Task: 1, Label: vio.Name, Kernels: vio.Kernels}); err != nil {
			t.Fatal(err)
		}
		pol, err := core.BuildPolicy(g, core.PolicyEven, 2)
		if err != nil {
			t.Fatal(err)
		}
		g.SetPolicy(pol)
		n := sm.VerifyStallReplays(t, g.Cores()...)
		cycles, err = g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return cycles, g.StallReplays(), *n
	}
	for _, sched := range []sm.SchedPolicy{sm.SchedGTO, sm.SchedLRR} {
		oracle, replays, _ := run(sched, true)
		if replays != 0 {
			t.Errorf("sched %d: the oracle replayed %d stalls", sched, replays)
		}
		cycles, replays, checks := run(sched, false)
		if cycles != oracle {
			t.Errorf("sched %d: %d cycles, the oracle %d", sched, cycles, oracle)
		}
		if replays == 0 || checks < replays {
			t.Errorf("sched %d: %d stalls replayed, %d checked", sched, replays, checks)
		}
		t.Logf("sched %d: %d cycles, %d stalls replayed, %d checks", sched, cycles, replays, checks)
	}
}
