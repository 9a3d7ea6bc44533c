package sm_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/gpu"
	"crisp/internal/partition"
	"crisp/internal/render"
	"crisp/internal/sm"
)

// pairWorkers is the parallel engine's worker count for the buffered runs:
// CRISP_PARITY_WORKERS where CI's parallel-parity job sets it, else 8.
func pairWorkers(t *testing.T) int {
	if v := os.Getenv("CRISP_PARITY_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			t.Fatalf("CRISP_PARITY_WORKERS=%q: want an integer >= 2", v)
		}
		return n
	}
	return 8
}

// TestStallReplayOnRenderComputePair runs a rendered frame beside a compute
// workload under an intra-SM split, so that both tasks' warps share every
// scheduler, on the real engines — serial (direct effects) and parallel
// (buffered, phase-B fill commits) — under GTO and LRR, with the replay
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
	run := func(workers int, sched sm.SchedPolicy, noSkip bool) (cycles, replays, checks int64) {
		t.Helper()
		g, err := gpu.New(config.JetsonOrin())
		if err != nil {
			t.Fatal(err)
		}
		g.Workers, g.NoSkip = workers, noSkip
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
		return cycles, g.StallReplays(), n.Load()
	}
	for _, sched := range []sm.SchedPolicy{sm.SchedGTO, sm.SchedLRR} {
		oracle, replays, _ := run(1, sched, true)
		if replays != 0 {
			t.Errorf("sched %d: the oracle replayed %d stalls", sched, replays)
		}
		for _, workers := range []int{1, pairWorkers(t)} {
			label := fmt.Sprintf("sched %d -j%d", sched, workers)
			cycles, replays, checks := run(workers, sched, false)
			if cycles != oracle {
				t.Errorf("%s: %d cycles, the oracle %d", label, cycles, oracle)
			}
			if replays == 0 || checks < replays {
				t.Errorf("%s: %d stalls replayed, %d checked", label, replays, checks)
			}
			t.Logf("%s: %d cycles, %d stalls replayed, %d checks", label, cycles, replays, checks)
		}
	}
}
