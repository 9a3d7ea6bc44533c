package core

import (
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/gpu"
)

func TestTaskOfMultiCompute(t *testing.T) {
	if TaskOf(0) != 0 || TaskOf(ComputeStreamBase-1) != 0 {
		t.Error("graphics streams misclassified")
	}
	if TaskOf(1*ComputeStreamBase) != 1 || TaskOf(2*ComputeStreamBase) != 2 || TaskOf(3*ComputeStreamBase) != 3 {
		t.Error("compute streams misclassified")
	}
}

func TestThreeTaskJob(t *testing.T) {
	gfx, err := RenderScene("PL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	vio, _ := compute.ByName("VIO", 0)
	holo, _ := compute.ByName("HOLO", 0)
	for _, pol := range []PolicyKind{PolicySerial, PolicyMPS, PolicyEven} {
		job := Job{
			GPU:      config.JetsonOrin(),
			Graphics: gfx,
			Computes: []*compute.Workload{vio, holo},
			Policy:   pol,
		}
		res, err := job.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		for task := 0; task < 3; task++ {
			st, ok := res.PerTask[task]
			if !ok || st.WarpInsts == 0 {
				t.Errorf("%s: task %d missing or idle", pol, task)
			}
		}
	}
}

// TestNWayPoliciesAcceptThreeTasks pins the scenario-engine extension:
// every policy takes the task count and runs three-task jobs to completion.
func TestNWayPoliciesAcceptThreeTasks(t *testing.T) {
	gfx, err := RenderScene("PL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	vio, _ := compute.ByName("VIO", 0)
	holo, _ := compute.ByName("HOLO", 0)
	for _, pol := range []PolicyKind{PolicyMiG, PolicyWarpedSlicer, PolicyTAP, PolicyPriority} {
		job := Job{
			GPU:      config.JetsonOrin(),
			Graphics: gfx,
			Computes: []*compute.Workload{vio, holo},
			Policy:   pol,
		}
		res, err := job.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		for task := 0; task < 3; task++ {
			st, ok := res.PerTask[task]
			if !ok || st.WarpInsts == 0 {
				t.Errorf("%s: task %d missing or idle", pol, task)
			}
		}
		if pol == PolicyWarpedSlicer && res.WS == nil {
			t.Error("warped-slicer state not exposed at three tasks")
		}
	}
}

func TestComputeAndComputesCompose(t *testing.T) {
	vio, _ := compute.ByName("VIO", 0)
	holo, _ := compute.ByName("HOLO", 0)
	job := Job{
		GPU:      config.JetsonOrin(),
		Compute:  vio,
		Computes: []*compute.Workload{holo},
		Policy:   PolicySerial,
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Compute becomes task 1, Computes[0] task 2.
	if res.PerTask[1] == nil || res.PerTask[2] == nil {
		t.Fatalf("tasks = %v", len(res.PerTask))
	}
	if res.PerTask[1].Label != "VIO" || res.PerTask[1].WarpInsts == 0 {
		t.Errorf("task 1 is %q with %d warp insts, want the VIO workload", res.PerTask[1].Label, res.PerTask[1].WarpInsts)
	}
	if res.PerTask[2].Label != "HOLO" {
		t.Errorf("task 2 is %q, want HOLO", res.PerTask[2].Label)
	}
}

func TestPriorityPolicyProtectsGraphics(t *testing.T) {
	gfx, err := RenderScene("SPL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	nn, _ := compute.ByName("NN", 0)
	graphicsCycles := func(pol PolicyKind) int64 {
		job := Job{GPU: config.JetsonOrin(), Graphics: gfx, Compute: nn, Policy: pol}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		var last int64
		for _, st := range res.PerStream {
			if TaskOf(st.Stream) == 0 && st.Cycles > last {
				last = st.Cycles
			}
		}
		return last
	}
	even := graphicsCycles(PolicyEven)
	prio := graphicsCycles(PolicyPriority)
	if prio > even {
		t.Errorf("graphics finished later under Priority (%d) than EVEN (%d)", prio, even)
	}
}

func TestBuildPolicyUnknown(t *testing.T) {
	g, err := gpu.New(config.JetsonOrin())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPolicy(g, "bogus", 2); err == nil {
		t.Error("unknown policy accepted")
	}
	p, err := BuildPolicy(g, PolicySerial, 2)
	if err != nil || p != nil {
		t.Error("serial should build a nil policy")
	}
}

func TestPostprocessPairings(t *testing.T) {
	gfx, err := RenderScene("PL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"UPSCALE", "ATW"} {
		comp, err := compute.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		job := Job{GPU: config.JetsonOrin(), Graphics: gfx, Compute: comp, Policy: PolicyEven}
		res, err := job.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.PerTask[1] == nil || res.PerTask[1].WarpInsts == 0 {
			t.Errorf("%s: compute task idle", name)
		}
	}
}

func TestGraphicsFramesPipelineAndWarmCaches(t *testing.T) {
	gfx, err := RenderScene("SPL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	run := func(frames int) int64 {
		job := Job{GPU: config.JetsonOrin(), Graphics: gfx, Policy: PolicySerial, GraphicsFrames: frames}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	one := run(1)
	three := run(3)
	// Warm caches + frame pipelining: three frames cost well under 3x one
	// cold frame.
	if three >= 3*one {
		t.Errorf("3 frames (%d cycles) should undercut 3x one frame (%d)", three, 3*one)
	}
	if three <= one {
		t.Errorf("3 frames (%d) can not be cheaper than one (%d)", three, one)
	}
}
