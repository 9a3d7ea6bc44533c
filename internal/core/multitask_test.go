package core

import (
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/gpu"
	"crisp/internal/scenario"
)

func TestTaskOfMultiCompute(t *testing.T) {
	if TaskOf(0) != 0 || TaskOf(ComputeStreamBase-1) != 0 {
		t.Error("graphics streams misclassified")
	}
	if TaskOf(1*ComputeStreamBase) != 1 || TaskOf(2*ComputeStreamBase) != 2 || TaskOf(3*ComputeStreamBase) != 3 {
		t.Error("compute streams misclassified")
	}
}

// threeTenants is the more-than-two-workloads job: a frame beside two
// compute services, one tenant (so one task) each.
func threeTenants() scenario.MixSpec {
	return scenario.MixSpec{Name: "three", Tenants: []scenario.Tenant{
		{Scene: "PL"},
		{Compute: "VIO"},
		{Compute: "HOLO"},
	}}
}

// threeTaskPins are the three-task job's cycles and stats digests per
// policy, as measured when the third task was a field of the pair job
// (task 2 after the pair's two): a tenant mix runs the same simulation.
var threeTaskPins = map[PolicyKind]struct {
	cycles int64
	digest uint64
}{
	PolicySerial:       {13568, 0x829d8be5186a4412},
	PolicyMPS:          {18680, 0x5d7b31e38677faea},
	PolicyMiG:          {24897, 0x3aa18e08d4b7f035},
	PolicyEven:         {20053, 0x7cbb8fcb6bdd7ce5},
	PolicyWarpedSlicer: {39030, 0x0dc2e684897a768c},
	PolicyTAP:          {19789, 0x91c22cfb9a1ae7e9},
	PolicyPriority:     {20053, 0x7cbb8fcb6bdd7ce5},
}

// runThreeTenants runs threeTenants under pol and checks it against its
// pin and that every task did work.
func runThreeTenants(t *testing.T, fe *Frontend, pol PolicyKind) *Result {
	t.Helper()
	res, err := RunMix(config.JetsonOrin(), threeTenants(), pol, tinyOpts(), WithFrontend(fe))
	if err != nil {
		t.Fatalf("%s: %v", pol, err)
	}
	pin := threeTaskPins[pol]
	if got := statsDigestOf(t, res); got != pin.digest || res.Cycles != pin.cycles {
		t.Errorf("%s: stats digest %016x after %d cycles, pinned %016x after %d",
			pol, got, res.Cycles, pin.digest, pin.cycles)
	}
	for task := 0; task < 3; task++ {
		st, ok := res.PerTask[task]
		if !ok || st.WarpInsts == 0 {
			t.Errorf("%s: task %d missing or idle", pol, task)
		}
	}
	return res
}

func TestThreeTaskJob(t *testing.T) {
	fe := NewFrontend()
	for _, pol := range []PolicyKind{PolicySerial, PolicyMPS, PolicyEven} {
		runThreeTenants(t, fe, pol)
	}
}

// TestNWayPoliciesAcceptThreeTasks pins the scenario-engine extension:
// every policy takes the task count and runs three-task jobs to completion.
func TestNWayPoliciesAcceptThreeTasks(t *testing.T) {
	fe := NewFrontend()
	for _, pol := range []PolicyKind{PolicyMiG, PolicyWarpedSlicer, PolicyTAP, PolicyPriority} {
		res := runThreeTenants(t, fe, pol)
		if pol == PolicyWarpedSlicer && res.WS == nil {
			t.Error("warped-slicer state not exposed at three tasks")
		}
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
