package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/obs"
	"crisp/internal/partition"
	"crisp/internal/render"
	"crisp/internal/trace"
)

func tinyOpts() render.Options {
	o := render.DefaultOptions()
	o.W, o.H = 128, 72
	return o
}

func TestTaskOf(t *testing.T) {
	if TaskOf(0) != partition.TaskGraphics || TaskOf(500) != partition.TaskGraphics {
		t.Error("graphics streams misclassified")
	}
	if TaskOf(ComputeStreamBase) != partition.TaskCompute {
		t.Error("compute stream misclassified")
	}
}

func TestRunPairGraphicsOnly(t *testing.T) {
	res, err := RunPair(config.JetsonOrin(), "SPL", "", PolicySerial, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.FrameTimeMS <= 0 {
		t.Fatalf("cycles=%d frame=%v", res.Cycles, res.FrameTimeMS)
	}
	if len(res.PerStream) == 0 {
		t.Fatal("no per-stream stats")
	}
	if _, ok := res.PerTask[partition.TaskGraphics]; !ok {
		t.Fatal("no graphics task stats")
	}
	if res.L2Lines == 0 {
		t.Error("empty L2 composition")
	}
	if res.L2ByClass[trace.ClassTexture] == 0 {
		t.Error("no texture lines in L2 after a rendered frame")
	}
}

func TestRunPairComputeOnly(t *testing.T) {
	res, err := RunPair(config.JetsonOrin(), "", "HOLO", PolicySerial, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	st, ok := res.PerTask[partition.TaskCompute]
	if !ok || st.WarpInsts == 0 {
		t.Fatal("compute task stats missing")
	}
}

func TestRunPairNothingFails(t *testing.T) {
	job := Job{GPU: config.JetsonOrin()}
	if _, err := job.Run(); err == nil {
		t.Error("empty job accepted")
	}
}

func TestRunPairUnknownPolicy(t *testing.T) {
	if _, err := RunPair(config.JetsonOrin(), "SPL", "", PolicyKind("bogus"), tinyOpts()); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestConcurrentPairUnderEveryPolicy(t *testing.T) {
	gfx, err := RenderScene("SPL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compute.ByName("VIO", ComputeStreamBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range PolicyKinds() {
		job := Job{GPU: config.JetsonOrin(), Graphics: gfx, Compute: comp, Policy: pol}
		res, err := job.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Cycles <= 0 {
			t.Errorf("%s: no cycles", pol)
		}
		g := res.PerTask[partition.TaskGraphics]
		c := res.PerTask[partition.TaskCompute]
		if g == nil || c == nil || g.WarpInsts == 0 || c.WarpInsts == 0 {
			t.Errorf("%s: per-task stats incomplete", pol)
		}
		if pol == PolicyWarpedSlicer && res.WS == nil {
			t.Error("warped-slicer state not exposed")
		}
	}
}

func TestJobDeterministic(t *testing.T) {
	gfx, err := RenderScene("PL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := compute.ByName("HOLO", ComputeStreamBase)
	run := func() int64 {
		job := Job{GPU: config.JetsonOrin(), Graphics: gfx, Compute: comp, Policy: PolicyEven}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d", a, b)
	}
}

// TestTimelineCollection checks the occupancy timeline a pair's metrics
// series carries: both tasks are seen resident.
func TestTimelineCollection(t *testing.T) {
	gfx, err := RenderScene("PL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := compute.ByName("VIO", ComputeStreamBase)
	job := Job{GPU: config.JetsonOrin(), Graphics: gfx, Compute: comp, Policy: PolicyEven, MetricsInterval: 512}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Samples) < 2 {
		t.Fatal("metrics series missing")
	}
	sawG, sawC := false, false
	for _, s := range res.Metrics.Samples {
		sawG = sawG || s.Warps(partition.TaskGraphics) > 0
		sawC = sawC || s.Warps(partition.TaskCompute) > 0
	}
	if !sawG || !sawC {
		t.Errorf("timeline never saw both tasks resident (g=%v c=%v)", sawG, sawC)
	}
}

func TestL2ByTaskSplitsComposition(t *testing.T) {
	gfx, err := RenderScene("SPL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := compute.ByName("VIO", ComputeStreamBase)
	job := Job{GPU: config.JetsonOrin(), Graphics: gfx, Compute: comp, Policy: PolicyMPS}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.L2ByTask[partition.TaskGraphics] == 0 || res.L2ByTask[partition.TaskCompute] == 0 {
		t.Errorf("L2 by task = %v", res.L2ByTask)
	}
	sum := 0
	for _, n := range res.L2ByTask {
		sum += n
	}
	if sum != res.L2Lines {
		t.Errorf("task split %d does not sum to %d", sum, res.L2Lines)
	}
}

func TestGraphicsWindowDefaults(t *testing.T) {
	gfx, err := RenderScene("PL", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	narrow := Job{GPU: config.JetsonOrin(), Graphics: gfx, Policy: PolicySerial, GraphicsWindow: 1}
	rN, err := narrow.Run()
	if err != nil {
		t.Fatal(err)
	}
	wide := Job{GPU: config.JetsonOrin(), Graphics: gfx, Policy: PolicySerial, GraphicsWindow: 16}
	rW, err := wide.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rN.Cycles <= rW.Cycles {
		t.Errorf("window-1 (%d cycles) should be slower than window-16 (%d)", rN.Cycles, rW.Cycles)
	}
}

func TestRenderSceneUnknown(t *testing.T) {
	if _, err := RenderScene("nope", tinyOpts()); err == nil {
		t.Error("unknown scene accepted")
	}
}

// TestRunPairObservability is the end-to-end observability check: run a
// concurrent pair with tracing and metrics attached, confirm the result
// carries both, that the slot conservation law holds at the Result level,
// and that the event stream exports to valid Chrome trace JSON.
func TestRunPairObservability(t *testing.T) {
	rec := obs.NewRecorder()
	res, err := RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts(),
		WithTracer(rec), WithMetrics(1024))
	if err != nil {
		t.Fatal(err)
	}

	if res.Metrics == nil || len(res.Metrics.Samples) == 0 {
		t.Fatal("no interval metrics collected")
	}
	if res.SchedSlots == 0 {
		t.Fatal("no scheduler slots reported")
	}
	accounted := res.EmptySlots
	for _, st := range res.PerStream {
		accounted += st.WarpInsts + st.StallTotal()
	}
	if accounted != res.SchedSlots {
		t.Errorf("slot conservation violated: %d accounted vs %d slots", accounted, res.SchedSlots)
	}

	kinds := map[obs.EventKind]int{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	if kinds[obs.EvKernelLaunch] == 0 || kinds[obs.EvKernelLaunch] != kinds[obs.EvKernelDone] {
		t.Errorf("kernel launch/done mismatch: %v", kinds)
	}
	if kinds[obs.EvCTAIssue] == 0 || kinds[obs.EvCTAIssue] != kinds[obs.EvCTACommit] {
		t.Errorf("CTA issue/commit mismatch: %v", kinds)
	}
	if kinds[obs.EvBatchStart] == 0 {
		t.Errorf("no batch boundaries for a graphics run: %v", kinds)
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events(), res.Metrics, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("exported trace is not valid JSON")
	}

	var csv bytes.Buffer
	if err := res.Metrics.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines < 2 {
		t.Errorf("metrics CSV has %d lines", lines)
	}
}

// TestWarpedSlicerEmitsRepartitions checks the policy-decision events.
func TestWarpedSlicerEmitsRepartitions(t *testing.T) {
	rec := obs.NewRecorder()
	res, err := RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyWarpedSlicer, tinyOpts(),
		WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	if res.WS == nil || res.WS.Resamples() == 0 {
		t.Fatal("warped slicer did not sample")
	}
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EvRepartition {
			n++
		}
	}
	if n == 0 {
		t.Error("no repartition events emitted")
	}
}
