package gpu

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"crisp/internal/config"
	"crisp/internal/isa"
	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/sm"
	"crisp/internal/trace"
)

// aluKernel builds a kernel of nCTAs × warps × chain-length dependent ops.
func aluKernel(name string, stream, nCTAs, warps, chain int) *trace.Kernel {
	b := trace.NewBuilder(name, trace.KindCompute, stream, warps*32, 32, 0)
	for c := 0; c < nCTAs; c++ {
		b.BeginCTA()
		for w := 0; w < warps; w++ {
			b.BeginWarp()
			r := b.NewReg()
			b.ALU(isa.OpMOV, r, trace.FullMask)
			for i := 0; i < chain; i++ {
				nr := b.NewReg()
				b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
				r = nr
			}
		}
	}
	return b.Finish()
}

// memKernel builds a streaming-load kernel touching distinct lines.
func memKernel(name string, stream, nCTAs int, base uint64) *trace.Kernel {
	b := trace.NewBuilder(name, trace.KindCompute, stream, 64, 32, 0)
	line := uint64(0)
	for c := 0; c < nCTAs; c++ {
		b.BeginCTA()
		for w := 0; w < 2; w++ {
			b.BeginWarp()
			for i := 0; i < 10; i++ {
				addrs := make([]uint64, 32)
				for l := range addrs {
					addrs[l] = base + line*128 + uint64(l)*4
					line++
				}
				r := b.NewReg()
				b.Mem(isa.OpLDG, r, trace.FullMask, addrs, trace.ClassCompute)
				b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask, r, r)
			}
		}
	}
	return b.Finish()
}

func newGPU(t *testing.T) *GPU {
	t.Helper()
	g, err := New(config.JetsonOrin())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunSingleKernel(t *testing.T) {
	g := newGPU(t)
	k := aluKernel("k", 0, 4, 2, 50)
	if err := g.AddStream(StreamDef{ID: 0, Task: 0, Label: "s0", Kernels: []*trace.Kernel{k}}); err != nil {
		t.Fatal(err)
	}
	cycles, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	st := g.StreamStats()
	if len(st) != 1 {
		t.Fatalf("streams = %d", len(st))
	}
	if st[0].WarpInsts != int64(k.InstCount()) {
		t.Errorf("warp insts = %d, want %d", st[0].WarpInsts, k.InstCount())
	}
	if st[0].KernelsLaunched != 1 || st[0].CTAsLaunched != 4 {
		t.Errorf("launch counters = %d/%d", st[0].KernelsLaunched, st[0].CTAsLaunched)
	}
}

func TestStreamKernelsRunInOrder(t *testing.T) {
	g := newGPU(t)
	k1 := aluKernel("k1", 0, 2, 1, 30)
	k2 := aluKernel("k2", 0, 2, 1, 30)
	if err := g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{k1, k2}}); err != nil {
		t.Fatal(err)
	}
	cycles, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Serialized: both kernels' chains cannot overlap, so the makespan
	// must exceed a single kernel's ≈130 cycles.
	solo := func() int64 {
		g2 := newGPU(t)
		g2.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("k", 0, 2, 1, 30)}})
		c, _ := g2.Run()
		return c
	}()
	if cycles < solo*3/2 {
		t.Errorf("two in-order kernels (%d cycles) should take ≈2× one (%d)", cycles, solo)
	}
}

func TestSeparateStreamsRunConcurrently(t *testing.T) {
	// Two independent small streams under the default policy: the second
	// fills SMs the first leaves idle, so the makespan is far below 2×.
	g := newGPU(t)
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("a", 0, 4, 1, 200)}})
	g.AddStream(StreamDef{ID: 1, Task: 0, Kernels: []*trace.Kernel{aluKernel("b", 1, 4, 1, 200)}})
	both, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	g2 := newGPU(t)
	g2.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("a", 0, 4, 1, 200)}})
	solo, _ := g2.Run()
	if both > solo*3/2 {
		t.Errorf("concurrent streams took %d vs solo %d — no overlap", both, solo)
	}
}

func TestKernelValidationAtAdd(t *testing.T) {
	g := newGPU(t)
	bad := &trace.Kernel{Name: "bad", ThreadsPerCTA: 32}
	if err := g.AddStream(StreamDef{ID: 0, Kernels: []*trace.Kernel{bad}}); err == nil {
		t.Error("accepted invalid kernel")
	}
	k := aluKernel("k", 7, 1, 1, 5)
	if err := g.AddStream(StreamDef{ID: 0, Kernels: []*trace.Kernel{k}}); err == nil {
		t.Error("accepted stream-id mismatch")
	}

	// Warps nobody validated where they were made — hand-built, or a
	// Builder warp whose instructions were cut afterwards — are walked.
	handBuilt := &trace.Kernel{Name: "hand", ThreadsPerCTA: 32, CTAs: []trace.CTA{{Warps: []trace.Warp{{
		Insts: []trace.Inst{{Op: isa.OpMOV, Dst: 0, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: trace.FullMask}}}}}}}
	cut := aluKernel("cut", 0, 2, 1, 5)
	w := &cut.CTAs[1].Warps[0]
	w.Insts = w.Insts[:len(w.Insts)-1]
	for _, bad := range []*trace.Kernel{handBuilt, cut} {
		err := newGPU(t).AddStream(StreamDef{ID: 0, Kernels: []*trace.Kernel{bad}})
		if se, ok := robust.AsSimError(err); !ok || se.Kind != robust.KindValidation {
			t.Errorf("%s: AddStream error %v, want a validation SimError", bad.Name, err)
		}
	}
}

func TestTaskWindowLimitsActiveStreams(t *testing.T) {
	// 4 single-CTA streams with window 1 must serialize.
	mk := func(id int) StreamDef {
		return StreamDef{ID: id, Task: 0, Kernels: []*trace.Kernel{aluKernel("k", id, 1, 1, 100)}}
	}
	g := newGPU(t)
	g.TaskWindows[0] = 1
	for i := 0; i < 4; i++ {
		g.AddStream(mk(i))
	}
	windowed, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	g2 := newGPU(t)
	for i := 0; i < 4; i++ {
		g2.AddStream(mk(i))
	}
	open, _ := g2.Run()
	if windowed < open*2 {
		t.Errorf("window-1 makespan %d should be ≫ unbounded %d", windowed, open)
	}
}

// denyPolicy forbids every placement — Run must error, not hang.
type denyPolicy struct{}

func (denyPolicy) Name() string                        { return "deny" }
func (denyPolicy) AllowSM(int, int) bool               { return false }
func (denyPolicy) Limit(int, int) (sm.Resources, bool) { return sm.Resources{}, false }
func (denyPolicy) OnLaunch(int64, *trace.Kernel, int)  {}
func (denyPolicy) Tick(int64)                          {}

func TestInfeasiblePolicyErrors(t *testing.T) {
	g := newGPU(t)
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("k", 0, 1, 1, 5)}})
	g.SetPolicy(denyPolicy{})
	if _, err := g.Run(); err == nil {
		t.Fatal("deadlocked configuration did not error")
	}
}

// halfPolicy restricts task 0 to the first half of SMs.
type halfPolicy struct{ n int }

func (p halfPolicy) Name() string { return "half" }
func (p halfPolicy) AllowSM(smID, task int) bool {
	if task == 0 {
		return smID < p.n/2
	}
	return smID >= p.n/2
}
func (halfPolicy) Limit(int, int) (sm.Resources, bool) { return sm.Resources{}, false }
func (halfPolicy) OnLaunch(int64, *trace.Kernel, int)  {}
func (halfPolicy) Tick(int64)                          {}

func TestPolicyRestrictsPlacement(t *testing.T) {
	g := newGPU(t)
	cfg := g.Config()
	g.SetPolicy(halfPolicy{n: cfg.NumSMs})
	// Enough CTAs to fill the whole GPU; with half the SMs the makespan
	// roughly doubles versus no policy.
	big := func(stream int) *trace.Kernel { return aluKernel("big", stream, cfg.NumSMs*4, 8, 100) }
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{big(0)}})
	halfCycles, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	g2 := newGPU(t)
	g2.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{big(0)}})
	fullCycles, _ := g2.Run()
	if halfCycles < fullCycles*3/2 {
		t.Errorf("half-SM makespan %d vs full %d — restriction not applied", halfCycles, fullCycles)
	}
}

// TestTimelineSampling checks the occupancy timeline the metrics series
// carries: some sample sees the task's warps resident.
func TestTimelineSampling(t *testing.T) {
	g := newGPU(t)
	g.Metrics = &obs.IntervalSeries{Interval: 64}
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("k", 0, 8, 4, 200)}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	any := false
	for _, s := range g.Metrics.Samples {
		any = any || s.Warps(0) > 0
	}
	if !any {
		t.Error("metrics series never saw resident warps")
	}
}

func TestMemCountersFoldIntoStreams(t *testing.T) {
	g := newGPU(t)
	g.AddStream(StreamDef{ID: 3, Task: 0, Kernels: []*trace.Kernel{memKernel("m", 3, 4, 1<<30)}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.StreamStats()[0]
	if st.L1Accesses == 0 || st.L2Accesses == 0 || st.DRAMReads == 0 {
		t.Errorf("memory counters empty: %+v", *st)
	}
}

func TestTaskStatsAggregation(t *testing.T) {
	g := newGPU(t)
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("a", 0, 1, 1, 10)}})
	g.AddStream(StreamDef{ID: 1, Task: 0, Kernels: []*trace.Kernel{aluKernel("b", 1, 1, 1, 10)}})
	g.AddStream(StreamDef{ID: 5, Task: 1, Kernels: []*trace.Kernel{aluKernel("c", 5, 1, 1, 10)}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	agg := g.TaskStats()
	if len(agg) != 2 {
		t.Fatalf("tasks = %d", len(agg))
	}
	if agg[0].WarpInsts != 2*agg[1].WarpInsts {
		t.Errorf("task0 %d vs task1 %d warp insts", agg[0].WarpInsts, agg[1].WarpInsts)
	}
}

func TestDeterministicCycles(t *testing.T) {
	run := func() int64 {
		g := newGPU(t)
		g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{memKernel("m", 0, 8, 1<<28)}})
		g.AddStream(StreamDef{ID: 1, Task: 1, Kernels: []*trace.Kernel{aluKernel("a", 1, 8, 4, 100)}})
		c, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic: %d vs %d", a, b)
	}
}

// prioPolicy is an even intra-SM split that places task 1's CTAs first.
type prioPolicy struct{ limit sm.Resources }

func (p prioPolicy) Name() string          { return "prio" }
func (p prioPolicy) AllowSM(int, int) bool { return true }
func (p prioPolicy) Limit(_, task int) (sm.Resources, bool) {
	return p.limit, true
}
func (prioPolicy) OnLaunch(int64, *trace.Kernel, int) {}
func (prioPolicy) Tick(int64)                         {}
func (prioPolicy) Priority(task int) int              { return task }

func TestPrioritizerPlacesHighPriorityFirst(t *testing.T) {
	// Two equally sized kernels contend for space; the prioritized one
	// must finish no later than the other.
	run := func(usePrio bool) (int64, int64) {
		g := newGPU(t)
		full := sm.Full(g.Config())
		if usePrio {
			g.SetPolicy(prioPolicy{limit: sm.Fraction(full, 1, 2)})
		}
		big := g.Config().NumSMs * 16
		g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("a", 0, big, 4, 150)}})
		g.AddStream(StreamDef{ID: 1, Task: 1, Kernels: []*trace.Kernel{aluKernel("b", 1, big, 4, 150)}})
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		st := g.StreamStats()
		return st[0].Cycles, st[1].Cycles
	}
	_, prioTask1 := run(true)
	_, plainTask1 := run(false)
	if prioTask1 > plainTask1 {
		t.Errorf("prioritized task finished later (%d) than unprioritized (%d)", prioTask1, plainTask1)
	}
}

func TestKernelStatsRecorded(t *testing.T) {
	g := newGPU(t)
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{
		aluKernel("first", 0, 2, 1, 30),
		aluKernel("second", 0, 2, 1, 30),
	}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	ks := g.KernelStats()
	if len(ks) != 2 {
		t.Fatalf("kernel stats = %d, want 2", len(ks))
	}
	if ks[0].Name != "first" || ks[1].Name != "second" {
		t.Errorf("completion order wrong: %v, %v", ks[0].Name, ks[1].Name)
	}
	for _, k := range ks {
		if k.Done < k.Launched || k.CTAs != 2 {
			t.Errorf("stat inconsistent: %+v", k)
		}
	}
	// In-order stream: second launches after first finishes.
	if ks[1].Launched < ks[0].Done {
		t.Errorf("second launched at %d before first done at %d", ks[1].Launched, ks[0].Done)
	}
}

// TestStallConservation checks the issue-slot partition law: every
// scheduler slot is exactly one of an issue (per-stream WarpInsts), an
// attributed stall (per-stream Stalls), or an empty slot.
func TestStallConservation(t *testing.T) {
	g := newGPU(t)
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("a", 0, 8, 4, 100)}})
	g.AddStream(StreamDef{ID: 7, Task: 1, Kernels: []*trace.Kernel{memKernel("m", 7, 6, 1<<28)}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	var accounted int64
	for _, st := range g.StreamStats() {
		accounted += st.WarpInsts + st.StallTotal()
	}
	accounted += g.EmptySlots()
	if g.SchedSlots() == 0 {
		t.Fatal("no scheduler slots counted")
	}
	if accounted != g.SchedSlots() {
		t.Errorf("slot conservation violated: %d accounted (issues+stalls+empty) vs %d slots",
			accounted, g.SchedSlots())
	}
}

// TestStallCausesAttributed checks that dependence-heavy and memory-heavy
// kernels produce stalls of the expected classes.
func TestStallCausesAttributed(t *testing.T) {
	g := newGPU(t)
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("a", 0, 2, 1, 400)}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.StreamStats()[0]
	if st.Stalls[obs.StallScoreboard] == 0 {
		t.Errorf("single-warp dependence chain produced no scoreboard stalls: %v", st.Stalls)
	}

	g2 := newGPU(t)
	g2.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{memKernel("m", 0, 2, 1<<28)}})
	if _, err := g2.Run(); err != nil {
		t.Fatal(err)
	}
	st2 := g2.StreamStats()[0]
	if st2.Stalls[obs.StallMemPending] == 0 {
		t.Errorf("streaming-load kernel produced no mem-pending stalls: %v", st2.Stalls)
	}
}

// TestTracerKernelAndCTAEvents checks the event stream for one kernel:
// paired launch/done and issue/commit markers with sane cycles.
func TestTracerKernelAndCTAEvents(t *testing.T) {
	g := newGPU(t)
	rec := obs.NewRecorder()
	g.SetTracer(rec)
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("k", 0, 4, 2, 50)}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	counts := map[obs.EventKind]int{}
	var launch, done obs.Event
	for _, ev := range rec.Events() {
		counts[ev.Kind]++
		switch ev.Kind {
		case obs.EvKernelLaunch:
			launch = ev
		case obs.EvKernelDone:
			done = ev
		}
	}
	if counts[obs.EvKernelLaunch] != 1 || counts[obs.EvKernelDone] != 1 {
		t.Fatalf("kernel events = %v", counts)
	}
	if counts[obs.EvCTAIssue] != 4 || counts[obs.EvCTACommit] != 4 {
		t.Errorf("CTA events = %v, want 4 issues and 4 commits", counts)
	}
	if launch.Name != "k" || launch.Arg != 4 {
		t.Errorf("launch event = %+v", launch)
	}
	if done.Cycle <= launch.Cycle {
		t.Errorf("kernel done at %d not after launch at %d", done.Cycle, launch.Cycle)
	}
}

// TestNilTracerEmitsNothing is the fast-path sanity check: an untraced
// run must not allocate or emit anywhere (it would nil-panic if any site
// skipped its guard).
func TestNilTracerEmitsNothing(t *testing.T) {
	g := newGPU(t)
	if g.Tracer() != nil {
		t.Fatal("tracer should default to nil")
	}
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{memKernel("m", 0, 4, 1<<28)}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsIntervalNotMutated checks that Run defaults the sampling
// cadence locally instead of writing to the caller-owned struct.
func TestMetricsIntervalNotMutated(t *testing.T) {
	g := newGPU(t)
	g.Metrics = &obs.IntervalSeries{} // Interval deliberately zero
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("k", 0, 8, 4, 200)}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Metrics.Interval != 0 {
		t.Errorf("Run mutated caller-owned Metrics.Interval to %d", g.Metrics.Interval)
	}
	if len(g.Metrics.Samples) == 0 {
		t.Error("default metrics cadence produced no samples")
	}
}

// TestTimelineCadence checks the metrics series' sampling spacing:
// consecutive samples are at least Interval cycles apart (the
// event-accelerated loop may overshoot, never undershoot). The closing
// sample at the run's end is exempt: it covers whatever tail is left.
func TestTimelineCadence(t *testing.T) {
	g := newGPU(t)
	g.Metrics = &obs.IntervalSeries{Interval: 64}
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("k", 0, 8, 4, 300)}})
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	s := g.Metrics.Samples
	if len(s) < 4 {
		t.Fatalf("samples = %d, want several", len(s))
	}
	s = s[:len(s)-1]
	for i := 1; i < len(s); i++ {
		if d := s[i].Cycle - s[i-1].Cycle; d < 64 {
			t.Errorf("samples %d cycles apart, want >= 64", d)
		}
	}
}

// TestIntervalMetricsSampling checks the metrics series: per-task points
// with interval-local (not cumulative) rates and a closing tail sample.
func TestIntervalMetricsSampling(t *testing.T) {
	g := newGPU(t)
	g.Metrics = &obs.IntervalSeries{Interval: 256}
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("a", 0, 8, 4, 200)}})
	g.AddStream(StreamDef{ID: 9, Task: 1, Kernels: []*trace.Kernel{memKernel("m", 9, 6, 1<<28)}})
	cycles, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	samples := g.Metrics.Samples
	if len(samples) < 2 {
		t.Fatalf("metrics samples = %d, want several over %d cycles", len(samples), cycles)
	}
	if first := samples[0].Cycle; first < 256 {
		t.Errorf("first sample at cycle %d, want >= one interval (256)", first)
	}
	if tail := samples[len(samples)-1].Cycle; tail != cycles {
		t.Errorf("tail sample at %d, want run end %d", tail, cycles)
	}
	// Interval IPC must be a rate, not a cumulative count: bounded by the
	// whole GPU's theoretical issue width.
	maxIPC := 0.0
	sawBoth := false
	for _, smp := range samples {
		tasks := map[int]bool{}
		for _, p := range smp.Points {
			tasks[p.Stream] = true
			if p.IPC > maxIPC {
				maxIPC = p.IPC
			}
			if p.IPC < 0 {
				t.Errorf("negative IPC %f at cycle %d", p.IPC, smp.Cycle)
			}
		}
		if tasks[0] && tasks[1] {
			sawBoth = true
		}
	}
	cfg := g.Config()
	if bound := float64(cfg.NumSMs * cfg.SchedulersPerSM); maxIPC > bound {
		t.Errorf("interval IPC %f exceeds machine issue width %f (cumulative, not delta?)", maxIPC, bound)
	}
	if !sawBoth {
		t.Error("no sample carried points for both tasks")
	}
}

// livelockKernel builds a two-warp CTA where only the first warp arrives
// at a barrier — a guaranteed barrier livelock the static validators
// cannot see.
func livelockKernel(stream int) *trace.Kernel {
	b := trace.NewBuilder("livelock", trace.KindCompute, stream, 64, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	b.ALU(isa.OpMOV, b.NewReg(), trace.FullMask)
	b.Barrier()
	b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask)
	b.BeginWarp()
	b.ALU(isa.OpMOV, b.NewReg(), trace.FullMask)
	return b.Finish()
}

func TestWatchdogCatchesBarrierLivelock(t *testing.T) {
	g := newGPU(t)
	if err := g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{livelockKernel(0)}}); err != nil {
		t.Fatal(err)
	}
	_, err := g.Run()
	se, ok := robust.AsSimError(err)
	if !ok {
		t.Fatalf("err = %v, want *robust.SimError", err)
	}
	if se.Kind != robust.KindWatchdog {
		t.Fatalf("kind = %v, want watchdog", se.Kind)
	}
	if se.Dump == nil {
		t.Fatal("no crash dump attached")
	}
	if se.Dump.Kernel != "livelock" {
		t.Errorf("dump names kernel %q, want livelock", se.Dump.Kernel)
	}
	blocked := 0
	for _, s := range se.Dump.SMs {
		blocked += s.BarrierBlocked
	}
	if blocked == 0 {
		t.Error("dump shows no barrier-blocked warps for a barrier livelock")
	}
	// The dump must serialize cleanly to JSON.
	var buf bytes.Buffer
	if err := se.Dump.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("dump JSON is invalid")
	}
	for _, want := range []string{"livelock", "\"sms\"", "\"streams\""} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("dump JSON missing %q", want)
		}
	}
}

// TestLivelockCaughtEvenWithWatchdogDisabled: the barrier-livelock check
// is structural certainty, not a heuristic, so it fires regardless of the
// watchdog window setting.
func TestLivelockCaughtEvenWithWatchdogDisabled(t *testing.T) {
	g := newGPU(t)
	g.WatchdogWindow = -1
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{livelockKernel(0)}})
	_, err := g.Run()
	if se, ok := robust.AsSimError(err); !ok || se.Kind != robust.KindWatchdog {
		t.Fatalf("err = %v, want watchdog SimError", err)
	}
}

func TestCycleBudget(t *testing.T) {
	g := newGPU(t)
	g.CycleBudget = 64
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("long", 0, 32, 4, 400)}})
	cycles, err := g.Run()
	se, ok := robust.AsSimError(err)
	if !ok || se.Kind != robust.KindBudget {
		t.Fatalf("err = %v, want budget SimError", err)
	}
	if cycles <= 64 {
		t.Errorf("budget error reported at cycle %d, want > budget", cycles)
	}
	if se.Dump == nil || se.Dump.Policy == "" {
		t.Error("budget dump missing policy name")
	}
}

func TestRunContextCancellation(t *testing.T) {
	g := newGPU(t)
	g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{aluKernel("long", 0, 128, 4, 400)}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.RunContext(ctx)
	se, ok := robust.AsSimError(err)
	if !ok || se.Kind != robust.KindCanceled {
		t.Fatalf("err = %v, want canceled SimError", err)
	}
	if se.Err == nil {
		// the context error should be preserved somewhere in the chain
		t.Log("note: canceled SimError carries no wrapped cause")
	}
}

func TestAddStreamRejectsUnplaceableCTA(t *testing.T) {
	g := newGPU(t)
	k := aluKernel("huge", 0, 1, 65, 5) // 65 warps > 64 per SM
	err := g.AddStream(StreamDef{ID: 0, Task: 0, Kernels: []*trace.Kernel{k}})
	se, ok := robust.AsSimError(err)
	if !ok || se.Kind != robust.KindDeadlock {
		t.Fatalf("err = %v, want static deadlock SimError", err)
	}
	if se.Dump == nil || se.Dump.Kernel != "huge" {
		t.Errorf("dump does not name the unplaceable kernel: %+v", se.Dump)
	}
}

func TestDeadlockDumpHasStreamProgress(t *testing.T) {
	g := newGPU(t)
	g.AddStream(StreamDef{ID: 0, Task: 0, Label: "victim", Kernels: []*trace.Kernel{aluKernel("k", 0, 2, 1, 5)}})
	g.SetPolicy(denyPolicy{})
	_, err := g.Run()
	se, ok := robust.AsSimError(err)
	if !ok || se.Kind != robust.KindDeadlock {
		t.Fatalf("err = %v, want deadlock SimError", err)
	}
	d := se.Dump
	if d == nil {
		t.Fatal("no dump")
	}
	if d.Policy != "deny" {
		t.Errorf("dump policy = %q, want deny", d.Policy)
	}
	found := false
	for _, st := range d.Streams {
		if st.Label == "victim" && st.Running != nil && st.Running.Name == "k" {
			found = true
			if st.Running.CTAsTotal != 2 {
				t.Errorf("running progress = %+v, want 2 CTAs total", st.Running)
			}
		}
	}
	if !found {
		t.Errorf("dump streams lack the victim stream's running kernel: %+v", d.Streams)
	}
}
