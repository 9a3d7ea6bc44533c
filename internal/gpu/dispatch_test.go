package gpu

import (
	"runtime"
	"testing"

	"crisp/internal/sm"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

// dispatchGPU builds a machine whose CTA scheduler has every kind of
// event to react to: a Prioritizer policy with half-SM envelopes, a
// two-stream window on task 0 whose streams hold several kernels each
// (reaps advance streams, the window opens, kernels launch), far more
// CTAs than fit (retires free room all run long), and one stream that
// arrives only after the machine has drained.
func dispatchGPU(t *testing.T) *GPU {
	t.Helper()
	g := newGPU(t)
	g.SetPolicy(prioPolicy{limit: sm.Fraction(sm.Full(g.Config()), 1, 2)})
	g.TaskWindows[0] = 2
	wide := g.Config().NumSMs * 12
	for id := 0; id < 5; id++ {
		ks := []*trace.Kernel{aluKernel("a", id, wide, 4, 120), aluKernel("b", id, 9, 2, 60), aluKernel("c", id, wide, 2, 90)}
		if id == 0 {
			ks = append(ks, memKernel("m", id, 24, 1<<24))
		}
		if err := g.AddStream(StreamDef{ID: id, Task: 0, Kernels: ks}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddStream(StreamDef{ID: 10, Task: 1, Kernels: []*trace.Kernel{aluKernel("d", 10, wide, 8, 80)}}); err != nil {
		t.Fatal(err)
	}
	late := StreamDef{ID: 11, Task: 1, NotBefore: 400_000, Kernels: []*trace.Kernel{aluKernel("late", 11, 3, 2, 30)}}
	if err := g.AddStream(late); err != nil {
		t.Fatal(err)
	}
	return g
}

func finalDigest(t *testing.T, g *GPU) snapshot.DigestEntry {
	t.Helper()
	ds := g.Digests()
	if len(ds) == 0 {
		t.Fatal("run recorded no state digest")
	}
	return ds[len(ds)-1]
}

// TestDispatchFixpoint checks the claim the event-driven dispatcher rests
// on, at iteration boundaries all through a run: once dispatch has run, a
// second, forced pass over every stream, launch and SM places nothing,
// launches nothing and leaves the architectural state digest unchanged —
// and a run poked this way ends exactly where an unpoked one does.
func TestDispatchFixpoint(t *testing.T) {
	plain := dispatchGPU(t)
	plain.DigestEvery = 1 << 40
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	g := dispatchGPU(t)
	g.DigestEvery = 1 << 40
	progress := func() (ctas, kernels int) {
		for _, st := range g.streams {
			ctas += st.stat.CTAsLaunched
			kernels += st.stat.KernelsLaunched
		}
		return ctas, kernels
	}
	var checks, full int
	g.CheckpointEvery = 251
	g.CheckpointSink = func() error {
		g.dispatch() // the next iteration's own pass, a moment early
		before, err := g.StateDigest()
		if err != nil {
			return err
		}
		ctas, kernels := progress()
		g.streamsDirty, g.placeDirty = true, true
		g.dispatch()
		after, err := g.StateDigest()
		if err != nil {
			return err
		}
		if c, k := progress(); c != ctas || k != kernels {
			t.Errorf("cycle %d: a forced second pass placed %d CTAs and launched %d kernels", g.now, c-ctas, k-kernels)
		}
		if before != after {
			t.Errorf("cycle %d: a forced second pass moved the state digest %016x → %016x", g.now, before.Digest, after.Digest)
		}
		checks++
		pending := false
		for _, l := range g.running {
			pending = pending || l.nextCTA < len(l.k.CTAs)
		}
		if pending {
			full++
		}
		return nil
	}
	got, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || finalDigest(t, g) != finalDigest(t, plain) {
		t.Errorf("forced sweeps changed the run: %d cycles %v, want %d cycles %v", got, finalDigest(t, g), want, finalDigest(t, plain))
	}
	t.Logf("%d boundaries checked, %d with CTAs waiting for room", checks, full)
	if full < 20 || checks-full < 20 {
		t.Errorf("%d boundaries checked, %d with CTAs waiting for room: the workload no longer holds the dispatcher at both kinds of fixpoint", checks, full)
	}
}

// TestDispatchCounters pins the telemetry: every run-loop iteration is a
// sweep or a skip, the oracle never skips, the event-driven loop mostly
// does, and both simulate the same machine.
func TestDispatchCounters(t *testing.T) {
	run := func(noSkip bool) (*GPU, int64) {
		g := dispatchGPU(t)
		g.NoSkip = noSkip
		g.DigestEvery = 1 << 40
		cycles, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return g, cycles
	}
	fast, fastCycles := run(false)
	oracle, oracleCycles := run(true)
	if fastCycles != oracleCycles || finalDigest(t, fast) != finalDigest(t, oracle) {
		t.Fatalf("event-driven dispatch diverged from the oracle: %d cycles %v vs %d cycles %v",
			fastCycles, finalDigest(t, fast), oracleCycles, finalDigest(t, oracle))
	}
	sweeps, skipped := fast.DispatchCounters()
	if sweeps+skipped != int64(fast.loop.Iter) {
		t.Errorf("%d sweeps + %d skipped over %d iterations", sweeps, skipped, fast.loop.Iter)
	}
	if skipped <= sweeps {
		t.Errorf("only %d of %d iterations skipped the sweep", skipped, sweeps+skipped)
	}
	if s, k := oracle.DispatchCounters(); k != 0 || s != int64(oracle.loop.Iter) {
		t.Errorf("oracle: %d sweeps, %d skipped over %d iterations; want a sweep every iteration", s, k, oracle.loop.Iter)
	}
}

// TestDispatchDoesNotAllocate guards the dispatcher phase of a run-loop
// iteration on a full machine with CTAs waiting: neither the skipped
// form nor a full pass that finds nothing to place may allocate (the
// per-task window counts and the priority order live in reused scratch).
func TestDispatchDoesNotAllocate(t *testing.T) {
	g := dispatchGPU(t)
	measured := false
	g.CheckpointEvery = 500
	g.CheckpointSink = func() error {
		pending := false
		for _, l := range g.running {
			pending = pending || l.nextCTA < len(l.k.CTAs)
		}
		if measured || !pending {
			return nil
		}
		measured = true
		g.dispatch()
		if n := testing.AllocsPerRun(100, g.dispatch); n != 0 {
			t.Errorf("a skipped dispatch allocates %v times", n)
		}
		forced := func() {
			g.streamsDirty, g.placeDirty = true, true
			g.dispatch()
		}
		if n := testing.AllocsPerRun(100, forced); n != 0 {
			t.Errorf("a full dispatch pass with nothing to place allocates %v times", n)
		}
		return nil
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !measured {
		t.Fatal("no checkpoint boundary had CTAs waiting for room")
	}
}

// TestRunStaysOnItsGoroutine: the timing model steps every SM on the
// goroutine that called Run, whatever the deprecated Workers field holds.
func TestRunStaysOnItsGoroutine(t *testing.T) {
	g := dispatchGPU(t)
	g.Workers = 8
	before := runtime.NumGoroutine()
	samples, most := 0, 0
	g.CheckpointEvery = 500
	g.CheckpointSink = func() error {
		samples++
		most = max(most, runtime.NumGoroutine())
		return nil
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if samples == 0 || most != before {
		t.Errorf("%d goroutines before the run, up to %d during it (%d samples)", before, most, samples)
	}
}
