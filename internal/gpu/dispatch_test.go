package gpu

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"crisp/internal/isa"
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
// on, at iteration boundaries all through a run: once dispatch has run —
// over every SM or only those that freed room — a second, forced pass
// over every stream, launch and SM places nothing,
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
		g.streamsDirty, g.placeAll = true, true
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

// probeLog is dispatchGPU's policy with a record of what the dispatcher
// asked it: the SM of every AllowSM question, and whether OnLaunch ran,
// since the test last cleared them.
type probeLog struct {
	prioPolicy
	asked    []int
	launched bool
}

func (p *probeLog) AllowSM(smID, task int) bool {
	p.asked = append(p.asked, smID)
	return p.prioPolicy.AllowSM(smID, task)
}

func (p *probeLog) OnLaunch(now int64, k *trace.Kernel, task int) {
	p.launched = true
	p.prioPolicy.OnLaunch(now, k, task)
}

// raggedKernel builds nCTAs CTAs of four warps, each warp a dependent ALU
// chain of its own length, so warps retire one or two at a time, spread
// over the SMs and the run.
func raggedKernel(name string, stream, nCTAs int) *trace.Kernel {
	b := trace.NewBuilder(name, trace.KindCompute, stream, 4*32, 32, 0)
	for c := 0; c < nCTAs; c++ {
		b.BeginCTA()
		for w := 0; w < 4; w++ {
			b.BeginWarp()
			r := b.NewReg()
			b.ALU(isa.OpMOV, r, trace.FullMask)
			for i := 0; i < 20+(c*7+w*13)%97; i++ {
				nr := b.NewReg()
				b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
				r = nr
			}
		}
	}
	return b.Finish()
}

// raggedGPU builds a machine of two tasks under dispatchGPU's policy, each
// task one stream of two raggedKernels, far more CTAs than fit.
func raggedGPU(t *testing.T) *GPU {
	t.Helper()
	g := newGPU(t)
	g.SetPolicy(prioPolicy{limit: sm.Fraction(sm.Full(g.Config()), 1, 2)})
	for task := 0; task < 2; task++ {
		ks := []*trace.Kernel{raggedKernel("r", task, g.Config().NumSMs*60), raggedKernel("s", task, g.Config().NumSMs*60)}
		if err := g.AddStream(StreamDef{ID: task, Task: task, Kernels: ks}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestPlacementProbesOnlyFreedSMs checks, at every iteration boundary of a
// run, which SMs the iteration's placement sweep asked the policy about.
// After a launch or a policy tick it must be every SM. Otherwise it must
// be exactly the SMs whose warps retired in the step before — none when
// none did — and in particular SM k alone after a step whose only retire
// was on SM k. Where CTAs still wait after the sweep, every SM it should
// have probed was probed (its last round ran over all of them).
func TestPlacementProbesOnlyFreedSMs(t *testing.T) {
	g := raggedGPU(t)
	pl := &probeLog{prioPolicy: g.policy.(prioPolicy)}
	g.SetPolicy(pl)
	all := make([]int, len(g.cores))
	for i := range all {
		all[i] = i
	}
	// The previous boundary: its iteration, every core's retire count, the
	// SMs that retired a warp in its step, and whether the policy ticked.
	// Only a step retires warps, and an iteration without a boundary steps
	// no core, so freed is always one step's retires.
	var lastIter uint64
	seen := make([]int64, len(g.cores))
	var freed []int
	var ticked bool
	var fullChecks, partialChecks, singleChecks int
	g.CheckpointEvery = 1
	g.CheckpointSink = func() error {
		it := g.loop.Iter
		probed := slices.Clone(pl.asked)
		slices.Sort(probed)
		probed = slices.Compact(probed)
		pending := false
		for _, l := range g.running {
			pending = pending || l.nextCTA < len(l.k.CTAs)
		}
		if lastIter == it-1 { // else pl.asked holds more than one sweep
			want := freed
			if ticked || pl.launched {
				want = all
			}
			switch {
			case pending && !slices.Equal(probed, want):
				t.Errorf("iteration %d (tick %v, launch %v): probed SMs %v with CTAs waiting, want %v", it, ticked, pl.launched, probed, want)
			case !pending && len(probed) > 0 && !isSubset(probed, want):
				t.Errorf("iteration %d (tick %v, launch %v): probed SMs %v, want a subset of %v", it, ticked, pl.launched, probed, want)
			case pending && len(want) == len(all):
				fullChecks++
			case pending && len(want) == 1:
				singleChecks++
				fallthrough
			case pending && len(want) > 0:
				partialChecks++
			}
		}
		freed = freed[:0]
		for i, c := range g.cores {
			if r := c.RetiredWarps(); r != seen[i] {
				freed = append(freed, i)
				seen[i] = r
			}
		}
		lastIter, ticked = it, g.loop.LastTick == g.now
		pl.asked, pl.launched = pl.asked[:0], false
		return nil
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d sweeps over every SM, %d over the SMs that freed room (%d over one SM) checked with CTAs waiting", fullChecks, partialChecks, singleChecks)
	if fullChecks < 5 || partialChecks < 100 || singleChecks < 20 {
		t.Errorf("%d full, %d partial, %d single-SM sweeps checked: the workload no longer exercises every kind of sweep", fullChecks, partialChecks, singleChecks)
	}
}

func isSubset(a, b []int) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// ctasWaiting reports whether a running launch still has CTAs to place,
// and how many CTAs the run has placed.
func ctasWaiting(g *GPU) (waiting bool, placed int) {
	for _, l := range g.running {
		waiting = waiting || l.nextCTA < len(l.k.CTAs)
	}
	for _, st := range g.streams {
		placed += st.stat.CTAsLaunched
	}
	return waiting, placed
}

// TestResumeWithCTAsPending: the freed-SM marks are derived state that no
// checkpoint carries. The uninterrupted run finds a boundary where CTAs
// wait on a full machine, the step just freed room on some SMs, and the
// next sweep — over those SMs only, as no launch or tick is due — places
// a CTA there. Resumed from a checkpoint taken at that boundary, a run
// must place CTAs at the same iterations as the uninterrupted one and end
// where it does: its first sweep probes every SM.
func TestResumeWithCTAsPending(t *testing.T) {
	plain := raggedGPU(t)
	plain.DigestEvery = 1 << 40
	var at, cand uint64 // the chosen boundary's iteration; the previous one, if a candidate
	placedAt := map[uint64]int{}
	plain.CheckpointEvery = 1
	plain.CheckpointSink = func() error {
		it := plain.loop.Iter
		waiting, placed := ctasWaiting(plain)
		placedAt[it] = placed
		if at == 0 && cand != 0 && cand == it-1 && placed > placedAt[cand] {
			at = cand
		}
		cand = 0
		if waiting && len(plain.freed) > 0 && !plain.placeAll && !plain.streamsDirty && plain.now < plain.nextArrival {
			cand = it
		}
		return nil
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if at == 0 {
		t.Fatal("no sweep over freed SMs alone placed a CTA")
	}

	g := raggedGPU(t)
	g.DigestEvery = 1 << 40
	var st *snapshot.GPUState
	g.CheckpointEvery = 1
	g.CheckpointSink = func() error {
		if g.loop.Iter != at {
			return nil
		}
		var err error
		if st, err = g.CaptureState(); err != nil {
			return err
		}
		return errors.New("checkpoint taken")
	}
	if _, err := g.Run(); st == nil {
		t.Fatalf("no checkpoint at iteration %d: %v", at, err)
	}

	r := raggedGPU(t)
	r.DigestEvery = 1 << 40
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	r.CheckpointEvery = 1
	r.CheckpointSink = func() error {
		it := r.loop.Iter
		if _, placed := ctasWaiting(r); placed != placedAt[it] {
			t.Errorf("resumed at iteration %d: %d CTAs placed by iteration %d, want %d", at, placed, it, placedAt[it])
			return errors.New("placement diverged")
		}
		return nil
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || finalDigest(t, r) != finalDigest(t, plain) {
		t.Errorf("resumed at iteration %d: %d cycles %v, want %d cycles %v", at, got, finalDigest(t, r), want, finalDigest(t, plain))
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
// form, nor a pass over the SMs that freed room, nor a full pass that
// finds nothing to place may allocate (the per-task window counts, the
// priority order and the freed SMs live in reused scratch).
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
		partial := func() {
			g.freed = append(g.freed, g.cores[1], g.cores[len(g.cores)-1])
			g.dispatch()
		}
		if n := testing.AllocsPerRun(100, partial); n != 0 {
			t.Errorf("a dispatch pass over two SMs with nothing to place allocates %v times", n)
		}
		forced := func() {
			g.streamsDirty, g.placeAll = true, true
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
