package partition

import (
	"encoding/json"
	"reflect"
	"testing"

	"crisp/internal/config"
	"crisp/internal/gpu"
	"crisp/internal/isa"
	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/sm"
	"crisp/internal/trace"
)

func newGPU(t *testing.T, cfg config.GPU) *gpu.GPU {
	t.Helper()
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// taskOfMod maps stream ids round-robin onto tasks.
func taskOfMod(tasks int) func(stream int) int {
	return func(stream int) int { return stream % tasks }
}

// must unwraps a constructor's result, failing the test on error.
func must[P any](p P, err error) func(*testing.T) P {
	return func(t *testing.T) P {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

func TestMPSSplitsSMsEvenly(t *testing.T) {
	p := must(NewSMGroups(14, 2))(t)
	c0, c1 := 0, 0
	for s := 0; s < 14; s++ {
		if p.AllowSM(s, 0) {
			c0++
		}
		if p.AllowSM(s, 1) {
			c1++
		}
		if p.AllowSM(s, 0) == p.AllowSM(s, 1) {
			t.Errorf("SM %d assigned to both or neither task", s)
		}
	}
	if c0 != 7 || c1 != 7 {
		t.Errorf("split = %d/%d", c0, c1)
	}
	if _, ok := p.Limit(0, 0); ok {
		t.Error("MPS should impose no intra-SM limits")
	}
}

func TestFGEvenLimits(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	full := sm.Full(g.Config())
	for _, tasks := range []int{2, 3} {
		p := must(NewFGN(g, tasks))(t)
		for task := 0; task < tasks; task++ {
			if !p.AllowSM(3, task) {
				t.Errorf("tasks=%d: FG should allow task %d on every SM", tasks, task)
			}
			lim, ok := p.Limit(0, task)
			if !ok {
				t.Fatal("FG without limits")
			}
			if lim.Threads != full.Threads/tasks || lim.Regs != full.Regs/tasks {
				t.Errorf("tasks=%d: task %d limit = %+v", tasks, task, lim)
			}
		}
		if p.AllowSM(0, tasks) {
			t.Errorf("tasks=%d: task %d allowed", tasks, tasks)
		}
	}
}

func TestMiGInstallsBankMapper(t *testing.T) {
	for _, tasks := range []int{2, 3} {
		g := newGPU(t, config.RTX3070())
		must(NewMiGN(g, taskOfMod(tasks), tasks))(t)
		cfg := g.Config()
		line := uint64(cfg.LineSize)
		// Drive traffic from two tasks; composition must land in disjoint
		// banks. We can't see banks directly, but a full sweep by task 0
		// must not evict task 1's lines (different banks).
		g.Mem().Load(0, 0, 1, trace.ClassCompute, 99999*line)
		for i := 0; i < 200000; i++ {
			g.Mem().Load(int64(i+1), 0, 0, trace.ClassCompute, uint64(i)*line)
		}
		comp := g.Mem().L2Composition()
		if comp.ByStream[1] != 1 {
			t.Errorf("tasks=%d: MiG bank isolation broken: %v", tasks, comp.ByStream)
		}
	}
}

// kernelWith builds a uniform ALU kernel with given CTA shape.
func kernelWith(stream, ctas, warps, regsPerThread, sharedMem int) *trace.Kernel {
	b := trace.NewBuilder("k", trace.KindCompute, stream, warps*32, regsPerThread, sharedMem)
	for c := 0; c < ctas; c++ {
		b.BeginCTA()
		for w := 0; w < warps; w++ {
			b.BeginWarp()
			r := b.NewReg()
			b.ALU(isa.OpMOV, r, trace.FullMask)
			for i := 0; i < 60; i++ {
				nr := b.NewReg()
				b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
				r = nr
			}
		}
	}
	return b.Finish()
}

// wsKernels are three CTA shapes, one per task: 128 threads × 32 regs,
// 256 × 64 with 4 KiB shared, 64 × 32.
func wsKernels() []*trace.Kernel {
	return []*trace.Kernel{kernelWith(0, 20, 4, 32, 0), kernelWith(1, 20, 8, 64, 4096), kernelWith(2, 20, 2, 32, 0)}
}

// fitsSM reports whether the envelopes together fit in one SM.
func fitsSM(limits []sm.Resources, full sm.Resources) bool {
	var sum sm.Resources
	for _, l := range limits {
		sum.Threads += l.Threads
		sum.Regs += l.Regs
		sum.Shared += l.Shared
		sum.CTAs += l.CTAs
	}
	return sum.Threads <= full.Threads && sum.Regs <= full.Regs && sum.Shared <= full.Shared && sum.CTAs <= full.CTAs
}

func TestWarpedSlicerLifecycle(t *testing.T) {
	for _, tasks := range []int{2, 3} {
		g := newGPU(t, config.JetsonOrin())
		ws := must(NewWarpedSlicerN(g, tasks))(t)
		for task, k := range wsKernels()[:tasks] {
			ws.OnLaunch(0, k, task)
		}
		if ws.Resamples() != tasks {
			t.Errorf("tasks=%d: resamples = %d", tasks, ws.Resamples())
		}
		// During sampling: SM smID runs task smID%tasks, CTA caps vary per SM.
		for smID := 0; smID < tasks; smID++ {
			for task := 0; task < tasks; task++ {
				if got := ws.AllowSM(smID, task); got != (smID == task) {
					t.Errorf("tasks=%d: sampling SM %d allows task %d = %v", tasks, smID, task, got)
				}
			}
		}
		lim0, ok := ws.Limit(0, 0)
		if !ok || lim0.CTAs != 1 {
			t.Errorf("tasks=%d: SM 0 sampling cap = %+v", tasks, lim0)
		}
		if next, _ := ws.Limit(tasks, 0); next.CTAs != 2 {
			t.Errorf("tasks=%d: SM %d sampling cap = %d, want 2", tasks, tasks, next.CTAs)
		}

		// Close the window on idle progress counters.
		ws.Tick(100000)
		for task := 0; task < tasks; task++ {
			if !ws.AllowSM((task+1)%tasks, task) {
				t.Errorf("tasks=%d: steady state should allow task %d everywhere", tasks, task)
			}
			if ws.limits[task].CTAs < 1 {
				t.Errorf("tasks=%d: steady limits starve task %d: %+v", tasks, task, ws.limits)
			}
		}
		if !fitsSM(ws.limits, sm.Full(g.Config())) {
			t.Errorf("tasks=%d: steady limits overflow the SM: %+v", tasks, ws.limits)
		}
	}
}

// TestWarpedSlicerChoosesCaps feeds hand-made per-SM instruction counts —
// task 0's curve is flat at first and then jumps (at cap 8 on two tasks,
// cap 4 on three, cap 8 on eight), task 1's saturates at cap 2, the rest
// are linear — and pins which rule read them. Up to the search limit the
// exhaustive search finds task 0's jump, at two tasks and three alike.
// Eight tasks on the 46-SM part sample over a million combinations, so the
// greedy water-fill reads them: it sees no gain in task 0's first step and
// leaves it at cap 1.
func TestWarpedSlicerChoosesCaps(t *testing.T) {
	linear := []int64{100, 200, 300, 400, 500, 600}
	var small []*trace.Kernel // 64 threads × 32 regs: 32 CTAs fill the SM
	for task := 0; task < 8; task++ {
		small = append(small, kernelWith(task, 20, 2, 32, 0))
	}
	for _, tc := range []struct {
		gpu     func() config.GPU
		kernels []*trace.Kernel
		curves  [][]int64 // [task][cap index] instructions on that sampling SM
		caps    []int
		event   string
		arg     int64
	}{
		{config.JetsonOrin, wsKernels(), [][]int64{{100, 100, 100, 100, 400, 400, 400}, {100, 300, 300, 300, 300, 300, 300}},
			[]int{8, 2}, "split 8:2 CTAs", 8<<16 | 2},
		{config.JetsonOrin, wsKernels(), [][]int64{{100, 100, 400, 400, 400}, {100, 300, 300, 300, 300}, {100, 200, 300, 400}},
			[]int{4, 2, 6}, "split 4:2:6 CTAs", 4<<32 | 2<<16 | 6},
		// Tasks 6 and 7 sample five caps (46 SMs), the others six. The
		// event's argument packs only the last four caps.
		{config.RTX3070, small, [][]int64{{100, 100, 100, 100, 400, 400}, {100, 300, 300, 300, 300, 300},
			linear, linear, linear, linear, linear[:5], linear[:5]},
			[]int{1, 2, 8, 2, 2, 1, 8, 8}, "split 1:2:8:2:2:1:8:8 CTAs", 2<<48 | 1<<32 | 8<<16 | 8},
	} {
		tasks := len(tc.curves)
		g := newGPU(t, tc.gpu())
		rec := obs.NewRecorder()
		g.SetTracer(rec)
		ws := must(NewWarpedSlicerN(g, tasks))(t)
		for task, k := range tc.kernels[:tasks] {
			if err := g.AddStream(gpu.StreamDef{ID: task, Task: task, Label: "k", Kernels: []*trace.Kernel{k}}); err != nil {
				t.Fatal(err)
			}
			ws.OnLaunch(0, k, task)
		}
		for task, curve := range tc.curves {
			for ci, insts := range curve {
				for ; insts > 0; insts-- {
					g.OnIssue(ci*tasks+task, task, task, isa.OpFADD, 32)
				}
			}
		}
		ws.Tick(4096)
		for task, want := range tc.caps {
			if got := ws.limits[task].CTAs; got != want {
				t.Errorf("tasks=%d: task %d capped at %d CTAs, want %d (%+v)", tasks, task, got, want, ws.limits)
			}
		}
		if !fitsSM(ws.limits, sm.Full(g.Config())) {
			t.Errorf("tasks=%d: chosen envelopes overflow the SM: %+v", tasks, ws.limits)
		}
		evs := rec.Events()
		if last := evs[len(evs)-1]; last.Kind != obs.EvRepartition || last.Name != tc.event || last.Arg != tc.arg {
			t.Errorf("tasks=%d: decision event %q arg %#x, want %q arg %#x", tasks, last.Name, last.Arg, tc.event, tc.arg)
		}
	}
}

func TestWarpedSlicerEnvelopeRespectsKernelShape(t *testing.T) {
	full := sm.Resources{Threads: 2048, Regs: 65536, Shared: 65536, CTAs: 32}
	need := sm.Resources{Threads: 256, Regs: 256 * 64, Shared: 8192, CTAs: 1}
	env := envelopeFor(need, 4, full, 2)
	if env.Threads != 1024 || env.CTAs != 4 || env.Shared != 32768 {
		t.Errorf("envelope = %+v", env)
	}
	// Clamped to SM capacity.
	env = envelopeFor(need, 100, full, 2)
	if env.Threads > full.Threads || env.Regs > full.Regs {
		t.Errorf("envelope overflow: %+v", env)
	}
	// Unknown kernel defaults to the even share.
	for _, tasks := range []int{2, 3} {
		if env = envelopeFor(sm.Resources{}, 4, full, tasks); env.Threads != full.Threads/tasks {
			t.Errorf("tasks=%d: default envelope = %+v", tasks, env)
		}
	}
}

func TestTAPRepartitionsTowardCacheSensitiveTask(t *testing.T) {
	for _, tasks := range []int{2, 3} {
		g := newGPU(t, config.RTX3070())
		tap := must(NewTAPN(g, taskOfMod(tasks), tasks))(t)
		sets := g.Mem().SetsPerBank()

		// Task 0: cache-friendly reuse of a small line set (same UMON set).
		for i := 0; i < 20000; i++ {
			tap.ObserveL2(0, uint64(i%4)*256, false)
		}
		// The others barely touch memory (HOLO-like).
		for task := 1; task < tasks; task++ {
			for i := 0; i < 100; i++ {
				tap.ObserveL2(task, uint64(i), false)
			}
		}
		tap.Tick(10000)
		r := tap.Regions()
		total := 0
		for task := 0; task < tasks; task++ {
			total += r[task].Count
			if task > 0 && r[0].Count <= r[task].Count {
				t.Errorf("tasks=%d: TAP regions = %+v, want task 0 dominant", tasks, r)
			}
			if r[task].Count < 1 {
				t.Errorf("tasks=%d: TAP must leave task %d at least one set", tasks, task)
			}
		}
		if total > sets {
			t.Errorf("tasks=%d: regions exceed sets per bank: %+v", tasks, r)
		}
	}
}

// feedDepths warms one UMON sample set of the stream's task with len(hits)
// lines, then makes hits[d] accesses that each find their line at LRU-stack
// depth d — so the monitor reads exactly hits[d] hits for way d+1.
func feedDepths(tap *TAPN, stream int, hits []int) {
	stack := make([]uint64, len(hits))
	for i := range stack {
		stack[i] = uint64(i+1) * 256
	}
	for i := len(stack) - 1; i >= 0; i-- {
		tap.ObserveL2(stream, stack[i], false)
	}
	for d, n := range hits {
		for ; n > 0; n-- {
			line := stack[d]
			tap.ObserveL2(stream, line, true)
			copy(stack[1:d+1], stack[:d])
			stack[0] = line
		}
	}
}

// descending returns n falling, positive hit counts summing to about 6000
// whatever n is, so every task fed from it stays an active share of the
// traffic.
func descending(n int) []int {
	hits := make([]int, n)
	for d := range hits {
		hits[d] = (n - d) * 12000 / (n * (n + 1))
	}
	return hits
}

// TestTAPBothSensitive feeds every task a reuse-heavy stream whose hits
// stop at a chosen stack depth, so the greedy way grant hands each task
// exactly that many of the 16 ways, and pins how Tick turns ways into sets
// (128 per bank): each task's share of the ways, raised to a floor of half
// an even share (a quarter of the bank at two tasks).
func TestTAPBothSensitive(t *testing.T) {
	for _, tc := range []struct {
		ways []int // reuse depth per task; sums to the associativity
		sets []int
	}{
		{[]int{6, 10}, []int{48, 80}},        // 128·6/16
		{[]int{2, 14}, []int{32, 96}},        // 128·2/16 = 16, raised to the quarter
		{[]int{1, 1, 14}, []int{21, 21, 86}}, // 8|8|112 by share, floor 128/(2·3)
	} {
		tasks := len(tc.ways)
		g := newGPU(t, config.RTX3070())
		tap := must(NewTAPN(g, taskOfMod(tasks), tasks))(t)
		for task, depth := range tc.ways {
			feedDepths(tap, task, descending(depth))
		}
		tap.Tick(10000)
		want := regionsFor(tc.sets)
		if got := tap.Regions(); !reflect.DeepEqual(got, want) {
			t.Errorf("ways %v: regions = %+v, want %+v", tc.ways, got, want)
		}
	}
}

func TestTAPKeepsSMBehaviorOfMPS(t *testing.T) {
	for _, tasks := range []int{2, 3} {
		g := newGPU(t, config.RTX3070())
		tap := must(NewTAPN(g, taskOfMod(tasks), tasks))(t)
		mps := must(NewSMGroups(g.Config().NumSMs, tasks))(t)
		for s := 0; s < g.Config().NumSMs; s++ {
			for task := 0; task < tasks; task++ {
				if tap.AllowSM(s, task) != mps.AllowSM(s, task) {
					t.Errorf("tasks=%d: TAP and MPS disagree on SM %d, task %d", tasks, s, task)
				}
			}
		}
	}
}

func TestTAPIgnoresTinySample(t *testing.T) {
	for _, tasks := range []int{2, 3} {
		g := newGPU(t, config.RTX3070())
		tap := must(NewTAPN(g, taskOfMod(tasks), tasks))(t)
		before := tap.Regions()[0].Count
		tap.ObserveL2(0, 1, false)
		tap.Tick(100)
		if tap.Regions()[0].Count != before {
			t.Errorf("tasks=%d: TAP repartitioned on statistically empty sample", tasks)
		}
	}
}

// allPolicies builds one of each policy for the given task count.
func allPolicies(t *testing.T, g *gpu.GPU, tasks int) []gpu.Policy {
	t.Helper()
	return []gpu.Policy{
		must(NewSMGroups(g.Config().NumSMs, tasks))(t),
		must(NewMiGN(g, taskOfMod(tasks), tasks))(t),
		must(NewFGN(g, tasks))(t),
		must(NewPriorityEvenN(g, tasks))(t),
		must(NewWarpedSlicerN(g, tasks))(t),
		must(NewTAPN(g, taskOfMod(tasks), tasks))(t),
	}
}

// TestPoliciesHaveNames pins the names snapshots carry in Arch.PolicyName:
// bare at two tasks, as the pairwise policies wrote them, …xN beyond.
func TestPoliciesHaveNames(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	bare := []string{"MPS", "MiG", "EVEN", "PriorityEven", "WarpedSlicer", "TAP"}
	for i, p := range allPolicies(t, g, 2) {
		if p.Name() != bare[i] {
			t.Errorf("two-task policy named %q, want %q", p.Name(), bare[i])
		}
	}
	for i, p := range allPolicies(t, g, 3) {
		if want := bare[i] + "x3"; p.Name() != want {
			t.Errorf("three-task policy named %q, want %q", p.Name(), want)
		}
	}
}

// TestRestoreRejectsMisshapenBlobs holds both stateful policies to blobs
// sized and keyed for their own task count: a missing envelope restores as
// a task that can never place a CTA (the run ends in the watchdog), a
// region keyed outside 0..tasks-1 as a task that owns no sets.
func TestRestoreRejectsMisshapenBlobs(t *testing.T) {
	g := newGPU(t, config.JetsonOrin())
	for _, tasks := range []int{2, 3} {
		ws := must(NewWarpedSlicerN(g, tasks))(t)
		tap := must(NewTAPN(g, taskOfMod(tasks), tasks))(t)
		wsBlob := func(edit func(*wsNBlob)) []byte {
			var b wsNBlob
			if err := json.Unmarshal(must(ws.CaptureState())(t), &b); err != nil {
				t.Fatal(err)
			}
			edit(&b)
			return must(json.Marshal(b))(t)
		}
		tapBlob := func(edit func(*tapNBlob)) []byte {
			var b tapNBlob
			if err := json.Unmarshal(must(tap.CaptureState())(t), &b); err != nil {
				t.Fatal(err)
			}
			edit(&b)
			return must(json.Marshal(b))(t)
		}
		for _, row := range []struct {
			name string
			p    gpu.StateSnapshotter
			blob []byte
			ok   bool
		}{
			{"WarpedSlicer: its own blob", ws, wsBlob(func(*wsNBlob) {}), true},
			{"WarpedSlicer: an envelope short", ws, wsBlob(func(b *wsNBlob) { b.Limits = b.Limits[:tasks-1] }), false},
			{"WarpedSlicer: an envelope over", ws, wsBlob(func(b *wsNBlob) { b.Limits = append(b.Limits, sm.Resources{}) }), false},
			{"WarpedSlicer: a kernel shape short", ws, wsBlob(func(b *wsNBlob) { b.KernelNeed = b.KernelNeed[:tasks-1] }), false},
			{"WarpedSlicer: a launch flag over", ws, wsBlob(func(b *wsNBlob) { b.HaveKernel = append(b.HaveKernel, true) }), false},
			{"TAP: its own blob", tap, tapBlob(func(*tapNBlob) {}), true},
			{"TAP: a region short", tap, tapBlob(func(b *tapNBlob) { b.Regions = b.Regions[:tasks-1] }), false},
			{"TAP: a monitor over", tap, tapBlob(func(b *tapNBlob) { b.UMons = append(b.UMons, b.UMons[0]) }), false},
			{"TAP: a region id out of range", tap, tapBlob(func(b *tapNBlob) { b.Regions[0].Task = tasks + 3 }), false},
			{"TAP: a region id twice", tap, tapBlob(func(b *tapNBlob) { b.Regions[1].Task = 0 }), false},
		} {
			err := row.p.RestoreState(row.blob)
			if row.ok && err != nil {
				t.Errorf("tasks=%d: %s: refused: %v", tasks, row.name, err)
			}
			if se, isSim := robust.AsSimError(err); !row.ok && (!isSim || se.Kind != robust.KindSnapshot) {
				t.Errorf("tasks=%d: %s: got %v, want a snapshot error", tasks, row.name, err)
			}
		}
	}
}
