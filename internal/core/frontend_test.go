package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/fanout"
	"crisp/internal/render"
	"crisp/internal/scenario"
	"crisp/internal/scene"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
	"crisp/internal/trace/tracetest"
)

// foldRetained hashes every trace the cache retains, in LRU order.
func foldRetained(f *Frontend) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := snapshot.NewHasher()
	for el := f.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*frontendEntry)
		if e.frame != nil {
			for _, st := range e.frame.Streams {
				h.PutInt(st.Stream)
				h.PutStr(st.Label)
				tracetest.Fold(h, st.Kernels)
			}
		}
		if e.work != nil {
			h.PutStr(e.work.Name)
			tracetest.Fold(h, e.work.Kernels)
		}
	}
	return h.Sum64()
}

// sharedJob is one simulation by name: a pair under a policy, or a mix.
type sharedJob struct {
	label  string
	policy PolicyKind
	mix    *scenario.MixSpec
}

func (j sharedJob) run(fe *Frontend) (uint64, error) {
	cfg := config.JetsonOrin()
	var res *Result
	var err error
	if j.mix != nil {
		res, err = RunMixContext(context.Background(), cfg, *j.mix, j.policy, tinyOpts(), WithFrontend(fe))
	} else {
		res, err = RunPairContext(context.Background(), cfg, "SPL", "HOLO", j.policy, tinyOpts(), WithFrontend(fe))
	}
	if err != nil {
		return 0, err
	}
	return res.StatsDigest()
}

// TestFrontendSharedTracesReadOnly is the sharing contract: concurrent
// jobs under every policy, plus a three-tenant mix, replay one cached
// frame and one cached workload. Each must reproduce the digest of the
// same job on traces of its own, and the cached traces must come out
// bit-identical. Under -race, a write to a shared trace by any layer of
// the timing model is a reported race against the other jobs' reads.
func TestFrontendSharedTracesReadOnly(t *testing.T) {
	var jobs []sharedJob
	for _, pol := range PolicyKinds() {
		jobs = append(jobs, sharedJob{label: string(pol), policy: pol})
	}
	jobs = append(jobs, sharedJob{label: "mix", policy: PolicyEven, mix: &scenario.MixSpec{
		Name: "shared-three-way",
		Tenants: []scenario.Tenant{
			{Scene: "SPL", Priority: 1},
			{Name: "holo-now", Compute: "HOLO"},
			{Name: "holo-late", Compute: "HOLO", Arrival: scenario.Arrival{Kind: scenario.ArriveOffset, Offset: 3_000}},
		},
	}})

	want := make([]uint64, len(jobs))
	for i, j := range jobs {
		d, err := j.run(nil)
		if err != nil {
			t.Fatalf("%s on fresh traces: %v", j.label, err)
		}
		want[i] = d
	}

	fe := NewFrontend()
	if _, err := fe.Frame("SPL", tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Compute("HOLO"); err != nil {
		t.Fatal(err)
	}
	before := foldRetained(fe)

	const replicas = 2
	got := make([]uint64, replicas*len(jobs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = jobs[g%len(jobs)].run(fe)
		}(g)
	}
	wg.Wait()
	for g := range got {
		j := jobs[g%len(jobs)]
		if errs[g] != nil {
			t.Errorf("%s on shared traces: %v", j.label, errs[g])
		} else if got[g] != want[g%len(jobs)] {
			t.Errorf("%s: stats digest %016x on shared traces, %016x on fresh ones", j.label, got[g], want[g%len(jobs)])
		}
	}
	if after := foldRetained(fe); after != before {
		t.Errorf("cached traces changed under %d concurrent runs: fold %016x, was %016x", len(got), after, before)
	}
	st := fe.Stats()
	if st.Misses != 2 || st.Entries != 2 {
		t.Errorf("one frame and one workload should have been built once each: %+v", st)
	}
	// Pairs look up 2 products, the mix 3.
	if wantHits := int64(replicas * (2*len(PolicyKinds()) + 3)); st.Hits != wantHits {
		t.Errorf("hits = %d, want %d", st.Hits, wantHits)
	}
}

// fakeBuild is a build of a given size that counts its calls.
func fakeBuild(size int64, builds *int) func(*frontendEntry) {
	return func(e *frontendEntry) {
		*builds++
		e.work, e.err, e.size = &compute.Workload{}, nil, size
	}
}

func TestFrontendSingleFlight(t *testing.T) {
	fe := NewFrontend()
	const callers = 16
	start := make(chan struct{})
	out := make([]*compute.Workload, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			w, err := fe.Compute("HOLO")
			if err != nil {
				t.Error(err)
			}
			out[i] = w
		}(i)
	}
	close(start)
	wg.Wait()
	for i, w := range out {
		if w == nil || w != out[0] {
			t.Fatalf("caller %d got workload %p, caller 0 got %p", i, w, out[0])
		}
	}
	if st := fe.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("%d concurrent gets: %d builds and %d hits, want 1 and %d", callers, st.Misses, st.Hits, callers-1)
	}
}

func TestFrontendLRUOrderAndBudget(t *testing.T) {
	fe := newFrontend(100)
	builds := 0
	get := func(name string, size int64) {
		t.Helper()
		fe.get(frontendKey{compute: name}, fakeBuild(size, &builds))
		if st := fe.Stats(); st.Bytes > 100 {
			t.Fatalf("after %s: %d bytes retained over a budget of 100", name, st.Bytes)
		}
	}
	get("a", 40)
	get("b", 40)
	get("a", 40) // a is now more recent than b
	get("c", 40) // 120 > 100: b goes
	if st := fe.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("after a b a c: %+v, want 1 eviction and a, c retained", st)
	}
	builds = 0
	get("a", 40)
	get("c", 40)
	if builds != 0 {
		t.Errorf("a and c should have been retained, rebuilt %d", builds)
	}
	get("b", 40) // evicts a, the least recent of a, c
	if builds != 1 {
		t.Errorf("b should have been evicted and rebuilt, builds = %d", builds)
	}
	get("c", 40)
	if builds != 1 {
		t.Errorf("c was more recent than a and should have stayed, builds = %d", builds)
	}
	get("a", 40)
	if builds != 2 {
		t.Errorf("a should have been evicted for b, builds = %d", builds)
	}
	// One large entry pushes out several small ones.
	get("d", 50)
	if st := fe.Stats(); st.Bytes > 100 || st.Entries != 2 {
		t.Errorf("after d: %+v", st)
	}
}

// TestFrontendOversizeNotRetained: an entry over half the budget is
// shared with the callers waiting for it and then forgotten.
func TestFrontendOversizeNotRetained(t *testing.T) {
	fe := newFrontend(100)
	key := frontendKey{compute: "big"}
	building, release := make(chan struct{}), make(chan struct{})
	builds := 0
	build := func(e *frontendEntry) {
		close(building)
		<-release
		fakeBuild(51, &builds)(e)
	}
	const waiters = 4
	out := make([]*frontendEntry, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); out[0] = fe.get(key, build) }()
	<-building
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = fe.get(key, func(*frontendEntry) { t.Error("a waiter built") })
		}(i)
	}
	for fe.Stats().Hits < waiters { // every waiter has found the in-flight entry
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, e := range out {
		if e.work == nil || e.work != out[0].work {
			t.Errorf("caller %d did not share the one build", i)
		}
	}
	if st := fe.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Errorf("an entry of 51 under a budget of 100 was retained: %+v", st)
	}
	fe.get(key, fakeBuild(51, &builds))
	if builds != 2 {
		t.Errorf("builds = %d, want 2: the oversize entry must be rebuilt on the next get", builds)
	}
	fe.get(frontendKey{compute: "half"}, fakeBuild(50, &builds))
	if st := fe.Stats(); st.Entries != 1 || st.Bytes != 50 {
		t.Errorf("an entry of exactly half the budget is retained: %+v", st)
	}
}

func TestFrontendUnknownNamesNeverCached(t *testing.T) {
	fe := NewFrontend()
	for i := 1; i <= 2; i++ {
		if _, err := fe.Frame("NOPE", tinyOpts()); err == nil {
			t.Fatal("unknown scene rendered")
		}
		if _, err := fe.Compute("NOPE"); err == nil {
			t.Fatal("unknown compute workload built")
		}
		if _, err := RunPairContext(context.Background(), config.JetsonOrin(), "NOPE", "", PolicySerial, tinyOpts(), WithFrontend(fe)); err == nil {
			t.Fatal("RunPair accepted an unknown scene")
		}
		if st := fe.Stats(); st.Misses != int64(3*i) || st.Hits != 0 || st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("round %d: every call must miss and leave nothing behind: %+v", i, st)
		}
	}
	if len(fe.entries) != 0 {
		t.Errorf("%d failed builds still indexed", len(fe.entries))
	}
}

// TestFrontendBuildPanicReleasesWaiters: a panicking build unwinds to its
// caller, leaves no entry, and the next get builds again.
func TestFrontendBuildPanicReleasesWaiters(t *testing.T) {
	fe := newFrontend(100)
	key := frontendKey{compute: "boom"}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the build's panic was swallowed")
			}
		}()
		fe.get(key, func(*frontendEntry) { panic("boom") })
	}()
	if len(fe.entries) != 0 {
		t.Fatal("a panicked build left its entry behind")
	}
	builds := 0
	if e := fe.get(key, fakeBuild(10, &builds)); e.err != nil || builds != 1 {
		t.Errorf("get after a panicked build: err %v, builds %d", e.err, builds)
	}
}

// TestFrontendWorkerPanicReleasesWaiters: a front end that panics on one of
// its worker goroutines is still a build that panicked on the caller's —
// the builder recovers it, every waiter is released with an error, nothing
// stays indexed and no goroutine of the build survives it.
func TestFrontendWorkerPanicReleasesWaiters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	fe := newFrontend(1 << 20)
	key := frameKey("broken", tinyOpts())
	f, err := scene.ByName("SPL")
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Draws {
		f.Draws[i].Mat.Albedo = nil // only a fragment shader reads it
	}
	building, release := make(chan struct{}), make(chan struct{})
	build := func(e *frontendEntry) {
		close(building)
		<-release
		e.frame, e.err = render.RenderFrame(f, tinyOpts())
	}

	const waiters = 3
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if p, ok := recover().(*fanout.Panic); !ok || len(p.Stack) == 0 {
				t.Errorf("the builder recovered %v, want the fragment shader's panic with its stack", p)
			}
		}()
		fe.get(key, build)
	}()
	<-building
	errs := make([]error, waiters)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fe.get(key, func(*frontendEntry) { t.Error("a waiter built") }).err
		}()
	}
	for fe.Stats().Hits < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("waiter %d was handed a frame from a panicked build", i)
		}
	}
	if len(fe.entries) != 0 {
		t.Error("the panicked build left its entry behind")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before", runtime.NumGoroutine(), base)
		}
	}
}

func TestFrontendNilIsPassthrough(t *testing.T) {
	var fe *Frontend
	a, err := fe.Compute("HOLO")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fe.Compute("HOLO")
	if a == b {
		t.Error("a nil Frontend must build afresh on every call")
	}
	if _, err := fe.Frame("NOPE", tinyOpts()); err == nil {
		t.Error("unknown scene rendered")
	}
	if st := fe.Stats(); st != (FrontendStats{}) {
		t.Errorf("nil Frontend stats: %+v", st)
	}
}

// TestFrontendKeyCoversEveryRenderOption flips each field of
// render.Options in turn and requires a distinct cache key every time, so
// a field added later cannot alias two different frames.
func TestFrontendKeyCoversEveryRenderOption(t *testing.T) {
	base := tinyOpts()
	seen := map[frontendKey]string{frameKey("SPL", base): "the base options"}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		o := base
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("render.Options.%s has kind %s: teach this test to flip it, and check it belongs in a cache key", rt.Field(i).Name, f.Kind())
		}
		k := frameKey("SPL", o)
		if prev, dup := seen[k]; dup {
			t.Errorf("flipping render.Options.%s gives the key of %s", rt.Field(i).Name, prev)
		}
		seen[k] = "flipping " + rt.Field(i).Name
	}
	if frameKey("SPL", base) == frameKey("PT", base) {
		t.Error("the scene name is not part of the key")
	}
	if frameKey("VIO", render.Options{}) == (frontendKey{compute: "VIO"}) {
		t.Error("a scene and a compute workload of one name share a key")
	}
}

// TestFrontendRetainsEveryDefaultProduct: each compute workload and each
// scene at the zoo's default 320×180 is under half of FrontendBudget, so a
// default Frontend retains it — a second request is a hit, not a rebuild.
// (With one []uint64 per memory instruction NN alone was 68 MB.)
func TestFrontendRetainsEveryDefaultProduct(t *testing.T) {
	opts := render.DefaultOptions()
	opts.W, opts.H = 320, 180
	for _, name := range compute.Names() {
		fe := NewFrontend()
		for i := 0; i < 2; i++ {
			if _, err := fe.Compute(name); err != nil {
				t.Fatal(err)
			}
		}
		if st := fe.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
			t.Errorf("%s: %+v after two requests, want one build, retained", name, st)
		} else {
			t.Logf("%-8s %5.1f MiB", name, float64(st.Bytes)/(1<<20))
		}
	}
	for _, name := range scene.Names() {
		fe := NewFrontend()
		for i := 0; i < 2; i++ {
			if _, err := fe.Frame(name, opts); err != nil {
				t.Fatal(err)
			}
		}
		if st := fe.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
			t.Errorf("%s@320x180: %+v after two requests, want one build, retained", name, st)
		} else {
			t.Logf("%-8s %5.1f MiB", name, float64(st.Bytes)/(1<<20))
		}
	}
}

// TestTraceFootprint bounds what traces cost in memory, on the two sums
// the packed address records were sized against: NN's kernels, and every
// trace the bench's pairs-mem-bound job list holds at once (its four jobs
// build NN three times). At one []uint64 per memory instruction behind a
// 48-byte Inst these read 68.2 MB and 260.6 MB; with packed records behind a
// 20-byte Inst that every warp owned, 20.2 MiB and 85.8 MB.
func TestTraceFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("renders IT at 640x360")
	}
	sum := func(ks []*trace.Kernel) (n int64) {
		for _, k := range ks {
			n += k.SizeBytes()
		}
		return n
	}
	nn, err := compute.ByName("NN", ComputeStreamBase)
	if err != nil {
		t.Fatal(err)
	}
	nnBytes := sum(nn.Kernels)
	if nnBytes > 10<<20 {
		t.Errorf("NN's kernels hold %.1f MiB, want at most 10", float64(nnBytes)/(1<<20))
	}
	total := 3 * nnBytes
	vio, err := compute.ByName("VIO", ComputeStreamBase)
	if err != nil {
		t.Fatal(err)
	}
	total += sum(vio.Kernels)
	for _, f := range []struct {
		scene string
		w, h  int
	}{{"IT", 640, 360}, {"PT", 320, 180}, {"SPH", 320, 180}} {
		opts := render.DefaultOptions()
		opts.W, opts.H = f.w, f.h
		res, err := RenderScene(f.scene, opts)
		if err != nil {
			t.Fatal(err)
		}
		total += sum(frameKernels(res))
	}
	if total > 45e6 {
		t.Errorf("the pairs-mem-bound job list's traces hold %.1f MB, want at most 45", float64(total)/1e6)
	}
	t.Logf("NN %.1f MiB, pairs-mem-bound job list %.1f MB", float64(nnBytes)/(1<<20), float64(total)/1e6)
}

// TestWarpsShareProgram: warps that ran the same program share one
// instruction array. NN's 4,968 warps run 7 distinct programs (opcodes,
// registers, classes, masks), so its kernels hold at most 7 arrays, as
// built and as loaded — one per warp, 4,968, before programs were interned.
// (TestWorkloadDigestsPinned holds what the warps fold to.)
func TestWarpsShareProgram(t *testing.T) {
	nn, err := compute.ByName("NN", ComputeStreamBase)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := tracetest.Reload(nn.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		how string
		ks  []*trace.Kernel
	}{{"as built", nn.Kernels}, {"saved and loaded", loaded}} {
		arrays := map[*trace.Inst]bool{}
		warps := 0
		for _, k := range c.ks {
			for i := range k.CTAs {
				for j := range k.CTAs[i].Warps {
					arrays[&k.CTAs[i].Warps[j].Insts[0]] = true
					warps++
				}
			}
		}
		if len(arrays) > 7 {
			t.Errorf("%s: NN's %d warps hold %d instruction arrays, want at most 7", c.how, warps, len(arrays))
		}
		t.Logf("%s: %d warps, %d arrays", c.how, warps, len(arrays))
	}
}
