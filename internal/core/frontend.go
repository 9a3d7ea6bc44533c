package core

import (
	"container/list"
	"errors"
	"sync"
	"unsafe"

	"crisp/internal/compute"
	"crisp/internal/render"
	"crisp/internal/trace"
)

// FrontendBudget bounds the bytes a Frontend retains. It is a measured
// constant, not a knob: 64 MiB holds the whole job list of crispd's
// closed-loop benchmark (1.8× the throughput for +16% peak RSS when it was
// set; since traces pack their lane addresses that list retains 39 MiB, NN's
// 20 included, and every compute workload and every scene at 320×180 is
// under the half-budget bypass); 192 MiB read +22% to +62% RSS for a few
// percent more (docs/PERFORMANCE.md).
const FrontendBudget = 64 << 20

// Frontend memoizes front-end products — rendered frames and compute
// workloads — by content address, so a trace is collected once and
// replayed under many policies and configurations, as the paper's
// trace-driven design intends. RenderScene(name, opts) and
// compute.ByName(name, ComputeStreamBase) are pure functions of their
// arguments, so the arguments are the key.
//
// Builds are single-flight per key; retained entries are evicted least
// recently used under FrontendBudget; an entry larger than half the budget
// is handed to its waiters and not retained. Everything a Frontend returns
// is shared and read-only: the timing model copies kernel headers onto its
// own stream ids (addPairStreams, addTenantStreams) and never writes to
// instructions, addresses or CTAs.
//
// A nil *Frontend is a passthrough to the uncached builders. Safe for
// concurrent use.
type Frontend struct {
	budget int64

	mu      sync.Mutex
	entries map[frontendKey]*frontendEntry
	lru     list.List // retained entries, most recently used first
	used    int64
	stats   FrontendStats
}

// frontendKey addresses one product: a frame by scene and render options,
// or a compute workload by name (scene empty).
type frontendKey struct {
	scene   string
	opts    render.Options
	compute string
}

// frameKey addresses a rendered frame. The whole Options struct is the
// key, so a field added to it keys the cache without an edit here.
func frameKey(sceneName string, opts render.Options) frontendKey {
	return frontendKey{scene: sceneName, opts: opts}
}

type frontendEntry struct {
	key   frontendKey
	ready chan struct{} // closed once frame/work/err are set
	frame *render.Result
	work  *compute.Workload
	err   error
	size  int64
	elem  *list.Element // nil while building and when not retained
}

// FrontendStats is a point-in-time counter snapshot.
type FrontendStats struct {
	// Hits counts lookups answered without building (waiters on an
	// in-flight build included); Misses counts builds started.
	Hits, Misses int64
	// Evictions counts retained entries dropped to stay under the budget.
	Evictions int64
	// Bytes and Entries describe what is retained now.
	Bytes   int64
	Entries int
}

// NewFrontend returns an empty cache with the FrontendBudget.
func NewFrontend() *Frontend { return newFrontend(FrontendBudget) }

func newFrontend(budget int64) *Frontend {
	return &Frontend{budget: budget, entries: make(map[frontendKey]*frontendEntry)}
}

// Frame returns the rendered frame of a named scene, rendering it on the
// first request. The result is shared: callers must not modify it.
func (f *Frontend) Frame(sceneName string, opts render.Options) (*render.Result, error) {
	if f == nil {
		return RenderScene(sceneName, opts)
	}
	e := f.get(frameKey(sceneName, opts), func(e *frontendEntry) {
		if e.frame, e.err = RenderScene(sceneName, opts); e.err == nil {
			e.size = frameBytes(e.frame)
		}
	})
	return e.frame, e.err
}

// Compute returns a named compute workload on the conventional stream
// base, building it on the first request. The result is shared: callers
// must not modify it.
func (f *Frontend) Compute(name string) (*compute.Workload, error) {
	if f == nil {
		return compute.ByName(name, ComputeStreamBase)
	}
	e := f.get(frontendKey{compute: name}, func(e *frontendEntry) {
		if e.work, e.err = compute.ByName(name, ComputeStreamBase); e.err == nil {
			e.size = workloadBytes(e.work)
		}
	})
	return e.work, e.err
}

// MixEnv materializes a mix's workloads through the cache.
func (f *Frontend) MixEnv() MixEnv {
	return MixEnv{Render: f.Frame, Compute: f.Compute}
}

// Stats returns the current counters (zero for a nil Frontend).
func (f *Frontend) Stats() FrontendStats {
	if f == nil {
		return FrontendStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Bytes, st.Entries = f.used, f.lru.Len()
	return st
}

// get returns the completed entry for key, running build on exactly one
// of the callers that find it absent.
func (f *Frontend) get(key frontendKey, build func(*frontendEntry)) *frontendEntry {
	f.mu.Lock()
	if e, ok := f.entries[key]; ok {
		f.stats.Hits++
		if e.elem != nil {
			f.lru.MoveToFront(e.elem)
		}
		f.mu.Unlock()
		<-e.ready
		return e
	}
	e := &frontendEntry{key: key, ready: make(chan struct{})}
	f.entries[key] = e
	f.stats.Misses++
	f.mu.Unlock()

	// A build that panics must still release its waiters and leave no
	// entry behind; the panic itself keeps unwinding to the facade's
	// recovery.
	e.err = errors.New("core: front-end build panicked")
	defer func() {
		f.mu.Lock()
		f.settle(e)
		f.mu.Unlock()
		close(e.ready)
	}()
	build(e)
	return e
}

// settle retains a built entry or forgets it (caller holds f.mu). Failed
// builds are never cached, so an unknown name errors on every call;
// oversize products would evict everything else for one key.
func (f *Frontend) settle(e *frontendEntry) {
	if e.err != nil || e.size > f.budget/2 {
		delete(f.entries, e.key)
		return
	}
	e.elem = f.lru.PushFront(e)
	f.used += e.size
	for f.used > f.budget {
		f.drop(f.lru.Back())
		f.stats.Evictions++
	}
}

// drop removes a retained entry (caller holds f.mu). Jobs already holding
// its product keep it alive; only the cache's reference goes.
func (f *Frontend) drop(el *list.Element) {
	e := f.lru.Remove(el).(*frontendEntry)
	e.elem = nil
	f.used -= e.size
	delete(f.entries, e.key)
}

// frameBytes is the heap a rendered frame holds: every kernel's trace,
// the framebuffer, and the per-stream and per-draw records.
func frameBytes(r *render.Result) int64 {
	n := int64(unsafe.Sizeof(*r)) +
		int64(cap(r.Color))*int64(unsafe.Sizeof(r.Color[0])) +
		int64(cap(r.Metrics))*int64(unsafe.Sizeof(render.DrawMetrics{})) +
		int64(cap(r.Streams))*int64(unsafe.Sizeof(render.StreamTrace{}))
	for i := range r.Streams {
		n += kernelsBytes(r.Streams[i].Kernels)
	}
	return n
}

// workloadBytes is the heap a compute workload holds.
func workloadBytes(w *compute.Workload) int64 {
	return int64(unsafe.Sizeof(*w)) + kernelsBytes(w.Kernels)
}

func kernelsBytes(ks []*trace.Kernel) int64 {
	n := int64(cap(ks)) * int64(unsafe.Sizeof((*trace.Kernel)(nil)))
	for _, k := range ks {
		n += k.SizeBytes()
	}
	return n
}
