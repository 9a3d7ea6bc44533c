package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	crisp "crisp"
	"crisp/internal/obs"
	"crisp/internal/scenario"
	"crisp/internal/snapshot"
)

// StoredResult is the JSON-serializable summary a completed job leaves in
// the content-addressed result cache. It carries everything the paper's
// experiments compare runs by — cycle count, frame time, scheduler slot
// conservation, per-task statistics — plus the stats digest, which two
// runs share iff their results are bit-identical.
type StoredResult struct {
	Digest       string `json:"digest"`
	GPU          string `json:"gpu"`
	ConfigDigest string `json:"config_digest"`
	Scene        string `json:"scene,omitempty"`
	Compute      string `json:"compute,omitempty"`
	// Scenario is the mix name for N-tenant scenario jobs (Scene/Compute
	// empty); Tenants/DeadlinesMet/DeadlinesMissed summarize its QoS report.
	Scenario        string `json:"scenario,omitempty"`
	Tenants         int    `json:"tenants,omitempty"`
	DeadlinesMet    int    `json:"deadlines_met,omitempty"`
	DeadlinesMissed int    `json:"deadlines_missed,omitempty"`
	Policy          string `json:"policy"`

	Cycles      int64   `json:"cycles"`
	FrameTimeMS float64 `json:"frame_time_ms"`
	// StatsDigest is the FNV hash of makespan + scheduler slots + every
	// per-stream counter (core.Result.StatsDigest), in hex.
	StatsDigest string      `json:"stats_digest"`
	SchedSlots  int64       `json:"sched_slots"`
	EmptySlots  int64       `json:"empty_slots"`
	L2Lines     int         `json:"l2_lines"`
	Kernels     int         `json:"kernels"`
	Tasks       []TaskStats `json:"tasks"`

	// Host-side accounting (informational; not content-addressed).
	SimWallMS float64 `json:"sim_wall_ms"`
	Resumed   bool    `json:"resumed,omitempty"`
}

// TaskStats is one task's end-of-run statistics.
type TaskStats struct {
	Task        int     `json:"task"`
	WarpInsts   int64   `json:"warp_insts"`
	IPC         float64 `json:"ipc"`
	L1HitRate   float64 `json:"l1_hit_rate"`
	L2HitRate   float64 `json:"l2_hit_rate"`
	DRAMReadKB  int64   `json:"dram_read_kb"`
	DRAMWriteKB int64   `json:"dram_write_kb"`
}

// storedFromResult summarizes a completed simulation for the cache.
func storedFromResult(r *resolved, res *crisp.Result, wallMS float64) (*StoredResult, error) {
	sd, err := res.StatsDigest()
	if err != nil {
		return nil, err
	}
	sr := &StoredResult{
		Digest:       r.digest,
		GPU:          r.spec.GPU.Name,
		ConfigDigest: snapshot.ConfigDigest(r.spec.GPU),
		Scene:        r.spec.Scene,
		Compute:      r.spec.Compute,
		Policy:       string(res.Policy),
		Cycles:       res.Cycles,
		FrameTimeMS:  res.FrameTimeMS,
		StatsDigest:  fmt.Sprintf("%016x", sd),
		SchedSlots:   res.SchedSlots,
		EmptySlots:   res.EmptySlots,
		L2Lines:      res.L2Lines,
		Kernels:      len(res.Kernels),
		SimWallMS:    wallMS,
		Resumed:      res.Resumed,
	}
	if len(r.spec.Mix) > 0 {
		var mix scenario.MixSpec
		if err := json.Unmarshal(r.spec.Mix, &mix); err != nil {
			return nil, err
		}
		sr.Scenario = mix.Name
	}
	if res.QoS != nil {
		sr.Tenants = len(res.QoS.Tenants)
		for _, tr := range res.QoS.Tenants {
			sr.DeadlinesMet += tr.DeadlinesMet
			sr.DeadlinesMissed += tr.DeadlinesMissed
		}
	}
	tasks := make([]int, 0, len(res.PerTask))
	for task := range res.PerTask {
		tasks = append(tasks, task)
	}
	sort.Ints(tasks)
	for _, task := range tasks {
		st := res.PerTask[task]
		sr.Tasks = append(sr.Tasks, TaskStats{
			Task:        task,
			WarpInsts:   st.WarpInsts,
			IPC:         st.IPC(),
			L1HitRate:   st.L1HitRate(),
			L2HitRate:   st.L2HitRate(),
			DRAMReadKB:  st.DRAMReads / 1024,
			DRAMWriteKB: st.DRAMWrites / 1024,
		})
	}
	return sr, nil
}

// resultStore owns a results directory, the content-addressed store of
// completed runs: <digest>.json holds a StoredResult and
// <digest>.series.json its interval series. A digest names one
// simulation, so an entry never changes once written: reads are kept in
// memory and the directory is consulted only on a miss. With no directory
// the store is memory only.
//
// The daemon's store (newResultStore) is the directory's one writer, and
// sets a file that no longer parses aside as *.corrupt so it is not read
// again. A reader's store (readResultStore: crispviz -serve) writes and
// renames nothing: a corrupt file is a miss there, left where it is.
type resultStore struct {
	dir      string
	readOnly bool

	mu      sync.Mutex
	results map[string]*StoredResult
	samples map[string][]obs.Sample
}

// newResultStore opens the daemon's store over dir ("" = memory only),
// loading every persisted result at once: a corrupt one is set aside and
// costs one re-simulation, never the boot.
func newResultStore(dir string) *resultStore {
	st := readResultStore(dir)
	st.readOnly = false
	st.list()
	return st
}

// readResultStore opens dir for reading only.
func readResultStore(dir string) *resultStore {
	return &resultStore{dir: dir, readOnly: true,
		results: make(map[string]*StoredResult), samples: make(map[string][]obs.Sample)}
}

// get returns the result stored under digest.
func (st *resultStore) get(digest string) (*StoredResult, bool) {
	return load(st, st.results, digest, ".json", func(sr *StoredResult) bool { return sr != nil && sr.Digest == digest })
}

// series returns the interval series stored under digest.
func (st *resultStore) series(digest string) ([]obs.Sample, bool) {
	return load(st, st.samples, digest, ".series.json", func([]obs.Sample) bool { return true })
}

// load returns m[digest], reading <digest><ext> into it on a miss. A
// file that does not decode into a value valid accepts is corrupt.
func load[T any](st *resultStore, m map[string]T, digest, ext string, valid func(T) bool) (v T, ok bool) {
	st.mu.Lock()
	v, ok = m[digest]
	st.mu.Unlock()
	if ok || st.dir == "" || !validDigest(digest) {
		return v, ok
	}
	path := filepath.Join(st.dir, digest+ext)
	b, err := os.ReadFile(path)
	if err != nil {
		return v, false
	}
	if err := json.Unmarshal(b, &v); err != nil || !valid(v) {
		if !st.readOnly {
			if aside := quarantineFile(path); aside != "" {
				log.Printf("corrupt %s set aside as %s", path, aside)
			}
		}
		var zero T
		return zero, false
	}
	st.mu.Lock()
	m[digest] = v
	st.mu.Unlock()
	return v, true
}

// put stores a result. Like every write here it persists best effort: a
// full disk must not fail a simulation that already succeeded.
func (st *resultStore) put(sr *StoredResult) {
	st.mu.Lock()
	st.results[sr.Digest] = sr
	st.mu.Unlock()
	if st.writable() {
		writeJSONAtomic(filepath.Join(st.dir, sr.Digest+".json"), sr)
	}
}

// putSeries stores a completed run's interval series (an empty one stays
// in memory).
func (st *resultStore) putSeries(digest string, samples []obs.Sample) {
	st.mu.Lock()
	st.samples[digest] = samples
	st.mu.Unlock()
	if len(samples) > 0 && st.writable() {
		snapshot.WriteAtomic(filepath.Join(st.dir, digest+".series.json"), func(w io.Writer) error {
			return json.NewEncoder(w).Encode(samples)
		})
	}
}

// writable reports whether puts reach the directory, creating it.
func (st *resultStore) writable() bool {
	return st.dir != "" && !st.readOnly && os.MkdirAll(st.dir, 0o755) == nil
}

// len is how many results are in memory.
func (st *resultStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.results)
}

// list returns every result in the directory, in digest order.
func (st *resultStore) list() ([]*StoredResult, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []*StoredResult
	for _, e := range ents {
		if d, ok := strings.CutSuffix(e.Name(), ".json"); ok && !e.IsDir() {
			if sr, ok := st.get(d); ok {
				out = append(out, sr)
			}
		}
	}
	return out, nil
}

// validDigest accepts exactly the canonical job-digest shape (16 hex
// digits), keeping URL path values out of filesystem paths otherwise.
func validDigest(d string) bool {
	if len(d) != 16 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// mount serves the store's two by-digest routes, on crispd and crispviz
// alike:
//
//	GET /v1/results/{digest}  a stored result
//	GET /v1/series/{digest}   a stored series, windowed by ?from=&to=
//	                          (the UI's A/B diff source)
func (st *resultStore) mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/results/{digest}", st.handleResult)
	mux.HandleFunc("GET /v1/series/{digest}", st.handleSeries)
}

func (st *resultStore) handleResult(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	sr, ok := st.get(digest)
	if !ok {
		httpError(w, http.StatusNotFound, "no cached result for digest "+digest)
		return
	}
	writeJSON(w, http.StatusOK, sr)
}

func (st *resultStore) handleSeries(w http.ResponseWriter, r *http.Request) {
	if v, ok := st.seriesView(w, r, r.PathValue("digest")); ok {
		writeJSON(w, http.StatusOK, v)
	}
}

// seriesView is the series stored under digest, windowed by the
// request's ?from=&to=. It answers 404 or 400 itself when it returns
// false.
func (st *resultStore) seriesView(w http.ResponseWriter, r *http.Request, digest string) (seriesView, bool) {
	samples, ok := st.series(digest)
	if !ok {
		httpError(w, http.StatusNotFound, "no stored series for digest "+digest)
		return seriesView{}, false
	}
	from, to, ok := cycleWindow(w, r)
	if !ok {
		return seriesView{}, false
	}
	samples = windowSamples(samples, from, to)
	v := seriesView{Digest: digest, From: from, To: to, Samples: samples,
		SeriesDigest: fmt.Sprintf("%016x", obs.SamplesDigest(samples))}
	if sr, ok := st.get(digest); ok {
		v.StatsDigest = sr.StatsDigest
	}
	return v, true
}
