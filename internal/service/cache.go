package service

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	crisp "crisp"
	"crisp/internal/config"
	"crisp/internal/scenario"
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
		ConfigDigest: config.Digest(r.spec.GPU),
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

// resultCache is the content-addressed result store: an in-memory map,
// mirrored to <stateDir>/results/<digest>.json when persistence is on so
// a restarted daemon serves yesterday's results without re-simulating.
type resultCache struct {
	mu  sync.Mutex
	m   map[string]*StoredResult
	dir string // "" = memory only
}

func newResultCache(dir string) *resultCache {
	return &resultCache{m: make(map[string]*StoredResult), dir: dir}
}

func (c *resultCache) get(digest string) (*StoredResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sr, ok := c.m[digest]
	return sr, ok
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// put stores the result, persisting it best-effort: a full disk must not
// fail a simulation that already succeeded.
func (c *resultCache) put(sr *StoredResult) {
	c.mu.Lock()
	c.m[sr.Digest] = sr
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err == nil {
		writeJSONAtomic(filepath.Join(c.dir, sr.Digest+".json"), sr)
	}
}

// load reads every persisted result into memory (startup). A corrupt
// entry is set aside (renamed *.corrupt, logged) and costs one
// re-simulation — it never aborts the boot.
func (c *resultCache) load() {
	if c.dir == "" {
		return
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".series.json") {
			continue
		}
		path := filepath.Join(c.dir, name)
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var sr StoredResult
		if err := json.Unmarshal(b, &sr); err != nil || sr.Digest == "" {
			if aside := quarantineFile(path); aside != "" {
				log.Printf("crispd: corrupt cached result %s set aside as %s", path, aside)
			}
			continue
		}
		c.mu.Lock()
		c.m[sr.Digest] = &sr
		c.mu.Unlock()
	}
}
