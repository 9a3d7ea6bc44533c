package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"crisp/internal/obs"
	"crisp/internal/snapshot"
)

// SweepSpec is the submission body of POST /v1/sweeps: a policy ×
// workload × config grid (see Grid) plus the per-job options every cell
// shares. The coordinator expands it into one task per grid point, each
// content-addressed by the same snapshot.Spec.JobDigest a direct
// submission of that cell would get — which is what lets fleet results,
// single-node results, and cached results merge under one key.
type SweepSpec struct {
	// GPUs is the config axis. Each element is a JSON string naming a
	// built-in configuration ("JetsonOrin", "RTX3070") or a JSON object
	// holding an inline one, with the same semantics as a -config file;
	// a cell gets the first as JobSpec.GPU and the second as
	// JobSpec.Config.
	GPUs []json.RawMessage `json:"gpus,omitempty"`
	// Scenes, Computes, Policies are the other grid axes (see Grid): an
	// empty axis contributes one default entry; a "" element inside
	// Scenes/Computes means "no workload on this axis for that point".
	Scenes   []string `json:"scenes,omitempty"`
	Computes []string `json:"computes,omitempty"`
	Policies []string `json:"policies,omitempty"`
	// Scenarios lists N-tenant mix presets; each crosses with GPUs and
	// Policies and expands after the pair points (see Grid).
	Scenarios []string `json:"scenarios,omitempty"`
	// Shared per-cell options, forwarded into each JobSpec verbatim.
	Width          int   `json:"width,omitempty"`
	Height         int   `json:"height,omitempty"`
	LoD            *bool `json:"lod,omitempty"`
	CycleBudget    int64 `json:"cycle_budget,omitempty"`
	WatchdogWindow int64 `json:"watchdog_window,omitempty"`
}

// decompose expands the grid into concrete job specs, in the grid's
// deterministic order — decomposed twice (or on two coordinators), a
// sweep yields the same task list and therefore the same merged digest.
// The grid carries each GPUs element as its JSON text; only the element's
// kind is checked here, its content when each cell resolves.
func (sp *SweepSpec) decompose() ([]JobSpec, error) {
	gpus := make([]string, len(sp.GPUs))
	for i, el := range sp.GPUs {
		gpus[i] = string(el)
		if _, _, err := gpuOf(gpus[i]); err != nil {
			return nil, fmt.Errorf("gpus[%d]: %w", i, err)
		}
	}
	g := Grid{GPUs: gpus, Scenes: sp.Scenes, Computes: sp.Computes,
		Policies: sp.Policies, Scenarios: sp.Scenarios}
	pts := g.Points()
	if len(pts) == 0 {
		return nil, fmt.Errorf("sweep grid expands to zero runnable points (every cell needs a scene, a compute workload, or a scenario)")
	}
	specs := make([]JobSpec, 0, len(pts))
	for _, pt := range pts {
		js := JobSpec{
			Scene:          pt.Scene,
			Compute:        pt.Compute,
			Scenario:       pt.Scenario,
			Policy:         pt.Policy,
			Width:          sp.Width,
			Height:         sp.Height,
			LoD:            sp.LoD,
			CycleBudget:    sp.CycleBudget,
			WatchdogWindow: sp.WatchdogWindow,
		}
		if pt.GPU != "" {
			js.GPU, js.Config, _ = gpuOf(pt.GPU) // checked above
		}
		specs = append(specs, js)
	}
	return specs, nil
}

// gpuOf reads one GPUs element's JSON text: a string names a built-in
// config, an object is an inline one.
func gpuOf(el string) (name string, cfg json.RawMessage, err error) {
	switch {
	case strings.HasPrefix(el, "{"):
		return "", json.RawMessage(el), nil
	case strings.HasPrefix(el, `"`):
		err = json.Unmarshal([]byte(el), &name)
		return name, nil, err
	}
	return "", nil, fmt.Errorf("got %s, want a built-in config name (a JSON string) or an inline config (a JSON object)", el)
}

// Sweep is one tracked sweep submission. Mutable fields are guarded by
// the coordinator's mutex.
type Sweep struct {
	ID   string
	Spec SweepSpec
	c    *coordinator

	// hub is the sweep's merged progress stream: per-task lifecycle
	// markers (dispatch, commit, revocation) and the
	// shards' interval samples, interleaved — the same ring/SSE machinery
	// jobs use.
	hub *obs.Hub

	tasks []*sweepTask

	state    State
	canceled bool
	created  time.Time
	started  time.Time
	finished time.Time
	scratch  string // temp checkpoint root to remove when finished ("" = none)
	merged   string // merged digest, set when every task committed

	doneN   int
	failedN int
	// Per-sweep robustness accounting (mirrored by the server-wide
	// counters; these make one sweep's story self-contained).
	revoked int // attempts of this sweep's tasks lost and requeued
	resumes int // attempts that restored a shipped checkpoint
}

// lifecycle publishes a lifecycle marker on the sweep's timeline.
func (sw *Sweep) lifecycle(state State, detail string) {
	publishAtLatest(sw.hub, obs.TimelineEvent{Kind: obs.TimelineLifecycle, State: string(state), Detail: detail})
}

// publishAtLatest publishes a marker event stamped with the hub's last
// seen cycle (0 before the first sample).
func publishAtLatest(hub *obs.Hub, ev obs.TimelineEvent) {
	if last, ok := hub.Latest(""); ok {
		ev.Cycle = last.Cycle
	}
	hub.Publish(ev)
}

// ---- the owner seam: what a sweep adds to supervision ------------------
//
// A merged timeline of per-task markers, per-sweep robustness accounting,
// and a terminal state that waits for every task. Nothing is persisted:
// sweeps die with the process.

func (sw *Sweep) live() bool { return !sw.canceled && sw.state == StateRunning }

func (sw *Sweep) attemptStarted(t *sweepTask, n int) {
	sw.lifecycle(StateRunning, fmt.Sprintf("task %d (%s) on shard %d, attempt %d", t.index, t.digest, t.worker, n))
}

func (sw *Sweep) attemptResumed(t *sweepTask, n int, cycle int64) {
	sw.resumes++
	sw.lifecycle(StateRunning, fmt.Sprintf("task %d (%s) attempt %d resuming from shipped checkpoint at cycle %d", t.index, t.digest, n, cycle))
}

func (sw *Sweep) sample(smp obs.Sample) {
	sw.hub.Publish(obs.TimelineEvent{Cycle: smp.Cycle, Kind: obs.TimelineSample, Sample: &smp})
}

func (sw *Sweep) note(t *sweepTask, detail string) {
	sw.lifecycle(StateRunning, fmt.Sprintf("task %d (%s): %s", t.index, t.digest, detail))
}

func (sw *Sweep) attemptFailed(t *sweepTask, err error) { sw.revoked++ }

func (sw *Sweep) attemptStopped(t *sweepTask, err error) {}

func (sw *Sweep) taskDone(t *sweepTask) {
	sw.doneN++
	sw.c.tasksDone.Add(1)
	src := "executed"
	if t.cacheHit {
		src = "from federated cache"
	}
	sw.lifecycle(StateRunning, fmt.Sprintf("task %d (%s) done %s: stats_digest=%s (%d/%d)", t.index, t.digest, src, t.result.StatsDigest, sw.doneN, len(sw.tasks)))
	sw.c.maybeFinishLocked(sw)
}

// taskFailed: an exhausted attempt budget fails the task like any
// permanent failure — the sweep tier's quarantine equivalent.
func (sw *Sweep) taskFailed(t *sweepTask, err error, exhausted bool) {
	if exhausted {
		err = fmt.Errorf("task exhausted %d attempts: %w", t.attempts, err)
	}
	t.errMsg = err.Error()
	sw.failedN++
	sw.c.tasksFailed.Add(1)
	sw.lifecycle(StateFailed, fmt.Sprintf("task %d (%s) failed: %v", t.index, t.digest, err))
	sw.c.maybeFinishLocked(sw)
}

// mergedDigest folds the sweep's per-task (job digest, stats digest)
// pairs, in task order, through the canonical hasher. Two sweeps share a
// merged digest iff every cell produced bit-identical results — the
// fleet-vs-single-node convergence observable.
func (sw *Sweep) mergedDigest() string {
	h := snapshot.NewHasher()
	h.PutInt(len(sw.tasks))
	for _, t := range sw.tasks {
		h.PutStr(t.digest)
		if t.result != nil {
			h.PutStr(t.result.StatsDigest)
		} else {
			h.PutStr("")
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ---- wire views ------------------------------------------------------

// sweepTaskView is one task's status on the wire.
type sweepTaskView struct {
	Index       int       `json:"index"`
	Digest      string    `json:"digest"`
	State       taskState `json:"state"`
	Worker      int       `json:"worker,omitempty"`
	Attempts    int       `json:"attempts,omitempty"` // attempts started
	Resumed     bool      `json:"resumed,omitempty"`
	Cached      bool      `json:"cached,omitempty"`
	StatsDigest string    `json:"stats_digest,omitempty"`
	Error       string    `json:"error,omitempty"`
	Spec        JobSpec   `json:"spec"`
}

// sweepView is a sweep's status on the wire.
type sweepView struct {
	ID           string          `json:"id"`
	State        State           `json:"state"`
	Tasks        []sweepTaskView `json:"tasks,omitempty"`
	Total        int             `json:"total"`
	Done         int             `json:"done"`
	Failed       int             `json:"failed,omitempty"`
	MergedDigest string          `json:"merged_digest,omitempty"`
	Revocations  int             `json:"lease_revocations,omitempty"`
	Resumes      int             `json:"checkpoint_resumes,omitempty"`
	Created      string          `json:"created,omitempty"`
	Started      string          `json:"started,omitempty"`
	Finished     string          `json:"finished,omitempty"`
	// Events is the sweep timeline's newest sequence number — pass it as
	// Last-Event-ID to resume the SSE stream from here.
	Events uint64 `json:"events,omitempty"`
}
