package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"crisp/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs               submit a job (201; 400 invalid; 429 queue
//	                              full + Retry-After; 503 draining)
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status + progress (+ result when done)
//	DELETE /v1/jobs/{id}          cancel a job (409 if already finished)
//	GET    /v1/jobs/{id}/timeline live telemetry stream (SSE: interval
//	                              samples, stall deltas, lifecycle events;
//	                              Last-Event-ID resumes)
//	GET    /v1/jobs/{id}/series   the buffered timeline as JSON, windowed
//	                              by ?from=&to= (cycle range)
//	GET    /v1/results/{digest}   fetch a cached result by content digest
//	GET    /v1/series/{digest}    fetch a completed job's interval series
//	                              by content digest (the A/B diff source)
//	POST   /v1/sweeps             submit a sweep: a policy × workload ×
//	                              config grid sharded across the fleet
//	                              (201; 400 invalid; 429 too many sweeps)
//	GET    /v1/sweeps             list sweeps
//	GET    /v1/sweeps/{id}        sweep status: per-task states, retry
//	                              accounting, merged digest when done
//	DELETE /v1/sweeps/{id}        cancel a sweep (409 if finished)
//	GET    /v1/sweeps/{id}/timeline merged sweep progress (SSE)
//	GET    /ui/                   embedded exploration UI (vanilla JS+SVG)
//	GET    /healthz               liveness: 200 while the process serves
//	GET    /readyz                readiness: 200 accepting work / 503 while
//	                              starting up or draining (route traffic away)
//	GET    /metrics               Prometheus-style text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /v1/jobs/{id}/series", s.handleJobSeries)
	s.store.mount(mux)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps", s.handleListSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancelSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/timeline", s.handleSweepTimeline)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mountUI(mux)
	return mux
}

// jobView is the wire form of a job's status.
type jobView struct {
	ID        string `json:"id"`
	Digest    string `json:"digest"`
	State     State  `json:"state"`
	Cached    bool   `json:"cached,omitempty"`    // served from the result cache at submit
	Coalesced bool   `json:"coalesced,omitempty"` // attached to an identical in-flight run
	Error     string `json:"error,omitempty"`

	Created  string `json:"created,omitempty"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`

	Progress *progressView `json:"progress,omitempty"`
	Result   *StoredResult `json:"result,omitempty"`
}

// progressView summarizes the job's telemetry ring: the newest interval
// sample plus how much history is buffered. A poller that missed samples
// sees the retained window here and fetches /series (or replays the
// timeline stream from a cursor) instead of losing them.
type progressView struct {
	Cycle int64          `json:"cycle"`
	Tasks []taskProgress `json:"tasks,omitempty"`
	// Samples is how many interval samples the timeline ring retains;
	// FirstCycle/LastCycle bound the retained window.
	Samples    int   `json:"samples"`
	FirstCycle int64 `json:"first_cycle"`
	LastCycle  int64 `json:"last_cycle"`
	// Events is the newest timeline sequence number — pass it as
	// Last-Event-ID to resume the SSE stream from here.
	Events uint64 `json:"events"`
}

type taskProgress struct {
	Stream int     `json:"stream"`
	Label  string  `json:"label"`
	IPC    float64 `json:"ipc"`
	Warps  int     `json:"warps"`
}

func (s *Server) viewOf(j *Job) jobView {
	j.mu.Lock()
	v := jobView{
		ID:        j.ID,
		Digest:    j.Digest,
		State:     j.state,
		Cached:    j.cacheHit,
		Coalesced: j.coalesce,
		Error:     j.errMsg,
		Created:   stamp(j.created),
		Started:   stamp(j.started),
		Finished:  stamp(j.finished),
	}
	j.mu.Unlock()

	if v.State == StateRunning {
		if ev, ok := j.hub.Latest(obs.TimelineSample); ok {
			pv := &progressView{Cycle: ev.Cycle, Events: j.hub.Stats().Published}
			for _, p := range ev.Sample.Points {
				pv.Tasks = append(pv.Tasks, taskProgress{Stream: p.Stream, Label: p.Label, IPC: p.IPC, Warps: p.Warps})
			}
			for _, e := range j.hub.Events(0, 0) {
				if e.Kind != obs.TimelineSample {
					continue
				}
				if pv.Samples == 0 {
					pv.FirstCycle = e.Cycle
				}
				pv.Samples++
				pv.LastCycle = e.Cycle
			}
			v.Progress = pv
		}
	}
	if v.State == StateDone {
		if sr, ok := s.store.get(v.Digest); ok {
			v.Result = sr
		}
	}
	return v
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "malformed job spec: "+err.Error())
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		submitError(w, err, "")
		return
	}
	writeJSON(w, http.StatusCreated, s.viewOf(job))
}

// submitError maps a Submit or SubmitSweep failure to its HTTP status;
// full, when set, replaces the 429 body.
func submitError(w http.ResponseWriter, err error, full string) {
	var ve *ValidationError
	var qf *QueueFullError
	switch {
	case errors.As(err, &ve):
		httpError(w, http.StatusBadRequest, ve.Error())
	case errors.As(err, &qf):
		if full == "" {
			full = qf.Error()
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(qf.RetryAfter.Round(time.Second)/time.Second)))
		httpError(w, http.StatusTooManyRequests, full)
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]jobView, 0, len(jobs))
	for _, j := range jobs {
		v := s.viewOf(j)
		v.Result = nil // keep the listing light; fetch one job for the payload
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.viewOf(job))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	okCancel, err := s.Cancel(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if !okCancel {
		httpError(w, http.StatusConflict, "job "+id+" already finished")
		return
	}
	job, _ := s.Job(id)
	writeJSON(w, http.StatusOK, s.viewOf(job))
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "malformed sweep spec: "+err.Error())
		return
	}
	sw, err := s.SubmitSweep(spec)
	if err != nil {
		submitError(w, err, "too many live sweeps; retry later")
		return
	}
	writeJSON(w, http.StatusCreated, s.viewOfSweep(sw, true))
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	sweeps := s.Sweeps()
	views := make([]sweepView, 0, len(sweeps))
	for _, sw := range sweeps {
		views = append(views, s.viewOfSweep(sw, false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": views})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.SweepByID(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.viewOfSweep(sw, true))
}

func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	okCancel, err := s.CancelSweep(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if !okCancel {
		httpError(w, http.StatusConflict, "sweep "+id+" already finished")
		return
	}
	sw, _ := s.SweepByID(id)
	writeJSON(w, http.StatusOK, s.viewOfSweep(sw, true))
}

// handleHealthz is liveness: the process is up and serving HTTP. It stays
// 200 through a drain — a draining daemon is still alive and must not be
// restarted by an orchestrator's liveness probe while it checkpoints.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 until startup recovery finished and the
// pool launched, and again once draining — the router-level "stop sending
// me work" signal.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.Draining():
		httpError(w, http.StatusServiceUnavailable, "draining")
	case !s.Ready():
		httpError(w, http.StatusServiceUnavailable, "starting: recovery in progress")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Snapshot()
	hitRate := 0.0
	if lookups := st.CacheHits + st.Executions; lookups > 0 {
		hitRate = float64(st.CacheHits) / float64(lookups)
	}
	jobsPerSec := 0.0
	if st.UptimeSec > 0 {
		jobsPerSec = float64(st.Done) / st.UptimeSec
	}
	draining := 0
	if st.Draining {
		draining = 1
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP crispd_queue_depth Jobs admitted but not yet running.\n")
	fmt.Fprintf(w, "# TYPE crispd_queue_depth gauge\ncrispd_queue_depth %d\n", st.QueueDepth)
	fmt.Fprintf(w, "# TYPE crispd_queue_capacity gauge\ncrispd_queue_capacity %d\n", st.QueueCapacity)
	fmt.Fprintf(w, "# HELP crispd_inflight Distinct job digests queued or running.\n")
	fmt.Fprintf(w, "# TYPE crispd_inflight gauge\ncrispd_inflight %d\n", st.Inflight)
	fmt.Fprintf(w, "# TYPE crispd_jobs_total counter\n")
	fmt.Fprintf(w, "crispd_jobs_total{state=\"done\"} %d\n", st.Done)
	fmt.Fprintf(w, "crispd_jobs_total{state=\"failed\"} %d\n", st.Failed)
	fmt.Fprintf(w, "crispd_jobs_total{state=\"canceled\"} %d\n", st.Canceled)
	fmt.Fprintf(w, "crispd_jobs_total{state=\"quarantined\"} %d\n", st.Quarantined)
	fmt.Fprintf(w, "# HELP crispd_jobs Tracked jobs by current lifecycle state.\n")
	fmt.Fprintf(w, "# TYPE crispd_jobs gauge\n")
	for _, state := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateQuarantined} {
		fmt.Fprintf(w, "crispd_jobs{state=%q} %d\n", state, st.JobsByState[state])
	}
	skipRatio := 0.0
	if visited := st.StepsExecuted + st.StepsSkipped; visited > 0 {
		skipRatio = float64(st.StepsSkipped) / float64(visited)
	}
	fmt.Fprintf(w, "# HELP crispd_sim_cycles Simulated cycles reached, summed over tracked jobs' latest samples.\n")
	fmt.Fprintf(w, "# TYPE crispd_sim_cycles gauge\ncrispd_sim_cycles %d\n", st.CyclesSimulated)
	fmt.Fprintf(w, "# HELP crispd_sim_steps_executed Core steps executed (event-driven sleeping skips the rest).\n")
	fmt.Fprintf(w, "# TYPE crispd_sim_steps_executed gauge\ncrispd_sim_steps_executed %d\n", st.StepsExecuted)
	fmt.Fprintf(w, "# HELP crispd_sim_steps_skipped Core steps skipped while cores slept until their wake cycle.\n")
	fmt.Fprintf(w, "# TYPE crispd_sim_steps_skipped gauge\ncrispd_sim_steps_skipped %d\n", st.StepsSkipped)
	fmt.Fprintf(w, "# HELP crispd_sim_bulk_stall_slots Scheduler stall slots accounted in bulk at core wake.\n")
	fmt.Fprintf(w, "# TYPE crispd_sim_bulk_stall_slots gauge\ncrispd_sim_bulk_stall_slots %d\n", st.BulkStallSlots)
	fmt.Fprintf(w, "# HELP crispd_sim_dispatch_sweeps Run-loop iterations in which the global CTA scheduler swept the SMs for placeable CTAs.\n")
	fmt.Fprintf(w, "# TYPE crispd_sim_dispatch_sweeps gauge\ncrispd_sim_dispatch_sweeps %d\n", st.DispatchSweeps)
	fmt.Fprintf(w, "# HELP crispd_sim_dispatch_skipped Run-loop iterations that skipped the sweep: no retire, launch or policy tick since the last one (0 under -no-skip).\n")
	fmt.Fprintf(w, "# TYPE crispd_sim_dispatch_skipped gauge\ncrispd_sim_dispatch_skipped %d\n", st.DispatchSkipped)
	fmt.Fprintf(w, "# HELP crispd_sim_stall_replays Scheduler issue slots a stalled scheduler answered from its recorded stall instead of scanning its warps (0 under -no-skip).\n")
	fmt.Fprintf(w, "# TYPE crispd_sim_stall_replays gauge\ncrispd_sim_stall_replays %d\n", st.StallReplays)
	fmt.Fprintf(w, "# HELP crispd_sim_skip_ratio Fraction of visited core steps skipped by sleeping (0 when idle or -no-skip).\n")
	fmt.Fprintf(w, "# TYPE crispd_sim_skip_ratio gauge\ncrispd_sim_skip_ratio %g\n", skipRatio)
	fmt.Fprintf(w, "# HELP crispd_attempts_total Supervised execution attempts started (>= executions).\n")
	fmt.Fprintf(w, "# TYPE crispd_attempts_total counter\ncrispd_attempts_total %d\n", st.Attempts)
	fmt.Fprintf(w, "# HELP crispd_retries_total Retry attempts: checkpoint-resumed re-executions after a retryable failure.\n")
	fmt.Fprintf(w, "# TYPE crispd_retries_total counter\ncrispd_retries_total %d\n", st.Retries)
	fmt.Fprintf(w, "# HELP crispd_quarantined_total Jobs quarantined after exhausting their retry budget.\n")
	fmt.Fprintf(w, "# TYPE crispd_quarantined_total counter\ncrispd_quarantined_total %d\n", st.Quarantined)
	fmt.Fprintf(w, "# HELP crispd_worker_crashes_total Isolated worker processes that died without reporting a result.\n")
	fmt.Fprintf(w, "# TYPE crispd_worker_crashes_total counter\ncrispd_worker_crashes_total %d\n", st.WorkerCrashes)
	fmt.Fprintf(w, "# HELP crispd_checkpoint_fallbacks_total Attempts whose resume scan set aside at least one unloadable checkpoint.\n")
	fmt.Fprintf(w, "# TYPE crispd_checkpoint_fallbacks_total counter\ncrispd_checkpoint_fallbacks_total %d\n", st.CheckpointFallbacks)
	fmt.Fprintf(w, "# TYPE crispd_chaos_kills_total counter\ncrispd_chaos_kills_total %d\n", st.ChaosKills)
	fmt.Fprintf(w, "# TYPE crispd_chaos_corruptions_total counter\ncrispd_chaos_corruptions_total %d\n", st.ChaosCorruptions)
	fmt.Fprintf(w, "# HELP crispd_fleet_shards Sweep-tier shard pool size.\n")
	fmt.Fprintf(w, "# TYPE crispd_fleet_shards gauge\ncrispd_fleet_shards %d\n", st.Fleet.Shards)
	fmt.Fprintf(w, "# TYPE crispd_sweeps_active gauge\ncrispd_sweeps_active %d\n", st.Fleet.SweepsActive)
	fmt.Fprintf(w, "# TYPE crispd_sweeps gauge\n")
	for _, state := range []State{StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "crispd_sweeps{state=%q} %d\n", state, st.Fleet.SweepsByState[state])
	}
	fmt.Fprintf(w, "# TYPE crispd_sweep_tasks_total counter\n")
	fmt.Fprintf(w, "crispd_sweep_tasks_total{state=\"done\"} %d\n", st.Fleet.TasksDone)
	fmt.Fprintf(w, "crispd_sweep_tasks_total{state=\"failed\"} %d\n", st.Fleet.TasksFailed)
	fmt.Fprintf(w, "# HELP crispd_lease_revocations_total Attempts lost to a retryable failure (crash, kill, watchdog, ...) and requeued.\n")
	fmt.Fprintf(w, "# TYPE crispd_lease_revocations_total counter\ncrispd_lease_revocations_total %d\n", st.Fleet.LeaseRevocations)
	fmt.Fprintf(w, "# HELP crispd_fleet_resumes_total Attempts (of jobs and sweep tasks) that restored a checkpoint an earlier attempt shipped.\n")
	fmt.Fprintf(w, "# TYPE crispd_fleet_resumes_total counter\ncrispd_fleet_resumes_total %d\n", st.Fleet.FleetResumes)
	fmt.Fprintf(w, "# HELP crispd_federated_cache_hits_total Task dispatches (jobs and sweep cells) answered from the shared result store without executing.\n")
	fmt.Fprintf(w, "# TYPE crispd_federated_cache_hits_total counter\ncrispd_federated_cache_hits_total %d\n", st.Fleet.FederatedHits)
	fmt.Fprintf(w, "# HELP crispd_timeline_subscribers Live timeline (SSE) subscriptions across all job and sweep hubs.\n")
	fmt.Fprintf(w, "# TYPE crispd_timeline_subscribers gauge\ncrispd_timeline_subscribers %d\n", st.Subscribers)
	fmt.Fprintf(w, "# TYPE crispd_timeline_events_total counter\ncrispd_timeline_events_total %d\n", st.TimelineEvents)
	fmt.Fprintf(w, "# HELP crispd_timeline_dropped_subscribers_total Subscribers dropped for lagging behind the broadcast.\n")
	fmt.Fprintf(w, "# TYPE crispd_timeline_dropped_subscribers_total counter\ncrispd_timeline_dropped_subscribers_total %d\n", st.SubsDropped)
	fmt.Fprintf(w, "# TYPE crispd_timeline_dropped_events_total counter\ncrispd_timeline_dropped_events_total %d\n", st.EvsDropped)
	fmt.Fprintf(w, "# HELP crispd_executions_total Simulator executions started (cache misses).\n")
	fmt.Fprintf(w, "# TYPE crispd_executions_total counter\ncrispd_executions_total %d\n", st.Executions)
	fmt.Fprintf(w, "# TYPE crispd_cache_hits_total counter\ncrispd_cache_hits_total %d\n", st.CacheHits)
	fmt.Fprintf(w, "# TYPE crispd_coalesced_total counter\ncrispd_coalesced_total %d\n", st.Coalesced)
	fmt.Fprintf(w, "# TYPE crispd_cached_results gauge\ncrispd_cached_results %d\n", st.CachedResults)
	fmt.Fprintf(w, "# HELP crispd_cache_hit_rate Cache hits over cache lookups (hits + executions).\n")
	fmt.Fprintf(w, "# TYPE crispd_cache_hit_rate gauge\ncrispd_cache_hit_rate %.6f\n", hitRate)
	fmt.Fprintf(w, "# HELP crispd_frontend_hits_total Front-end lookups (rendered frames, compute workloads) answered from the trace cache.\n")
	fmt.Fprintf(w, "# TYPE crispd_frontend_hits_total counter\ncrispd_frontend_hits_total %d\n", st.Frontend.Hits)
	fmt.Fprintf(w, "# HELP crispd_frontend_misses_total Front-end products built (trace cache misses).\n")
	fmt.Fprintf(w, "# TYPE crispd_frontend_misses_total counter\ncrispd_frontend_misses_total %d\n", st.Frontend.Misses)
	fmt.Fprintf(w, "# HELP crispd_frontend_evictions_total Front-end products evicted to stay under the 64 MiB budget.\n")
	fmt.Fprintf(w, "# TYPE crispd_frontend_evictions_total counter\ncrispd_frontend_evictions_total %d\n", st.Frontend.Evictions)
	fmt.Fprintf(w, "# HELP crispd_frontend_bytes Bytes of traces the front-end cache retains.\n")
	fmt.Fprintf(w, "# TYPE crispd_frontend_bytes gauge\ncrispd_frontend_bytes %d\n", st.Frontend.Bytes)
	fmt.Fprintf(w, "# TYPE crispd_jobs_per_sec gauge\ncrispd_jobs_per_sec %.6f\n", jobsPerSec)
	fmt.Fprintf(w, "# TYPE crispd_draining gauge\ncrispd_draining %d\n", draining)
	ready := 0
	if st.Ready {
		ready = 1
	}
	fmt.Fprintf(w, "# TYPE crispd_ready gauge\ncrispd_ready %d\n", ready)
	fmt.Fprintf(w, "# TYPE crispd_uptime_seconds gauge\ncrispd_uptime_seconds %.3f\n", st.UptimeSec)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
