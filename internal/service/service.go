// Package service is crispd's batch-simulation engine: bounded admission,
// a content-addressed result cache keyed by the canonical job digest, and
// one supervisor (coordinator.go) that runs every simulation as a
// checkpointed task through the crisp facade.
//
// Identical submissions never simulate twice: a digest already cached
// completes instantly as a cache hit, and one already queued or running
// attaches to that execution (coalescing) and completes when it does.
//
// A job is a sweep of one: Submit builds one task owned by the Job where
// SubmitSweep builds N owned by the Sweep, and both take the same path. A
// retryable failure (watchdog, budget, panic, injected chaos fault, worker
// crash — robust.Kind.Retryable) is retried after an
// exponential backoff with seeded jitter, resuming from the newest
// readable checkpoint; determinism makes the recovered run bit-identical
// to an uninterrupted one. A job adds persistence (job.go): it survives a
// drain or a crash of the daemon, and one that fails MaxAttempts times —
// counted across restarts — is quarantined with its crash dumps, never
// hot-looped. With Config.Isolate each attempt runs in a child worker
// process (worker.go), so a hard crash kills one attempt, not the daemon.
package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	crisp "crisp"
	"crisp/internal/core"
	"crisp/internal/obs"
	"crisp/internal/robust/chaos"
)

// Config configures a Server. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the FIFO queue of admitted-but-not-yet-running
	// jobs; submissions beyond it receive 429 + Retry-After. Default 64.
	QueueDepth int
	// Workers is the job pool's size: how many submitted jobs simulate
	// concurrently. Default 2.
	Workers int
	// Deprecated: RunWorkers selected the removed two-phase parallel
	// stepper. Nothing reads it; it stays only so the frozen bench/
	// compiles, and goes with the [benchmark] PR that drops the jN sub-pass.
	RunWorkers int
	// StateDir enables persistence: job specs, periodic checkpoints,
	// final snapshots, and the result cache live under it, and a
	// restarted daemon resumes unfinished jobs from there. "" = memory
	// only (drain cancels, nothing survives restart).
	StateDir string
	// DefaultBudget is the cycle budget applied to jobs that do not set
	// their own (0 = unlimited).
	DefaultBudget int64
	// WatchdogWindow is the default forward-progress watchdog window
	// (0 = simulator default, negative = off).
	WatchdogWindow int64
	// CheckpointEvery is the checkpoint cadence in cycles for persisted
	// jobs (0 = the core default, 100k cycles).
	CheckpointEvery int64
	// ProgressInterval is the obs interval-metrics cadence, which doubles
	// as the job progress feed. Default 4096 cycles.
	ProgressInterval int64
	// TimelineBuffer bounds each job's retained telemetry history in
	// events (samples + lifecycle markers). Late joiners and Last-Event-ID
	// reconnects replay from this ring; a cursor older than it forces a
	// full /series refetch. Default obs.DefaultHubCapacity.
	TimelineBuffer int
	// MaxTimelineSubs bounds live SSE subscribers per timeline hub; a
	// subscriber beyond it gets 503 + Retry-After instead of a stream, so
	// a subscriber flood cannot exhaust file descriptors. Default 256;
	// negative = unlimited.
	MaxTimelineSubs int

	// FleetWorkers is the sweep pool's shard count: how many sweep tasks
	// simulate concurrently. Default Workers.
	FleetWorkers int
	// HeartbeatEvery is an isolated worker's heartbeat cadence. A child
	// silent (no heartbeat, no sample) for 4 of these periods is presumed
	// hung, killed, and retried as a crash. Default 2.5s.
	HeartbeatEvery time.Duration
	// MaxSweeps bounds concurrently live (non-terminal) sweeps; beyond it
	// submissions get 429 + Retry-After. Default 16.
	MaxSweeps int
	// MaxSweepTasks bounds one sweep's grid expansion. Default 512.
	MaxSweepTasks int

	// MaxAttempts is the supervised-retry budget per task: a job that
	// fails retryably this many times (counted across daemon restarts) is
	// quarantined, a sweep task fails. Default DefaultMaxAttempts.
	MaxAttempts int
	// RetryBase and RetryMax bound the exponential backoff between
	// attempts (base·2^(n-1) capped at max, plus seeded jitter). Defaults
	// DefaultRetryBase / DefaultRetryMax.
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed keys the deterministic backoff jitter.
	RetrySeed int64
	// Isolate runs each execution attempt in a child worker process
	// speaking the stdio/JSON protocol in worker.go, so a hard crash
	// (SIGKILL, OOM, runtime fault) kills one attempt instead of the daemon.
	Isolate bool
	// WorkerCommand overrides the isolated worker command line. Empty =
	// re-exec this binary with CRISPD_WORKER=1 in the environment (both
	// cmd/crispd and the test binary intercept that and run WorkerMain).
	WorkerCommand []string
	// Chaos plants seeded faults into the execution path (kill at cycle N,
	// corrupt the newest checkpoint before a resume) — the recovery
	// machinery's test harness. Zero = no faults.
	Chaos chaos.Spec
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 4096
	}
	if c.TimelineBuffer <= 0 {
		c.TimelineBuffer = obs.DefaultHubCapacity
	}
	if c.MaxTimelineSubs == 0 {
		c.MaxTimelineSubs = 256
	}
	if c.FleetWorkers <= 0 {
		c.FleetWorkers = c.Workers
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2500 * time.Millisecond
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = DefaultMaxSweeps
	}
	if c.MaxSweepTasks <= 0 {
		c.MaxSweepTasks = DefaultMaxSweepTasks
	}
	return c
}

// Typed submission failures, mapped to HTTP statuses by the handler.
var (
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("service: draining, not admitting jobs")
)

// QueueFullError rejects a submission that found the queue at capacity
// (429); RetryAfter estimates when a slot will free up.
type QueueFullError struct {
	Depth      int
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: job queue full (%d queued); retry in %v", e.Depth, e.RetryAfter)
}

// ValidationError marks a malformed or unresolvable job spec (400).
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return "service: invalid job: " + e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// Server is the batch simulation service.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // submission order, for listing
	inflight map[string]*Job // digest → primary job (queued or running)
	queued   int             // primaries admitted and not yet started (admission bound)
	nextID   int
	draining bool

	// coord is the supervisor: both worker pools, retries and checkpoint
	// handoff for every task (coordinator.go).
	coord *coordinator

	// store is the content-addressed result store, <StateDir>/results.
	store *resultStore
	// frontend is the second cache tier: trace key → front-end product.
	// Every in-process attempt (of a job or a sweep task, first run or
	// retry from a checkpoint) builds its frame and compute workload through it,
	// so a scene is rendered once per server, not once per job. Isolated
	// children are one process per attempt and stay uncached.
	frontend *crisp.Frontend

	// chaosCtrl plants Config.Chaos's faults (nil = no chaos).
	chaosCtrl *chaos.Controller
	// ready flips true once startup recovery finished and the worker pool
	// is launched; /readyz serves 503 until then (and again while
	// draining).
	ready atomic.Bool

	// Counters (atomic: read by /metrics while workers run).
	execs      atomic.Int64 // simulator executions started
	hits       atomic.Int64 // submissions served from the completed cache
	coalesced  atomic.Int64 // submissions attached to an in-flight run
	done       atomic.Int64 // jobs reaching StateDone
	failed     atomic.Int64
	canceled   atomic.Int64
	quarantine atomic.Int64 // jobs quarantined after exhausting retries
	attempts   atomic.Int64 // execution attempts started (≥ execs)
	retries    atomic.Int64 // retry attempts (attempt number > 1)
	crashes    atomic.Int64 // isolated workers that died without a result
	fallbacks  atomic.Int64 // attempts whose resume scan set ≥1 checkpoint aside
	avgRunNS   atomic.Int64 // EWMA of execution wall time
	launchedAt time.Time
}

// New builds a Server, loading the persisted result cache and recovering
// unfinished jobs when cfg.StateDir is set. Call Start to launch the
// worker pools (tests submit against an un-started server to exercise
// admission control deterministically).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	resultsDir := ""
	if cfg.StateDir != "" {
		resultsDir = filepath.Join(cfg.StateDir, "results")
	}
	s := &Server{
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		store:      newResultStore(resultsDir),
		frontend:   crisp.NewFrontend(),
		chaosCtrl:  chaos.NewController(cfg.Chaos),
		launchedAt: time.Now(),
	}
	s.coord = newCoordinator(s)
	if cfg.StateDir != "" {
		s.coord.scanSweeps()
		if err := s.scanJobs(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Start launches the worker pools and marks the server ready: startup
// recovery (New's scanJobs pass) has finished by the time Start is called.
func (s *Server) Start() {
	s.coord.start()
	s.ready.Store(true)
}

// Ready reports readiness for /readyz: recovery finished, pool launched,
// not draining. Liveness (/healthz) is unconditional by contrast — a
// draining daemon is still alive.
func (s *Server) Ready() bool {
	return s.ready.Load() && !s.Draining()
}

// Submit validates, digests, and admits one job. The returned Job may
// already be done (cache hit). Errors: *ValidationError, ErrDraining,
// *QueueFullError.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	r, err := spec.resolve()
	if err != nil {
		return nil, &ValidationError{Err: err}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.nextID++
	job := s.newJob(fmt.Sprintf("j%06d", s.nextID), r.digest, spec)
	return job, s.admit(job, r, false)
}

func (s *Server) newJob(id, digest string, spec JobSpec) *Job {
	return &Job{ID: id, Digest: digest, Spec: spec, srv: s,
		hub: obs.NewHub(s.cfg.TimelineBuffer), state: StateQueued, created: time.Now()}
}

// admit routes a new job by digest (caller holds s.mu, or is New): an
// identical job already completed — done, as a cache hit; an identical
// job is queued or running — attach to it instead of simulating twice
// (single-flight); otherwise the job becomes a primary owning one task,
// queued for the worker pool. recovered marks a job read back from disk
// at startup: already persisted, and admitted past the queue bound.
func (s *Server) admit(job *Job, r *resolved, recovered bool) error {
	if _, ok := s.store.get(job.Digest); ok {
		job.cacheHit = true
		s.hits.Add(1)
		s.register(job)
		s.settle(job, StateDone, "cache hit: result "+job.Digest, nil)
		return nil
	}
	detail := ""
	if recovered {
		detail = "recovered from a previous daemon instance"
	}
	if primary, ok := s.inflight[job.Digest]; ok {
		job.coalesce = true
		primary.mu.Lock()
		primary.followers = append(primary.followers, job)
		primary.mu.Unlock()
		s.coalesced.Add(1)
		detail = "coalesced with " + primary.ID
		if recovered {
			detail = "recovered; " + detail
		}
	} else {
		// Admission control: the queue is bounded.
		if !recovered && s.queued >= s.cfg.QueueDepth {
			return &QueueFullError{Depth: s.queued, RetryAfter: s.retryAfter()}
		}
		s.queued++
		s.inflight[job.Digest] = job
		job.task = &sweepTask{id: job.ID, owner: job, queue: s.coord.jobQueue, spec: job.Spec, res: r, digest: r.digest,
			dir: s.jobDir(job), state: taskPending, attempts: job.failedAttempts}
	}
	s.register(job)
	if !recovered {
		s.persistJob(job)
	}
	job.noteLifecycle(StateQueued, detail)
	if job.task != nil {
		s.coord.jobQueue.push(job.task)
	}
	return nil
}

// register indexes the job (caller holds s.mu).
func (s *Server) register(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
}

// Job returns a tracked job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every tracked job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Result returns a cached result by digest.
func (s *Server) Result(digest string) (*StoredResult, bool) { return s.store.get(digest) }

// Cancel cancels a job: a queued job (or one waiting out a retry backoff)
// is dropped before execution, a running one has its attempt's context
// canceled — the run fails with a canceled SimError, leaves a final
// snapshot when persistence is on, and the job settles as that report
// comes back. Canceling a primary also cancels its coalesced followers —
// they were riding the execution that just died. Returns false when the
// job is already finished.
func (s *Server) Cancel(id string) (bool, error) {
	c := s.coord
	c.mu.Lock() // task state: is an attempt in flight?
	defer c.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return false, fmt.Errorf("service: unknown job %q", id)
	}
	job.mu.Lock()
	if job.state.terminal() {
		job.mu.Unlock()
		return false, nil
	}
	job.userStop = true
	t, failed := job.task, job.failedAttempts
	job.mu.Unlock()
	switch {
	case t != nil && t.state == taskLeased:
		// The attempt's report settles the job (Job.attemptStopped).
	case failed > 0:
		s.settle(job, StateCanceled, "canceled during retry backoff", nil)
	default:
		s.settle(job, StateCanceled, "canceled before execution", nil)
	}
	c.cancelLocked(func(rt *sweepTask) bool { return rt == t })
	return true, nil
}

// Drain gracefully shuts the server down: stop admitting, stop starting
// queued work, cancel running simulations (each flushes a final snapshot
// through the checkpoint layer when persistence is on), and wait for the
// workers to exit. Queued and drained jobs stay on disk for the next
// daemon. Returns when the pools are idle or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.coord.drain()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain timed out: %w", ctx.Err())
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// retryAfter estimates when a queue slot frees (caller holds s.mu): the
// EWMA execution time times the queue ahead, divided across the pool.
func (s *Server) retryAfter() time.Duration {
	avg := time.Duration(s.avgRunNS.Load())
	if avg <= 0 {
		avg = 2 * time.Second
	}
	est := avg * time.Duration(s.queued) / time.Duration(s.cfg.Workers)
	if est < time.Second {
		est = time.Second
	}
	if est > 2*time.Minute {
		est = 2 * time.Minute
	}
	return est
}

func (s *Server) observeRunTime(d time.Duration) {
	prev := s.avgRunNS.Load()
	if prev == 0 {
		s.avgRunNS.Store(int64(d))
		return
	}
	s.avgRunNS.Store((3*prev + int64(d)) / 4)
}

// Stats is a point-in-time counter snapshot (the /metrics payload and the
// test observables).
type Stats struct {
	QueueDepth    int
	QueueCapacity int
	Inflight      int
	Executions    int64
	CacheHits     int64
	Coalesced     int64
	Done          int64
	Failed        int64
	Canceled      int64
	CachedResults int
	Draining      bool
	Ready         bool
	UptimeSec     float64

	// Supervision counters.
	Attempts            int64 // execution attempts started (≥ Executions)
	Retries             int64 // attempts beyond each job's first
	Quarantined         int64 // jobs quarantined after exhausting retries
	WorkerCrashes       int64 // isolated workers dead without a result
	CheckpointFallbacks int64 // resumes that skipped ≥1 corrupt checkpoint
	ChaosKills          int64 // chaos faults fired: injected kills
	ChaosCorruptions    int64 // chaos faults fired: checkpoint corruptions

	// JobsByState counts every tracked job by current lifecycle state.
	JobsByState map[State]int

	// Skip-ratio telemetry summed over every tracked job's latest
	// interval sample: how much simulated time the event-driven engine
	// covered versus how many core steps it actually executed.
	CyclesSimulated int64
	StepsExecuted   int64
	StepsSkipped    int64
	BulkStallSlots  int64
	// Dispatcher telemetry, summed the same way: run-loop iterations in
	// which the global CTA scheduler swept the SMs, and those in which it
	// had nothing new to look at.
	DispatchSweeps  int64
	DispatchSkipped int64
	// StallReplays sums the scheduler slots answered from a stall record.
	StallReplays int64
	// Telemetry aggregates every job and sweep hub's counters: live
	// timeline subscribers, events published, and the slow-subscriber
	// drop counters.
	Subscribers    int
	TimelineEvents uint64
	SubsDropped    uint64
	EvsDropped     uint64

	// Fleet is the supervisor's counter snapshot (revocations, checkpoint
	// handoffs, federation).
	Fleet FleetStats

	// Frontend is the trace cache's counter snapshot: lookups answered
	// without building, builds, evictions, and bytes retained.
	Frontend core.FrontendStats
}

// addHub adds one timeline hub's counters to the telemetry sums.
func (st *Stats) addHub(hub *obs.Hub) {
	hs := hub.Stats()
	st.Subscribers += hs.Subscribers
	st.TimelineEvents += hs.Published
	st.SubsDropped += hs.SubsDropped
	st.EvsDropped += hs.EvsDropped
}

// Snapshot returns current server statistics.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	st := Stats{
		QueueDepth:    s.queued,
		QueueCapacity: s.cfg.QueueDepth,
		Inflight:      len(s.inflight),
		Draining:      s.draining,
		JobsByState:   make(map[State]int),
	}
	for _, j := range s.jobs {
		j.mu.Lock()
		st.JobsByState[j.state]++
		st.CyclesSimulated += j.last.CyclesSimulated
		st.StepsExecuted += j.last.StepsExecuted
		st.StepsSkipped += j.last.StepsSkipped
		st.BulkStallSlots += j.last.BulkStallSlots
		st.DispatchSweeps += j.last.DispatchSweeps
		st.DispatchSkipped += j.last.DispatchSkipped
		st.StallReplays += j.last.StallReplays
		j.mu.Unlock()
		st.addHub(j.hub)
	}
	s.mu.Unlock()
	for _, sw := range s.Sweeps() {
		st.addHub(sw.hub)
	}
	st.Executions = s.execs.Load()
	st.CacheHits = s.hits.Load()
	st.Coalesced = s.coalesced.Load()
	st.Done = s.done.Load()
	st.Failed = s.failed.Load()
	st.Canceled = s.canceled.Load()
	st.Attempts = s.attempts.Load()
	st.Retries = s.retries.Load()
	st.Quarantined = s.quarantine.Load()
	st.WorkerCrashes = s.crashes.Load()
	st.CheckpointFallbacks = s.fallbacks.Load()
	st.ChaosKills, st.ChaosCorruptions = s.chaosCtrl.Stats()
	st.Fleet = s.coord.stats()
	st.Frontend = s.frontend.Stats()
	st.CachedResults = s.store.len()
	st.Ready = s.Ready()
	st.UptimeSec = time.Since(s.launchedAt).Seconds()
	return st
}
