// Package service is crispd's batch-simulation engine: a bounded FIFO job
// queue with admission control, a worker pool executing simulations
// through the crisp facade (cycle budgets, watchdogs, cooperative
// cancellation), a content-addressed result cache keyed by the canonical
// job digest, and a graceful drain protocol that checkpoints in-flight
// work through internal/snapshot so a restarted daemon resumes instead of
// re-simulating.
//
// Identical submissions never simulate twice: a submission whose digest is
// already cached completes instantly as a cache hit, and one whose digest
// is already queued or running attaches to that execution (coalescing)
// and completes when it does.
//
// Execution is supervised: a retryable failure (watchdog, budget, panic,
// injected chaos fault, worker crash — robust.Kind.Retryable) is retried
// with exponential backoff and seeded jitter, resuming from the job's
// newest readable checkpoint instead of cycle 0; determinism makes the
// recovered run bit-identical to an uninterrupted one. A job that fails
// MaxAttempts times — counted across daemon restarts via persisted
// attempt markers — is quarantined with its crash dumps, never
// hot-looped. With Config.Isolate, each attempt runs in a child worker
// process (worker.go), so a hard crash kills one job, not the daemon.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	crisp "crisp"
	"crisp/internal/core"
	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/robust/chaos"
	"crisp/internal/snapshot"
)

// Config configures a Server. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the FIFO queue of admitted-but-not-yet-running
	// jobs; submissions beyond it receive 429 + Retry-After. Default 64.
	QueueDepth int
	// Workers is the worker-pool size: how many simulations run
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

	// FleetWorkers is the sweep tier's shard count: how many sweep tasks
	// execute concurrently under lease-based supervision. Default Workers.
	FleetWorkers int
	// LeaseTTL bounds how long a shard may go without renewing its task
	// lease (heartbeats, samples) before the coordinator presumes it dead,
	// revokes the lease, and reassigns the task. Default 10s.
	LeaseTTL time.Duration
	// HeartbeatEvery is the lease-renewal cadence. Default LeaseTTL/4.
	HeartbeatEvery time.Duration
	// MaxSweeps bounds concurrently live (non-terminal) sweeps; beyond it
	// submissions get 429 + Retry-After. Default 16.
	MaxSweeps int
	// MaxSweepTasks bounds one sweep's grid expansion. Default 512.
	MaxSweepTasks int

	// MaxAttempts is the supervised-retry budget per job: a job whose
	// execution fails retryably this many times (counted across daemon
	// restarts) is quarantined. Default DefaultMaxAttempts.
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
	// (SIGKILL, OOM, runtime fault) kills one job instead of the daemon.
	Isolate bool
	// WorkerCommand overrides the isolated worker command line. Empty =
	// re-exec this binary with CRISPD_WORKER=1 in the environment (both
	// cmd/crispd and the test binary intercept that and run WorkerMain).
	WorkerCommand []string
	// Chaos plants seeded faults into the execution path (kill at cycle N,
	// corrupt the newest checkpoint before a resume, delay completion) —
	// the recovery machinery's test harness. Zero = no faults.
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
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.LeaseTTL / 4
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.MaxSweeps <= 0 {
		c.MaxSweeps = DefaultMaxSweeps
	}
	if c.MaxSweepTasks <= 0 {
		c.MaxSweepTasks = DefaultMaxSweepTasks
	}
	return c
}

// State is a job's lifecycle state.
type State string

// The job lifecycle: queued → running → done | failed | canceled |
// quarantined. Cache hits and coalesced duplicates move queued → done
// without running. Quarantined is the poison-job terminal state: the job
// exhausted its retry budget; its directory (crash dumps, checkpoints,
// attempt markers) is kept for postmortems and survives restarts.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateQuarantined State = "quarantined"
)

// Job is one tracked submission.
type Job struct {
	ID     string
	Digest string
	Spec   JobSpec

	res *resolved

	// hub is the job's telemetry stream: interval samples published from
	// the simulation goroutine interleaved with lifecycle markers. It
	// backs the timeline SSE endpoint, the windowed /series view, and the
	// progress section of the job status — one ring, every reader.
	hub *obs.Hub

	mu       sync.Mutex
	state    State
	errMsg   string
	cacheHit bool // served from the completed-result cache at submit
	coalesce bool // attached to an identical in-flight execution
	userStop bool // canceled via DELETE
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	// followers are coalesced duplicates completed alongside this
	// (primary) job.
	followers []*Job
	// resumeFrom, when non-empty, is a snapshot path/dir the execution
	// restores from (a restarted daemon's recovered job).
	resumeFrom string
	// failedAttempts counts execution attempts that failed retryably,
	// including ones recorded by previous daemon instances (attempts.json)
	// — the quarantine threshold compares against this.
	failedAttempts int
	// Skip-ratio telemetry from the latest interval sample: cumulative
	// counters for the job's current execution attempt (engine core
	// sleeping — see gpu.GPU's stepCores). Guarded by mu.
	simCycles    int64
	stepsExec    int64
	stepsSkipped int64
	bulkStalls   int64
	dispSweeps   int64
	dispSkipped  int64
	stallReplays int64
}

func (j *Job) setState(st State) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

// noteSample receives interval metrics samples from the simulation
// goroutine (crisp.WithMetricsSink) and broadcasts them. Publish is one
// mutex + ring write when nobody is watching, so the simulation never
// waits on an observer.
func (j *Job) noteSample(s obs.Sample) {
	j.mu.Lock()
	j.simCycles = s.CyclesSimulated
	j.stepsExec = s.StepsExecuted
	j.stepsSkipped = s.StepsSkipped
	j.bulkStalls = s.BulkStallSlots
	j.dispSweeps = s.DispatchSweeps
	j.dispSkipped = s.DispatchSkipped
	j.stallReplays = s.StallReplays
	j.mu.Unlock()
	j.hub.Publish(obs.TimelineEvent{Cycle: s.Cycle, Kind: obs.TimelineSample, Sample: &s})
}

// noteLifecycle broadcasts a state transition on the job's timeline,
// stamped with the last sampled cycle (0 before the first sample).
func (j *Job) noteLifecycle(state State, detail string) {
	var cycle int64
	if ev, ok := j.hub.Latest(""); ok {
		cycle = ev.Cycle
	}
	j.hub.Publish(obs.TimelineEvent{Cycle: cycle, Kind: obs.TimelineLifecycle, State: string(state), Detail: detail})
}

// noteAttempt broadcasts a supervised execution attempt starting: attempt
// 1 is the first run, higher numbers are retries.
func (j *Job) noteAttempt(attempt int, detail string) {
	var cycle int64
	if ev, ok := j.hub.Latest(""); ok {
		cycle = ev.Cycle
	}
	j.hub.Publish(obs.TimelineEvent{Cycle: cycle, Kind: obs.TimelineAttempt, Attempt: attempt, Detail: detail})
}

// samples extracts the retained interval samples from the job's timeline,
// in cycle order.
func (j *Job) samples() []obs.Sample {
	evs := j.hub.Events(0, 0)
	out := make([]obs.Sample, 0, len(evs))
	for _, ev := range evs {
		if ev.Kind == obs.TimelineSample && ev.Sample != nil {
			out = append(out, *ev.Sample)
		}
	}
	return out
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
	queued   int             // admission counter
	nextID   int
	draining bool

	queue chan *Job
	stop  chan struct{}
	wg    sync.WaitGroup

	// coord owns the sweep tier: sharded execution with lease-based
	// supervision and checkpoint handoff (coordinator.go).
	coord *coordinator

	cache *resultCache
	// frontend is the second cache tier: trace key → front-end product.
	// Every in-process attempt (worker-pool jobs, fleet shards, retries
	// from a checkpoint) builds its frame and compute workload through it,
	// so a scene is rendered once per server, not once per job. Isolated
	// children are one process per attempt and stay uncached.
	frontend *crisp.Frontend
	// series holds completed jobs' interval series by job digest (the
	// retained window of the primary execution's timeline), mirrored to
	// <stateDir>/results/<digest>.series.json when persistence is on.
	// Guarded by s.mu.
	series map[string][]obs.Sample

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
	fallbacks  atomic.Int64 // resumes that skipped ≥1 corrupt checkpoint
	avgRunNS   atomic.Int64 // EWMA of execution wall time
	launchedAt time.Time
}

// New builds a Server, loading the persisted result cache and recovering
// unfinished jobs when cfg.StateDir is set. Call Start to launch the
// worker pool (tests submit against an un-started server to exercise
// admission control deterministically).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		stop:       make(chan struct{}),
		cache:      newResultCache(""),
		frontend:   crisp.NewFrontend(),
		series:     make(map[string][]obs.Sample),
		chaosCtrl:  chaos.NewController(cfg.Chaos),
		launchedAt: time.Now(),
	}
	var recovered []*Job
	if cfg.StateDir != "" {
		s.cache = newResultCache(filepath.Join(cfg.StateDir, "results"))
		s.cache.load()
		var err error
		recovered, err = s.scanJobs()
		if err != nil {
			return nil, err
		}
	}
	// Capacity covers the admission bound plus every recovered job, so an
	// enqueue under the admission counter can never block.
	s.queue = make(chan *Job, cfg.QueueDepth+len(recovered))
	for _, j := range recovered {
		s.readmit(j)
	}
	s.coord = newCoordinator(s)
	return s, nil
}

// resultsDir is the persisted content-addressed result store ("" when
// memory-only) — the directory isolated fleet workers consult as their
// local cache (federation).
func (s *Server) resultsDir() string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, "results")
}

// Start launches the worker pool and marks the server ready: startup
// recovery (New's scanJobs pass) has finished by the time Start is called.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
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
	job := &Job{
		ID:      fmt.Sprintf("j%06d", s.nextID),
		Digest:  r.digest,
		Spec:    spec,
		res:     r,
		hub:     obs.NewHub(s.cfg.TimelineBuffer),
		state:   StateQueued,
		created: time.Now(),
	}

	// Content-addressed fast path: an identical job already completed.
	if _, ok := s.cache.get(r.digest); ok {
		job.state = StateDone
		job.cacheHit = true
		job.finished = job.created
		s.hits.Add(1)
		s.done.Add(1)
		s.register(job)
		job.noteLifecycle(StateDone, "cache hit: result "+r.digest)
		job.hub.Close()
		return job, nil
	}

	// Single-flight: an identical job is already queued or running —
	// attach to it instead of simulating twice.
	if primary, ok := s.inflight[r.digest]; ok {
		job.coalesce = true
		primary.mu.Lock()
		primary.followers = append(primary.followers, job)
		primary.mu.Unlock()
		s.coalesced.Add(1)
		s.register(job)
		s.persistJob(job)
		job.noteLifecycle(StateQueued, "coalesced with "+primary.ID)
		return job, nil
	}

	// Admission control: the queue is bounded.
	if s.queued >= s.cfg.QueueDepth {
		return nil, &QueueFullError{Depth: s.queued, RetryAfter: s.retryAfter()}
	}
	s.queued++
	s.inflight[r.digest] = job
	s.register(job)
	s.persistJob(job)
	job.noteLifecycle(StateQueued, "")
	s.queue <- job // never blocks: capacity ≥ admission bound
	return job, nil
}

// register indexes the job (caller holds s.mu).
func (s *Server) register(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
}

// readmit re-enqueues a recovered job at startup (caller is New; no lock
// contention yet). The digest routing mirrors Submit.
func (s *Server) readmit(job *Job) {
	if _, ok := s.cache.get(job.Digest); ok {
		job.state = StateDone
		job.cacheHit = true
		job.finished = time.Now()
		s.done.Add(1)
		s.hits.Add(1)
		s.register(job)
		job.noteLifecycle(StateDone, "cache hit: result "+job.Digest)
		job.hub.Close()
		s.unpersistJob(job)
		return
	}
	if primary, ok := s.inflight[job.Digest]; ok {
		job.coalesce = true
		primary.followers = append(primary.followers, job)
		s.register(job)
		job.noteLifecycle(StateQueued, "recovered; coalesced with "+primary.ID)
		return
	}
	s.queued++
	s.inflight[job.Digest] = job
	s.register(job)
	job.noteLifecycle(StateQueued, "recovered from a previous daemon instance")
	s.queue <- job
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
func (s *Server) Result(digest string) (*StoredResult, bool) { return s.cache.get(digest) }

// SeriesFor returns a completed job's retained interval series by job
// digest — in-memory first, then the persisted mirror next to the cached
// result (a restarted daemon serves yesterday's timelines too).
func (s *Server) SeriesFor(digest string) ([]obs.Sample, bool) {
	s.mu.Lock()
	samples, ok := s.series[digest]
	s.mu.Unlock()
	if ok {
		return samples, true
	}
	if s.cfg.StateDir == "" || !validDigest(digest) {
		return nil, false
	}
	path := filepath.Join(s.cfg.StateDir, "results", digest+".series.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if err := json.Unmarshal(b, &samples); err != nil {
		// Corrupt persisted series: set it aside so it is not re-parsed on
		// every request. The job's result is unaffected.
		if aside := quarantineFile(path); aside != "" {
			log.Printf("crispd: corrupt persisted series %s set aside as %s", path, aside)
		}
		return nil, false
	}
	s.mu.Lock()
	s.series[digest] = samples
	s.mu.Unlock()
	return samples, true
}

// persistSeries mirrors a completed series to disk, best effort, atomic
// (temp + rename), next to the cached result it belongs to (caller holds
// s.mu).
func (s *Server) persistSeries(digest string, samples []obs.Sample) {
	if s.cfg.StateDir == "" || len(samples) == 0 || !validDigest(digest) {
		return
	}
	dir := filepath.Join(s.cfg.StateDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	b, err := json.Marshal(samples)
	if err != nil {
		return
	}
	writeFileAtomic(filepath.Join(dir, digest+".series.json"), b)
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

// Cancel cancels a job: a queued job is dropped before execution, a
// running one has its context canceled (the run fails with a canceled
// SimError and, when persistence is on, leaves a final snapshot).
// Canceling a primary also cancels its coalesced followers — they were
// riding the execution that just died. Returns false when the job is
// already finished.
func (s *Server) Cancel(id string) (bool, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false, fmt.Errorf("service: unknown job %q", id)
	}
	job.mu.Lock()
	switch job.state {
	case StateDone, StateFailed, StateCanceled, StateQuarantined:
		job.mu.Unlock()
		s.mu.Unlock()
		return false, nil
	case StateRunning:
		job.userStop = true
		cancel := job.cancel
		job.mu.Unlock()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true, nil
	}
	// Queued (or a coalesced follower): finish it here. A queued primary
	// stays in the channel; the worker skips non-queued jobs.
	job.userStop = true
	job.state = StateCanceled
	job.finished = time.Now()
	followers := job.followers
	job.followers = nil
	job.mu.Unlock()
	if s.inflight[job.Digest] == job {
		delete(s.inflight, job.Digest)
	}
	s.canceled.Add(1)
	s.unpersistJob(job)
	job.noteLifecycle(StateCanceled, "canceled before execution")
	job.hub.Close()
	for _, f := range followers {
		f.mu.Lock()
		f.state = StateCanceled
		f.errMsg = "canceled: the execution this job was coalesced with was canceled"
		f.finished = time.Now()
		f.mu.Unlock()
		s.canceled.Add(1)
		s.unpersistJob(f)
		f.noteLifecycle(StateCanceled, f.errMsg)
		f.hub.Close()
	}
	s.mu.Unlock()
	return true, nil
}

// worker pulls jobs until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case job := <-s.queue:
			s.mu.Lock()
			s.queued--
			draining := s.draining
			s.mu.Unlock()
			if draining {
				// Leave the job queued on disk; the restarted daemon
				// re-enqueues it.
				return
			}
			s.execute(job)
		}
	}
}

// execute runs one admitted job under supervision: execution attempts
// (in-process through the crisp facade, or in an isolated worker process)
// with retryable failures retried after a backoff, resuming from the
// job's newest readable checkpoint; a job that exhausts its attempt
// budget is quarantined. Cancellation — user DELETE or drain — always
// wins over a pending retry.
func (s *Server) execute(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued {
		job.mu.Unlock()
		return
	}
	job.state = StateRunning
	job.started = time.Now()
	// lctx is the job's lifecycle context: Cancel and Drain both cancel it
	// through job.cancel, which covers a running simulation, a backoff
	// sleep, and a spawning worker process alike.
	lctx, cancel := context.WithCancel(context.Background())
	job.cancel = cancel
	resumeFrom := job.resumeFrom
	failed := job.failedAttempts
	job.mu.Unlock()
	defer cancel()
	if resumeFrom != "" {
		job.noteLifecycle(StateRunning, "resuming from snapshot")
	} else {
		job.noteLifecycle(StateRunning, "")
	}

	maxAtt := s.maxAttempts()
	for {
		attempt := failed + 1
		s.attempts.Add(1)
		if attempt > 1 {
			s.retries.Add(1)
		} else {
			s.execs.Add(1)
		}
		detail := "fresh run"
		if resumeFrom != "" {
			detail = "resuming from " + resumeFrom
		}
		job.noteAttempt(attempt, detail)

		stored, err := s.runAttempt(lctx, job, resumeFrom)
		if err == nil {
			if d := s.chaosCtrl.CompletionDelay(); d > 0 {
				sleepBackoff(lctx, d)
			}
			s.cache.put(stored)
			s.complete(job, stored)
			return
		}

		// Cancellation and permanent failures (validation, deadlock) end
		// the job now; fail() distinguishes drain-rewind / user cancel /
		// terminal failure.
		if se, ok := robust.AsSimError(err); ok && robust.DeepestKind(se) == robust.KindCanceled {
			s.fail(job, err)
			return
		}
		if !robust.RetryableError(err) {
			s.fail(job, err)
			return
		}

		failed = attempt
		job.mu.Lock()
		job.failedAttempts = failed
		job.mu.Unlock()
		s.recordAttempt(job, failed, err)
		if failed >= maxAtt {
			s.quarantineJob(job, err, failed)
			return
		}

		// Chaos: damage the newest checkpoint before the resume, forcing
		// the fallback-to-previous path.
		if mode, ok := s.chaosCtrl.TakeCorrupt(job.Digest); ok {
			if dir := s.jobDir(job); dir != "" {
				if p, cerr := chaos.Corrupt(dir, mode, s.cfg.Chaos.Seed); cerr == nil {
					log.Printf("crispd: chaos: %s-corrupted checkpoint %s (job %s)", mode, p, job.ID)
				}
			}
		}

		delay := s.backoffDelay(job.Digest, attempt+1)
		log.Printf("crispd: job %s attempt %d/%d failed, retrying in %v: %v", job.ID, failed, maxAtt, delay, err)
		if !sleepBackoff(lctx, delay) {
			s.fail(job, &robust.SimError{Kind: robust.KindCanceled, Msg: "canceled during retry backoff", Err: err})
			return
		}
		// Retry from the newest checkpoint when one exists — the failed
		// attempt's progress up to its last checkpoint is never re-simulated.
		resumeFrom = ""
		if dir := s.jobDir(job); dir != "" && len(snapshot.Candidates(dir)) > 0 {
			resumeFrom = dir
		}
	}
}

// runAttempt executes one attempt and summarizes the result for the
// cache. With Config.Isolate the attempt runs in a child worker process
// (worker.go); otherwise in-process through the crisp facade.
func (s *Server) runAttempt(ctx context.Context, job *Job, resumeFrom string) (*StoredResult, error) {
	killAt, killArmed := s.chaosCtrl.TakeKill(job.Digest)
	if !killArmed {
		killAt = 0
	}
	if s.cfg.Isolate {
		return s.runIsolated(ctx, job, resumeFrom, killAt)
	}
	return s.runInProcess(ctx, job, resumeFrom, killAt)
}

// runInProcess is the direct execution path, built on the shared core in
// fleet.go. A chaos kill (killAt > 0) panics with a KindInjected SimError
// from the metrics sink on the sim goroutine: the core's deferred
// recovery flushes a final snapshot first, so the retry has the kill-time
// state to resume from.
func (s *Server) runInProcess(ctx context.Context, job *Job, resumeFrom string, killAt int64) (*StoredResult, error) {
	p := s.paramsFor(job.res, resumeFrom, s.jobDir(job), killAt)
	stored, wall, err := runDirect(ctx, p, attemptHooks{
		onSample: job.noteSample,
		onFallback: func(corrupt []string) {
			for _, c := range corrupt {
				log.Printf("crispd: job %s: corrupt checkpoint %s renamed aside", job.ID, c)
			}
			s.fallbacks.Add(1)
		},
		onKill: func(cycle int64) { panic(chaos.Injected(cycle)) },
	})
	s.observeRunTime(wall)
	return stored, err
}

// loadResume loads the snapshot a retry resumes from: a directory loads
// its newest readable checkpoint (corrupt ones renamed aside and reported
// in corrupt), a file path loads directly.
func loadResume(arg string) (*crisp.Snapshot, []string, error) {
	info, err := os.Stat(arg)
	if err != nil {
		return nil, nil, err
	}
	if info.IsDir() {
		return snapshot.LoadNewest(arg)
	}
	env, err := crisp.LoadSnapshot(arg)
	return env, nil, err
}

// quarantineJob parks a poison job: its retry budget is exhausted, so it
// goes terminal with its crash dumps and checkpoints kept on disk and is
// never retried again — not even by a restarted daemon (quarantined.json).
// Followers fail: they were riding an execution that will never finish.
func (s *Server) quarantineJob(job *Job, err error, attempts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job.mu.Lock()
	msg := fmt.Sprintf("quarantined after %d failed attempts: %v", attempts, err)
	job.state = StateQuarantined
	job.errMsg = msg
	job.finished = time.Now()
	followers := job.followers
	job.followers = nil
	job.mu.Unlock()
	if s.inflight[job.Digest] == job {
		delete(s.inflight, job.Digest)
	}
	s.quarantine.Add(1)
	s.markQuarantined(job, err, attempts)
	log.Printf("crispd: job %s %s", job.ID, msg)
	job.noteLifecycle(StateQuarantined, msg)
	job.hub.Close()
	for _, f := range followers {
		f.mu.Lock()
		f.state = StateFailed
		f.errMsg = "coalesced execution " + job.ID + " " + msg
		f.finished = time.Now()
		f.mu.Unlock()
		s.failed.Add(1)
		s.markFailed(f, err)
		f.noteLifecycle(StateFailed, f.errMsg)
		f.hub.Close()
	}
}

// complete marks the primary job and every coalesced follower done,
// retains the job's interval series under its digest (the A/B-diff and
// crispviz-serve data source), and clears persisted per-job state (the
// result now lives in the cache).
func (s *Server) complete(job *Job, stored *StoredResult) {
	samples := job.samples()
	s.mu.Lock()
	s.series[job.Digest] = samples
	s.persistSeries(job.Digest, samples)
	if s.inflight[job.Digest] == job {
		delete(s.inflight, job.Digest)
	}
	job.mu.Lock()
	job.state = StateDone
	job.finished = time.Now()
	followers := job.followers
	job.followers = nil
	job.mu.Unlock()
	s.done.Add(1)
	s.unpersistJob(job)
	done := fmt.Sprintf("stats_digest=%s samples=%d series_digest=%016x",
		stored.StatsDigest, len(samples), obs.SamplesDigest(samples))
	job.noteLifecycle(StateDone, done)
	job.hub.Close()
	for _, f := range followers {
		f.mu.Lock()
		f.state = StateDone
		f.finished = time.Now()
		f.mu.Unlock()
		s.done.Add(1)
		s.unpersistJob(f)
		f.noteLifecycle(StateDone, "coalesced execution "+job.ID+" done; "+done)
		f.hub.Close()
	}
	s.mu.Unlock()
}

// fail resolves a failed execution. Three cases:
//   - drain cancellation: the job goes back to queued; its spec and final
//     snapshot stay on disk for the restarted daemon to resume;
//   - user cancellation (DELETE): the job is canceled;
//   - real failure (budget, watchdog, deadlock, panic): the job is failed
//     and a failure marker keeps a restart from retrying it blindly.
//
// Followers share the primary's outcome in every case.
func (s *Server) fail(job *Job, err error) {
	se, isSim := robust.AsSimError(err)
	isCancel := isSim && se.Kind == crisp.ErrCanceled

	s.mu.Lock()
	defer s.mu.Unlock()

	job.mu.Lock()
	if isCancel && s.draining && !job.userStop {
		// Graceful drain: the final snapshot was just flushed by the
		// checkpoint layer. Rewind to queued; disk state survives.
		job.state = StateQueued
		job.cancel = nil
		job.mu.Unlock()
		job.noteLifecycle(StateQueued, "drained; checkpointed for the next daemon")
		return
	}
	state := StateFailed
	if isCancel && job.userStop {
		state = StateCanceled
	}
	job.state = state
	job.errMsg = err.Error()
	job.finished = time.Now()
	followers := job.followers
	job.followers = nil
	job.mu.Unlock()

	if s.inflight[job.Digest] == job {
		delete(s.inflight, job.Digest)
	}
	s.noteTerminal(job, state, err)
	job.noteLifecycle(state, err.Error())
	job.hub.Close()
	for _, f := range followers {
		f.mu.Lock()
		f.state = state
		f.errMsg = fmt.Sprintf("coalesced execution %s: %v", state, err)
		f.finished = time.Now()
		f.mu.Unlock()
		s.noteTerminal(f, state, err)
		f.noteLifecycle(state, fmt.Sprintf("coalesced execution %s: %v", state, err))
		f.hub.Close()
	}
}

// noteTerminal updates counters and disk state for a terminally failed or
// canceled job (caller holds s.mu).
func (s *Server) noteTerminal(job *Job, state State, err error) {
	if state == StateCanceled {
		s.canceled.Add(1)
		s.unpersistJob(job)
		return
	}
	s.failed.Add(1)
	s.markFailed(job, err)
}

// Drain gracefully shuts the server down: stop admitting, stop starting
// queued work, cancel running simulations (each flushes a final snapshot
// through the checkpoint layer when persistence is on), and wait for the
// workers to exit. Queued and drained jobs stay on disk for the next
// daemon. Returns when the pool is idle or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.stop)
	}
	var cancels []context.CancelFunc
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		if j.state == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()

	for _, c := range cancels {
		c()
	}
	idle := make(chan struct{})
	go func() {
		// The sweep tier drains first (its shards cancel their attempts
		// and exit), then the job pool.
		s.coord.drain()
		s.wg.Wait()
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
	// Telemetry aggregates every job hub's counters: live timeline
	// subscribers, events published, and the slow-subscriber drop
	// counters.
	Subscribers    int
	TimelineEvents uint64
	SubsDropped    uint64
	EvsDropped     uint64

	// Fleet is the sweep tier's counter snapshot (leases, revocations,
	// checkpoint handoffs, federation).
	Fleet FleetStats

	// Frontend is the trace cache's counter snapshot: lookups answered
	// without building, builds, evictions, and bytes retained.
	Frontend core.FrontendStats
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
		st.CyclesSimulated += j.simCycles
		st.StepsExecuted += j.stepsExec
		st.StepsSkipped += j.stepsSkipped
		st.BulkStallSlots += j.bulkStalls
		st.DispatchSweeps += j.dispSweeps
		st.DispatchSkipped += j.dispSkipped
		st.StallReplays += j.stallReplays
		j.mu.Unlock()
		hs := j.hub.Stats()
		st.Subscribers += hs.Subscribers
		st.TimelineEvents += hs.Published
		st.SubsDropped += hs.SubsDropped
		st.EvsDropped += hs.EvsDropped
	}
	s.mu.Unlock()
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
	st.CachedResults = s.cache.len()
	st.Ready = s.Ready()
	st.UptimeSec = time.Since(s.launchedAt).Seconds()
	return st
}

// ---- persistence ----------------------------------------------------

// persistedJob is the on-disk record of an admitted job.
type persistedJob struct {
	ID     string  `json:"id"`
	Digest string  `json:"digest"`
	Spec   JobSpec `json:"spec"`
}

// jobDir is the job's private state directory ("" without persistence).
func (s *Server) jobDir(job *Job) string {
	if s.cfg.StateDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.StateDir, "jobs", job.ID)
}

// persistJob writes the job spec record (best effort).
func (s *Server) persistJob(job *Job) {
	dir := s.jobDir(job)
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	b, err := json.MarshalIndent(persistedJob{ID: job.ID, Digest: job.Digest, Spec: job.Spec}, "", "  ")
	if err != nil {
		return
	}
	writeFileAtomic(filepath.Join(dir, "job.json"), b)
}

// unpersistJob removes the job's state directory — its result (if any)
// lives on in the content-addressed cache (caller holds s.mu or runs at
// startup).
func (s *Server) unpersistJob(job *Job) {
	if dir := s.jobDir(job); dir != "" {
		os.RemoveAll(dir)
	}
}

// markFailed records a terminal failure so a restart reports the job as
// failed instead of blindly re-running it; the job directory (crash-time
// snapshot included) is kept for postmortems.
func (s *Server) markFailed(job *Job, err error) {
	dir := s.jobDir(job)
	if dir == "" {
		return
	}
	rec := map[string]string{"error": err.Error()}
	if se, ok := robust.AsSimError(err); ok {
		rec["kind"] = robust.DeepestKind(se).String()
		rec["cycle"] = fmt.Sprint(se.Cycle)
	}
	if b, merr := json.MarshalIndent(rec, "", "  "); merr == nil {
		writeFileAtomic(filepath.Join(dir, "failed.json"), b)
	}
}

// scanJobs recovers persisted jobs at startup, in id order. Jobs with a
// quarantine or failure marker are registered in that terminal state; the
// rest are resolved and handed back for readmission (resuming from their
// snapshot when one exists), carrying their persisted failed-attempt
// count so a crash-looping daemon cannot reset a poison job's retry
// budget. A corrupt persisted entry is set aside (renamed *.corrupt,
// logged) and never aborts the boot — one damaged file costs one job.
func (s *Server) scanJobs() ([]*Job, error) {
	root := filepath.Join(s.cfg.StateDir, "jobs")
	ents, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("service: scanning job state: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && !strings.HasSuffix(e.Name(), quarantineSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	var recovered []*Job
	for _, name := range names {
		dir := filepath.Join(root, name)
		b, err := os.ReadFile(filepath.Join(dir, "job.json"))
		if err != nil {
			if os.IsNotExist(err) {
				continue // not a job dir; leave it alone
			}
			if aside := quarantineFile(dir); aside != "" {
				log.Printf("crispd: unreadable persisted job %s set aside as %s: %v", dir, aside, err)
			}
			continue
		}
		var pj persistedJob
		if err := json.Unmarshal(b, &pj); err != nil || pj.ID == "" {
			if aside := quarantineFile(dir); aside != "" {
				log.Printf("crispd: corrupt persisted job %s set aside as %s", dir, aside)
			}
			continue
		}
		if n := idNumber(pj.ID); n > s.nextID {
			s.nextID = n
		}
		job := &Job{ID: pj.ID, Digest: pj.Digest, Spec: pj.Spec, hub: obs.NewHub(s.cfg.TimelineBuffer), created: time.Now()}

		if qb, err := os.ReadFile(filepath.Join(dir, "quarantined.json")); err == nil {
			var rec quarantineRecord
			json.Unmarshal(qb, &rec)
			job.state = StateQuarantined
			job.errMsg = fmt.Sprintf("quarantined after %d failed attempts: %s", rec.Attempts, rec.Error)
			job.finished = job.created
			s.quarantine.Add(1)
			s.register(job)
			job.noteLifecycle(StateQuarantined, job.errMsg)
			job.hub.Close()
			continue
		}

		if fb, err := os.ReadFile(filepath.Join(dir, "failed.json")); err == nil {
			var rec map[string]string
			json.Unmarshal(fb, &rec)
			job.state = StateFailed
			job.errMsg = rec["error"]
			if job.errMsg == "" {
				job.errMsg = "failed in a previous daemon instance"
			}
			job.finished = job.created
			s.failed.Add(1)
			s.register(job)
			job.noteLifecycle(StateFailed, job.errMsg)
			job.hub.Close()
			continue
		}

		r, err := pj.Spec.resolve()
		if err != nil {
			job.state = StateFailed
			job.errMsg = "recovered spec no longer resolves: " + err.Error()
			job.finished = job.created
			s.failed.Add(1)
			s.register(job)
			s.markFailed(job, err)
			job.noteLifecycle(StateFailed, job.errMsg)
			job.hub.Close()
			continue
		}
		job.res = r
		job.Digest = r.digest

		// Failed attempts persist across restarts; a job already at the
		// quarantine threshold goes terminal here instead of re-running.
		if ab, err := os.ReadFile(filepath.Join(dir, "attempts.json")); err == nil {
			var rec attemptRecord
			if json.Unmarshal(ab, &rec) == nil && rec.Attempts > 0 {
				job.failedAttempts = rec.Attempts
				if rec.Attempts >= s.maxAttempts() {
					qerr := fmt.Errorf("%s (recovered at the attempt limit)", rec.LastError)
					job.state = StateQuarantined
					job.errMsg = fmt.Sprintf("quarantined after %d failed attempts: %v", rec.Attempts, qerr)
					job.finished = job.created
					s.quarantine.Add(1)
					s.markQuarantined(job, qerr, rec.Attempts)
					s.register(job)
					log.Printf("crispd: recovered job %s %s", job.ID, job.errMsg)
					job.noteLifecycle(StateQuarantined, job.errMsg)
					job.hub.Close()
					continue
				}
			}
		}

		job.state = StateQueued
		if len(snapshot.Candidates(dir)) > 0 {
			job.resumeFrom = dir
		}
		recovered = append(recovered, job)
	}
	return recovered, nil
}

func idNumber(id string) int {
	n := 0
	fmt.Sscanf(strings.TrimPrefix(id, "j"), "%d", &n)
	return n
}
