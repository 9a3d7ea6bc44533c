package service

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/robust/chaos"
	"crisp/internal/snapshot"
)

// The supervisor. Every simulation crispd runs — a submitted job or one
// cell of a sweep — is a sweepTask, and runTask is the one state machine
// that carries it: federated-cache check → one attempt (in-process, or a
// child worker process with Config.Isolate) → commit, or one failure
// verdict. Three properties make losing a worker cost throughput, never
// correctness:
//
//   - Liveness is the attempt's own process. An attempt that fails returns
//     its error; an isolated child that exits without a result is a crash
//     verdict, and one silent for silentHeartbeats heartbeats is killed
//     first. Either way the task is requeued after the deterministic
//     backoff.
//   - Checkpoint handoff. Each attempt checkpoints into its own directory
//     and the next one resumes from the newest readable checkpoint any
//     attempt shipped.
//   - One attempt at a time. A task in flight is no longer pending, so a
//     second dispatch of it starts nothing, and its result is committed
//     under its digest exactly once.
//
// What a Job and a Sweep each add — timeline text, persistence, what
// terminal means — sits behind the owner seam (task.go).

// Sweep admission defaults.
const (
	DefaultMaxSweeps     = 16
	DefaultMaxSweepTasks = 512
)

// coordinator supervises every task. One per server.
type coordinator struct {
	s *Server

	mu      sync.Mutex
	sweeps  map[string]*Sweep
	order   []string
	running map[*sweepTask]context.CancelFunc // attempts in flight
	nextID  int
	active  int // sweeps not yet terminal (admission bound)

	jobQueue   *taskQueue // feeds the Config.Workers pool
	sweepQueue *taskQueue // feeds the Config.FleetWorkers shards
	stop       chan struct{}
	wg         sync.WaitGroup

	revocations atomic.Int64 // attempts lost to a retryable failure and requeued
	resumes     atomic.Int64 // attempts that restored a shipped checkpoint
	fedHits     atomic.Int64 // dispatches answered from the shared result store
	tasksDone   atomic.Int64
	tasksFailed atomic.Int64
}

func newCoordinator(s *Server) *coordinator {
	return &coordinator{
		s:          s,
		sweeps:     make(map[string]*Sweep),
		running:    make(map[*sweepTask]context.CancelFunc),
		jobQueue:   newTaskQueue(),
		sweepQueue: newTaskQueue(),
		stop:       make(chan struct{}),
	}
}

// start launches both worker pools.
func (c *coordinator) start() {
	cfg := c.s.cfg
	c.wg.Add(cfg.Workers + cfg.FleetWorkers)
	for i := 0; i < cfg.Workers; i++ {
		go c.pool(c.jobQueue, i)
	}
	for i := 0; i < cfg.FleetWorkers; i++ {
		go c.pool(c.sweepQueue, i)
	}
}

// drain stops dispatch, cancels running attempts (isolated children get
// SIGTERM and flush a final snapshot), and waits for the pools to exit.
func (c *coordinator) drain() {
	c.mu.Lock()
	if !c.stopped() {
		close(c.stop)
	}
	c.cancelLocked(func(*sweepTask) bool { return true })
	c.mu.Unlock()
	c.wg.Wait()
}

// cancelLocked cancels the attempt in flight of every matching task
// (caller holds c.mu).
func (c *coordinator) cancelLocked(match func(*sweepTask) bool) {
	for t, cancel := range c.running {
		if match(t) {
			cancel()
		}
	}
}

// ---- admission -------------------------------------------------------

// SubmitSweep validates, decomposes, and admits one sweep. Errors:
// *ValidationError, ErrDraining, *QueueFullError (too many live sweeps).
func (s *Server) SubmitSweep(spec SweepSpec) (*Sweep, error) {
	return s.coord.submit(spec)
}

func (c *coordinator) submit(spec SweepSpec) (*Sweep, error) {
	specs, err := spec.decompose()
	if err != nil {
		return nil, &ValidationError{Err: err}
	}
	if len(specs) > c.s.cfg.MaxSweepTasks {
		return nil, &ValidationError{Err: fmt.Errorf("sweep expands to %d tasks; the limit is %d", len(specs), c.s.cfg.MaxSweepTasks)}
	}
	resolvedSpecs := make([]*resolved, len(specs))
	for i, js := range specs {
		r, err := js.resolve()
		if err != nil {
			return nil, &ValidationError{Err: fmt.Errorf("grid point %d: %w", i, err)}
		}
		resolvedSpecs[i] = r
	}

	c.mu.Lock()
	if c.s.Draining() || c.stopped() {
		c.mu.Unlock()
		return nil, ErrDraining
	}
	if c.active >= c.s.cfg.MaxSweeps {
		c.mu.Unlock()
		return nil, &QueueFullError{Depth: c.active, RetryAfter: 30 * time.Second}
	}
	c.nextID++
	sw := &Sweep{
		ID:      fmt.Sprintf("s%06d", c.nextID),
		Spec:    spec,
		c:       c,
		hub:     obs.NewHub(c.s.cfg.TimelineBuffer),
		state:   StateRunning,
		created: time.Now(),
		started: time.Now(),
	}
	root := c.sweepDir(sw)
	for i, js := range specs {
		t := &sweepTask{
			id:     fmt.Sprintf("%s/%d", sw.ID, i),
			owner:  sw,
			queue:  c.sweepQueue,
			index:  i,
			spec:   js,
			res:    resolvedSpecs[i],
			digest: resolvedSpecs[i].digest,
			state:  taskPending,
		}
		if root != "" {
			t.dir = filepath.Join(root, fmt.Sprintf("t%03d-%s", i, t.digest))
		}
		sw.tasks = append(sw.tasks, t)
	}
	c.sweeps[sw.ID] = sw
	c.order = append(c.order, sw.ID)
	c.active++
	sw.lifecycle(StateRunning, fmt.Sprintf("sweep admitted: %d tasks across %d shards", len(sw.tasks), c.s.cfg.FleetWorkers))
	c.mu.Unlock()

	for _, t := range sw.tasks {
		c.sweepQueue.push(t)
	}
	return sw, nil
}

// sweepDir picks the sweep's checkpoint-handoff root: under the state
// dir when persistence is on, a temp scratch dir otherwise (handoff must
// work for memory-only daemons too; the scratch is removed when the sweep
// finishes). "" disables handoff — attempts then restart from cycle 0.
func (c *coordinator) sweepDir(sw *Sweep) string {
	if c.s.cfg.StateDir != "" {
		dir := filepath.Join(c.s.cfg.StateDir, "sweeps", sw.ID)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return ""
		}
		return dir
	}
	dir, err := os.MkdirTemp("", "crispd-sweep-")
	if err != nil {
		return ""
	}
	sw.scratch = dir
	return dir
}

// scanSweeps seeds the sweep id counter past every sweep directory a
// previous daemon left under the state dir, so a new sweep never reuses
// (and, on success, removes) a failed one's postmortem directory.
func (c *coordinator) scanSweeps() {
	ents, _ := os.ReadDir(filepath.Join(c.s.cfg.StateDir, "sweeps"))
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "s") {
			c.nextID = max(c.nextID, idNumber(e.Name()))
		}
	}
}

func (c *coordinator) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// ---- accessors -------------------------------------------------------

// SweepByID returns a tracked sweep.
func (s *Server) SweepByID(id string) (*Sweep, bool) {
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[id]
	return sw, ok
}

// Sweeps lists every tracked sweep in submission order.
func (s *Server) Sweeps() []*Sweep {
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Sweep, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.sweeps[id])
	}
	return out
}

// viewOfSweep snapshots a sweep for the wire. withTasks includes the
// per-task table (omitted in listings).
func (s *Server) viewOfSweep(sw *Sweep, withTasks bool) sweepView {
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	v := sweepView{
		ID:           sw.ID,
		State:        sw.state,
		Total:        len(sw.tasks),
		Done:         sw.doneN,
		Failed:       sw.failedN,
		MergedDigest: sw.merged,
		Revocations:  sw.revoked,
		Resumes:      sw.resumes,
		Created:      stamp(sw.created),
		Started:      stamp(sw.started),
		Finished:     stamp(sw.finished),
		Events:       sw.hub.Stats().Published,
	}
	if withTasks {
		for _, t := range sw.tasks {
			tv := sweepTaskView{
				Index:    t.index,
				Digest:   t.digest,
				State:    t.state,
				Worker:   t.worker,
				Attempts: t.started,
				Resumed:  t.resumed,
				Cached:   t.cacheHit,
				Error:    t.errMsg,
				Spec:     t.spec,
			}
			if t.result != nil {
				tv.StatsDigest = t.result.StatsDigest
			}
			v.Tasks = append(v.Tasks, tv)
		}
	}
	return v
}

// CancelSweep cancels a sweep: running attempts are canceled (isolated
// children SIGTERMed), pending tasks never dispatch. Returns false when
// the sweep is already terminal.
func (s *Server) CancelSweep(id string) (bool, error) {
	c := s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[id]
	if !ok {
		return false, fmt.Errorf("service: unknown sweep %q", id)
	}
	if sw.state.terminal() {
		return false, nil
	}
	sw.canceled = true
	sw.state = StateCanceled
	sw.finished = time.Now()
	sw.lifecycle(StateCanceled, "sweep canceled")
	sw.hub.Close()
	c.finishCleanupLocked(sw, false)
	c.cancelLocked(func(t *sweepTask) bool { return t.owner == owner(sw) })
	return true, nil
}

// ---- dispatch and supervision ---------------------------------------

// pool is one worker of one pool: it pulls tasks from its queue until
// drain. The job pool (Config.Workers) and the sweep shards
// (Config.FleetWorkers) differ only in which queue they pull from.
func (c *coordinator) pool(q *taskQueue, id int) {
	defer c.wg.Done()
	for {
		if t := q.pop(); t != nil && !c.stopped() {
			c.runTask(id, t)
			continue
		}
		select {
		case <-c.stop:
			return
		case <-q.wake:
		}
	}
}

// runTask is the one supervisor: one dispatch of one task on one worker —
// federated cache check, one attempt, then the commit or the failure
// verdict. A task that is not pending (already running, done or failed)
// is left alone, so each task has at most one attempt in flight however
// often it was queued.
func (c *coordinator) runTask(worker int, t *sweepTask) {
	c.mu.Lock()
	if t.state != taskPending || c.stopped() || !t.owner.live() {
		c.mu.Unlock()
		return
	}
	// Federation, coordinator side: the shared content-addressed store
	// already holds this digest (a prior job, a prior sweep, another
	// task's commit, or a restored persisted cache) — commit without
	// executing.
	if sr, ok := c.s.store.get(t.digest); ok {
		c.fedHits.Add(1)
		c.commitLocked(t, sr, true)
		c.mu.Unlock()
		return
	}
	t.state, t.worker = taskLeased, worker
	t.started++
	attempt := t.attempts + 1
	c.s.attempts.Add(1)
	if attempt > 1 {
		c.s.retries.Add(1)
	} else {
		c.s.execs.Add(1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.running[t] = cancel
	t.owner.attemptStarted(t, attempt)
	c.mu.Unlock()

	stored, err := c.s.attempt(ctx, t, attempt, attemptHooks{
		onSample: t.owner.sample,
		onResume: func(cycle int64, aside []string) { c.resumeReported(t, attempt, cycle, aside) },
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.running, t)
	cancel()
	if err != nil {
		c.failedLocked(t, err)
		return
	}
	c.commitLocked(t, stored, false)
}

// resumeReported takes attempt n's report of where it started: the
// checkpoint it restored (noResume for none) and the ones it set aside on
// the way.
func (c *coordinator) resumeReported(t *sweepTask, n int, cycle int64, aside []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range aside {
		log.Printf("task %s: unloadable checkpoint %s renamed aside", t.id, p)
	}
	if len(aside) > 0 {
		c.s.fallbacks.Add(1)
	}
	if cycle != noResume {
		t.resumed = true
		c.resumes.Add(1)
		t.owner.attemptResumed(t, n, cycle)
	}
}

// commitLocked commits one result for a task (caller holds c.mu). Only
// the task's one attempt, or the federated check that replaces it, gets
// here, so a result is committed exactly once.
func (c *coordinator) commitLocked(t *sweepTask, stored *StoredResult, fromCache bool) {
	if !t.owner.live() {
		t.state = taskPending
		t.owner.attemptStopped(t, nil)
		return
	}
	t.state, t.result, t.cacheHit, t.errMsg = taskDone, stored, fromCache, ""
	if !fromCache {
		// Federation, write side: the result joins the shared store under
		// its digest, visible to jobs and sweeps alike.
		c.s.store.put(stored)
	}
	t.owner.taskDone(t)
}

// failedLocked applies the one failure verdict to a task's lost attempt
// (caller holds c.mu): a permanent failure fails the task; a retryable
// one counts as a revocation and against the attempt budget and — unless
// that is now exhausted — requeues the task after the deterministic
// backoff, to resume from the newest shipped checkpoint.
func (c *coordinator) failedLocked(t *sweepTask, err error) {
	if c.stopped() || !t.owner.live() {
		t.state = taskPending
		t.owner.attemptStopped(t, err)
		return
	}
	v, delay := c.s.verdict(t.digest, t.attempts+1, err)
	switch v {
	case verdictCanceled:
		// Nobody asked for this cancellation: something outside crispd
		// signaled the child. The attempt is lost like a crashed one's.
		c.failedLocked(t, &robust.SimError{Kind: robust.KindCrash, Msg: "attempt canceled under a live owner: " + err.Error()})
		return
	case verdictPermanent:
		t.state = taskFailed
		t.owner.taskFailed(t, err, false)
		return
	}
	c.revocations.Add(1)
	t.attempts++
	t.owner.attemptFailed(t, err)
	if v == verdictExhausted {
		t.state = taskFailed
		t.owner.taskFailed(t, err, true)
		return
	}
	t.state = taskPending
	// Chaos: damage the newest checkpoint before the resume, forcing the
	// fallback-to-previous path on the next attempt. The one-shot fault is
	// only taken when there is a checkpoint to damage.
	if dirs := attemptDirs(t.dir); len(snapshot.Candidates(dirs...)) > 0 {
		if mode, ok := c.s.chaosCtrl.TakeCorrupt(t.digest); ok {
			if p, cerr := chaos.Corrupt(mode, c.s.cfg.Chaos.Seed, dirs...); cerr == nil {
				log.Printf("chaos: %s-corrupted checkpoint %s (task %s)", mode, p, t.id)
			}
		}
	}
	t.owner.note(t, fmt.Sprintf("attempt %d lost (%v); retrying in %v", t.attempts, err, delay))
	log.Printf("task %s attempt %d/%d failed, retrying in %v: %v", t.id, t.attempts, c.s.maxAttempts(), delay, err)
	// The wait holds no worker. A cancel or a drain in the meantime leaves
	// the timer to fire into runTask's liveness check: no retry starts.
	time.AfterFunc(delay, func() { t.queue.push(t) })
}

// maybeFinishLocked finishes the sweep once every task is terminal
// (caller holds c.mu). A fully successful sweep computes its merged
// digest — the fleet-vs-single-node convergence observable — and its
// transient checkpoint scratch is removed (results live in the cache).
func (c *coordinator) maybeFinishLocked(sw *Sweep) {
	if sw.state != StateRunning || sw.doneN+sw.failedN < len(sw.tasks) {
		return
	}
	sw.finished = time.Now()
	if sw.failedN > 0 {
		sw.state = StateFailed
		sw.lifecycle(StateFailed, fmt.Sprintf("sweep failed: %d/%d tasks failed", sw.failedN, len(sw.tasks)))
	} else {
		sw.state = StateDone
		sw.merged = sw.mergedDigest()
		sw.lifecycle(StateDone, fmt.Sprintf("sweep done: %d tasks, merged_digest=%s, revocations=%d, resumes=%d",
			len(sw.tasks), sw.merged, sw.revoked, sw.resumes))
	}
	sw.hub.Close()
	c.finishCleanupLocked(sw, sw.state == StateDone)
}

// finishCleanupLocked releases a terminal sweep's resources (caller holds
// c.mu): its admission slot and — when the sweep succeeded — its
// checkpoint directories (kept for postmortems otherwise, except
// memory-only scratch which always goes).
func (c *coordinator) finishCleanupLocked(sw *Sweep, removeDirs bool) {
	c.active--
	scratch := sw.scratch
	var stateDir string
	if removeDirs && c.s.cfg.StateDir != "" {
		stateDir = filepath.Join(c.s.cfg.StateDir, "sweeps", sw.ID)
	}
	if scratch != "" || stateDir != "" {
		go func() {
			if scratch != "" {
				os.RemoveAll(scratch)
			}
			if stateDir != "" {
				os.RemoveAll(stateDir)
			}
		}()
	}
}

// ---- stats -----------------------------------------------------------

// FleetStats is the coordinator's counter snapshot, embedded in the
// server Stats.
type FleetStats struct {
	Shards        int
	SweepsActive  int
	SweepsByState map[State]int
	TasksDone     int64
	TasksFailed   int64
	// LeaseRevocations counts attempts lost to a retryable failure and
	// requeued (wire name lease_revocations).
	LeaseRevocations int64
	FleetResumes     int64
	FederatedHits    int64
}

func (c *coordinator) stats() FleetStats {
	fs := FleetStats{
		Shards:           c.s.cfg.FleetWorkers,
		SweepsByState:    make(map[State]int),
		TasksDone:        c.tasksDone.Load(),
		TasksFailed:      c.tasksFailed.Load(),
		LeaseRevocations: c.revocations.Load(),
		FleetResumes:     c.resumes.Load(),
		FederatedHits:    c.fedHits.Load(),
	}
	c.mu.Lock()
	fs.SweepsActive = c.active
	for _, sw := range c.sweeps {
		fs.SweepsByState[sw.state]++
	}
	c.mu.Unlock()
	return fs
}
