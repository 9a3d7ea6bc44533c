package service

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/robust/chaos"
	"crisp/internal/snapshot"
)

// The sharded execution tier: a coordinator decomposes a sweep into
// content-addressed tasks and schedules them across a fleet of shards —
// goroutine-isolated in-process executors by default, child worker
// processes over the wire protocol with Config.Isolate (the same
// processes a remote `crispd -worker-mode` peer would run). Robustness is
// the design center:
//
//   - Leases. A shard holds a time-bounded lease on its task, renewed by
//     heartbeat and by interval samples. A crashed shard (child SIGKILL,
//     OOM — classified KindCrash by the wire supervisor) revokes its own
//     lease on the way out; a silent one (dropped heartbeats) is caught
//     by the expiry monitor. Either way the task is reassigned to a
//     healthy shard.
//   - Checkpoint handoff. Each attempt checkpoints into its own
//     directory; a reassigned attempt resumes from the newest readable
//     checkpoint any prior attempt shipped, so a lost worker costs the
//     progress since its last checkpoint, never the task.
//   - Idempotent commit. Results are committed under the task's job
//     digest exactly once: a revoked-but-alive holder that finishes
//     anyway has its duplicate discarded by digest. Determinism makes
//     the race benign — both candidates are bit-identical — so losing
//     workers shrinks throughput, never correctness.
//
// Retries reuse the job tier's deterministic backoff (base·2^(n-1) with
// seeded jitter, keyed by digest and attempt); dispatch consults the
// federated caches (the coordinator's own store, and with isolation the
// worker's ResultsDir) before executing anything.

// Sweep admission defaults.
const (
	DefaultLeaseTTL      = 10 * time.Second
	DefaultMaxSweeps     = 16
	DefaultMaxSweepTasks = 512
)

// coordinator owns the sweep tier. One per server; nil until New wires it.
type coordinator struct {
	s *Server

	ttl     time.Duration
	hbEvery time.Duration
	shards  int

	mu      sync.Mutex
	sweeps  map[string]*Sweep
	order   []string
	byKey   map[string]*sweepTask
	cancels map[string]context.CancelFunc // running attempts by "key#epoch"
	nextID  int
	active  int // sweeps not yet terminal (admission bound)

	queue  chan *sweepTask
	leases *leaseTable
	stop   chan struct{}
	wg     sync.WaitGroup

	revocations atomic.Int64 // leases revoked: crashes + expiries
	expiries    atomic.Int64 // revocations caused by a missed heartbeat
	resumes     atomic.Int64 // reassigned attempts resuming from a checkpoint
	duplicates  atomic.Int64 // duplicate results discarded by digest
	fedHits     atomic.Int64 // dispatches answered from a federated cache
	tasksDone   atomic.Int64
	tasksFailed atomic.Int64
}

func newCoordinator(s *Server) *coordinator {
	cfg := s.cfg
	c := &coordinator{
		s:       s,
		ttl:     cfg.LeaseTTL,
		hbEvery: cfg.HeartbeatEvery,
		shards:  cfg.FleetWorkers,
		sweeps:  make(map[string]*Sweep),
		byKey:   make(map[string]*sweepTask),
		cancels: make(map[string]context.CancelFunc),
		stop:    make(chan struct{}),
	}
	// Capacity covers every task of every admissible sweep, so enqueue
	// and requeue never block a shard or a timer goroutine.
	c.queue = make(chan *sweepTask, cfg.MaxSweeps*cfg.MaxSweepTasks)
	c.leases = newLeaseTable(c.ttl)
	return c
}

// start launches the shard pool and the lease-expiry monitor.
func (c *coordinator) start() {
	for i := 0; i < c.shards; i++ {
		c.wg.Add(1)
		go c.shard(i)
	}
	c.wg.Add(1)
	go c.monitor()
}

// drain stops admission, cancels running attempts (isolated children get
// SIGTERM and flush a final snapshot), and waits for the shards to exit.
func (c *coordinator) drain() {
	c.mu.Lock()
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	cancels := make([]context.CancelFunc, 0, len(c.cancels))
	for _, cancel := range c.cancels {
		cancels = append(cancels, cancel)
	}
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	c.wg.Wait()
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
		hub:     obs.NewHub(c.s.cfg.TimelineBuffer),
		state:   StateRunning,
		created: time.Now(),
		started: time.Now(),
	}
	root := c.sweepDir(sw)
	for i, js := range specs {
		t := &sweepTask{
			sweep:  sw,
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
		c.byKey[t.key()] = t
	}
	c.sweeps[sw.ID] = sw
	c.order = append(c.order, sw.ID)
	c.active++
	sw.note(StateRunning, fmt.Sprintf("sweep admitted: %d tasks across %d shards (lease ttl %v)", len(sw.tasks), c.shards, c.ttl))
	tasks := sw.tasks
	c.mu.Unlock()

	for _, t := range tasks {
		c.enqueue(t)
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

func (c *coordinator) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// enqueue hands a task to the shard pool. Never blocks: the queue's
// capacity covers every admissible task, and a stopped coordinator drops
// the task (sweeps are in-memory; they die with the process).
func (c *coordinator) enqueue(t *sweepTask) {
	select {
	case <-c.stop:
	case c.queue <- t:
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
		Duplicates:   sw.dups,
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
				Attempts: t.attempts,
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
	sw, ok := c.sweeps[id]
	if !ok {
		c.mu.Unlock()
		return false, fmt.Errorf("service: unknown sweep %q", id)
	}
	switch sw.state {
	case StateDone, StateFailed, StateCanceled:
		c.mu.Unlock()
		return false, nil
	}
	sw.canceled = true
	sw.state = StateCanceled
	sw.finished = time.Now()
	var cancels []context.CancelFunc
	prefix := sw.ID + "/"
	for key, cancel := range c.cancels {
		if len(key) >= len(prefix) && key[:len(prefix)] == prefix {
			cancels = append(cancels, cancel)
		}
	}
	sw.note(StateCanceled, "sweep canceled")
	sw.hub.Close()
	c.finishCleanupLocked(sw, false)
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	return true, nil
}

// ---- dispatch and supervision ---------------------------------------

// shard is one fleet executor: it pulls tasks until drain.
func (c *coordinator) shard(id int) {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case t := <-c.queue:
			c.runTask(id, t)
		}
	}
}

// runTask executes one dispatch of one task on one shard: federated cache
// check, lease grant, the attempt itself, then commit or failure handling
// — all keyed by the lease epoch so a revoked holder's late report is
// recognized as stale.
func (c *coordinator) runTask(shard int, t *sweepTask) {
	sw := t.sweep
	c.mu.Lock()
	if t.state != taskPending || sw.canceled || sw.state != StateRunning {
		c.mu.Unlock()
		return
	}
	// Federation, coordinator side: the shared content-addressed store
	// already holds this digest (a prior job, a prior sweep, another
	// task's commit, or a restored persisted cache) — commit without
	// executing.
	if sr, ok := c.s.cache.get(t.digest); ok {
		c.fedHits.Add(1)
		c.commitLocked(t, t.epoch, sr, true)
		c.mu.Unlock()
		return
	}
	deaf := c.s.chaosCtrl.TakeHBDrop(t.digest)
	epoch := c.leases.Grant(t.key(), shard, deaf)
	t.state, t.epoch, t.worker = taskLeased, epoch, shard
	attempt := t.attempts + 1
	resumeFrom := t.resumeFrom
	if resumeFrom != "" {
		t.resumed = true
		sw.resumes++
		c.resumes.Add(1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ckey := fmt.Sprintf("%s#%d", t.key(), epoch)
	c.cancels[ckey] = cancel
	detail := fmt.Sprintf("task %d (%s) leased to shard %d, attempt %d (epoch %d)", t.index, t.digest, shard, attempt, epoch)
	if resumeFrom != "" {
		if cyc, ok := snapshot.NewestCycle(resumeFrom); ok {
			detail += fmt.Sprintf(", resuming from shipped checkpoint at cycle %d", cyc)
		} else {
			detail += ", resuming"
		}
	}
	sw.note(StateRunning, detail)
	c.mu.Unlock()
	defer func() {
		cancel()
		c.mu.Lock()
		delete(c.cancels, ckey)
		c.mu.Unlock()
	}()

	stored, err := c.runShardAttempt(ctx, cancel, shard, t, attempt, resumeFrom, epoch)
	if err == nil {
		if d := c.s.chaosCtrl.CompletionDelay(); d > 0 {
			sleepBackoff(ctx, d)
		}
		c.mu.Lock()
		c.commitLocked(t, epoch, stored, false)
		c.mu.Unlock()
		return
	}
	c.handleFailure(t, epoch, err)
}

// runShardAttempt runs one attempt on this shard, renewing the task's
// lease on a wall-clock ticker (the worker→coordinator heartbeat) and on
// every interval sample. A renewal that comes back negative means the
// lease was revoked under us — the attempt is abandoned via cancel, the
// distributed-system equivalent of a fencing token.
func (c *coordinator) runShardAttempt(ctx context.Context, cancel context.CancelFunc, shard int, t *sweepTask, attempt int, resumeFrom string, epoch uint64) (*StoredResult, error) {
	key := t.key()
	renew := func() {
		if d := c.s.chaosCtrl.HeartbeatDelay(); d > 0 {
			time.Sleep(d)
		}
		if !c.leases.Renew(key, epoch) {
			cancel()
		}
	}
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(c.hbEvery)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				renew()
			}
		}
	}()
	defer func() {
		close(hbStop)
		hbWG.Wait()
	}()

	killAt, armed := c.s.chaosCtrl.TakeKill(t.digest)
	if !armed {
		killAt = 0
	}
	ckptDir := t.attemptDir(attempt)
	onSample := func(smp obs.Sample) {
		t.sweep.hub.Publish(obs.TimelineEvent{Cycle: smp.Cycle, Kind: obs.TimelineSample, Sample: &smp})
		if !c.leases.Renew(key, epoch) {
			cancel()
		}
	}

	if c.s.cfg.Isolate {
		req := workerRequest{
			Spec:             t.spec,
			ResumeDir:        resumeFrom,
			CheckpointDir:    ckptDir,
			CheckpointEvery:  c.s.cfg.CheckpointEvery,
			ResultsDir:       c.s.resultsDir(),
			Budget:           t.res.budget,
			Watchdog:         t.res.wdog,
			ProgressInterval: c.s.cfg.ProgressInterval,
			HeartbeatEvery:   int64(c.hbEvery),
			KillAt:           killAt,
		}
		if req.Budget == 0 {
			req.Budget = c.s.cfg.DefaultBudget
		}
		if req.Watchdog == 0 {
			req.Watchdog = c.s.cfg.WatchdogWindow
		}
		return c.s.runWorkerProcess(ctx, req, attemptHooks{
			onSample:    onSample,
			onHeartbeat: renew,
			onCached:    func() { c.fedHits.Add(1) },
		}, fmt.Sprintf("sweep task %s", key))
	}

	p := c.s.paramsFor(t.res, resumeFrom, ckptDir, killAt)
	stored, wall, err := runDirect(ctx, p, attemptHooks{
		onSample: onSample,
		onKill:   func(cycle int64) { panic(chaos.Injected(cycle)) },
	})
	c.s.observeRunTime(wall)
	return stored, err
}

// commitLocked commits one result for a task — exactly once. The caller
// holds c.mu. A second result for an already-done task (a revoked holder
// that finished anyway) is discarded as a duplicate; determinism
// guarantees the discarded bytes equal the committed ones, which the
// lease-expiry race test asserts literally.
func (c *coordinator) commitLocked(t *sweepTask, epoch uint64, stored *StoredResult, fromCache bool) {
	sw := t.sweep
	c.leases.Release(t.key(), epoch)
	if sw.canceled || sw.state != StateRunning {
		return
	}
	if t.state == taskDone {
		sw.dups++
		c.duplicates.Add(1)
		sw.note(StateRunning, fmt.Sprintf("task %d (%s): duplicate result from revoked lease (epoch %d) discarded by digest", t.index, t.digest, epoch))
		return
	}
	t.state = taskDone
	t.result = stored
	t.cacheHit = fromCache
	t.errMsg = ""
	sw.doneN++
	c.tasksDone.Add(1)
	if !fromCache {
		// Federation, write side: the result joins the shared store under
		// its digest, visible to jobs, future sweeps, and worker-local
		// caches alike.
		c.s.cache.put(stored)
	}
	src := "executed"
	if fromCache {
		src = "from federated cache"
	}
	sw.note(StateRunning, fmt.Sprintf("task %d (%s) done %s: stats_digest=%s (%d/%d)", t.index, t.digest, src, stored.StatsDigest, sw.doneN, len(sw.tasks)))
	c.maybeFinishLocked(sw)
}

// handleFailure resolves a failed attempt. Reports carrying a stale epoch
// (the lease was revoked while the attempt ran) are dropped — the task
// was already reassigned. A retryable failure revokes the lease, counts a
// revocation, and requeues the task after the deterministic backoff,
// resuming from the best shipped checkpoint; a permanent one fails the
// task; exhaustion of the attempt budget fails it too (the sweep-tier
// quarantine equivalent).
func (c *coordinator) handleFailure(t *sweepTask, epoch uint64, err error) {
	sw := t.sweep
	c.mu.Lock()
	if t.state != taskLeased || t.epoch != epoch {
		// Stale: a revoked holder reporting after reassignment.
		c.leases.Release(t.key(), epoch)
		c.mu.Unlock()
		return
	}
	c.leases.Release(t.key(), epoch)
	if sw.canceled || sw.state != StateRunning || c.stopped() {
		t.state = taskPending
		c.mu.Unlock()
		return
	}
	if se, ok := robust.AsSimError(err); ok && robust.DeepestKind(se) == robust.KindCanceled {
		// Canceled without the sweep being canceled: the lease was revoked
		// under a live attempt (fencing) — the expiry path already
		// requeued; nothing to do here. Treat like stale.
		t.state = taskPending
		c.mu.Unlock()
		return
	}
	if !robust.RetryableError(err) {
		c.failTaskLocked(t, err)
		c.mu.Unlock()
		return
	}

	// A crashed or failed holder revokes its lease on the way out.
	sw.revoked++
	c.revocations.Add(1)
	t.attempts++
	if t.attempts >= c.s.maxAttempts() {
		c.failTaskLocked(t, fmt.Errorf("task exhausted %d attempts: %w", t.attempts, err))
		c.mu.Unlock()
		return
	}
	t.state = taskPending
	t.epoch = 0
	t.resumeFrom = t.bestResume(t.attempts)
	// Chaos: damage the newest checkpoint before the resume, forcing the
	// fallback-to-previous path on the next attempt.
	if t.resumeFrom != "" {
		if mode, ok := c.s.chaosCtrl.TakeCorrupt(t.digest); ok {
			if p, cerr := chaos.Corrupt(t.resumeFrom, mode, c.s.cfg.Chaos.Seed); cerr == nil {
				log.Printf("crispd: chaos: %s-corrupted checkpoint %s (sweep task %s)", mode, p, t.key())
			}
		}
	}
	delay := c.s.backoffDelay(t.digest, t.attempts+1)
	sw.note(StateRunning, fmt.Sprintf("task %d (%s): lease revoked after attempt %d (%v); retrying in %v", t.index, t.digest, t.attempts, err, delay))
	log.Printf("crispd: sweep task %s attempt %d failed, retrying in %v: %v", t.key(), t.attempts, delay, err)
	c.mu.Unlock()
	time.AfterFunc(delay, func() { c.enqueue(t) })
}

// failTaskLocked marks a task terminally failed (caller holds c.mu).
func (c *coordinator) failTaskLocked(t *sweepTask, err error) {
	sw := t.sweep
	t.state = taskFailed
	t.errMsg = err.Error()
	sw.failedN++
	c.tasksFailed.Add(1)
	sw.note(StateFailed, fmt.Sprintf("task %d (%s) failed: %v", t.index, t.digest, err))
	c.maybeFinishLocked(sw)
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
		sw.note(StateFailed, fmt.Sprintf("sweep failed: %d/%d tasks failed", sw.failedN, len(sw.tasks)))
		sw.hub.Close()
		c.finishCleanupLocked(sw, false)
		return
	}
	sw.state = StateDone
	sw.merged = sw.mergedDigest()
	sw.note(StateDone, fmt.Sprintf("sweep done: %d tasks, merged_digest=%s, revocations=%d, resumes=%d, duplicates=%d",
		len(sw.tasks), sw.merged, sw.revoked, sw.resumes, sw.dups))
	sw.hub.Close()
	c.finishCleanupLocked(sw, true)
}

// finishCleanupLocked releases a terminal sweep's resources (caller holds
// c.mu): its admission slot, its lease-table keys, and — when the sweep
// succeeded — its checkpoint directories (kept for postmortems
// otherwise, except memory-only scratch which always goes).
func (c *coordinator) finishCleanupLocked(sw *Sweep, removeDirs bool) {
	c.active--
	for _, t := range sw.tasks {
		delete(c.byKey, t.key())
	}
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

// ---- lease expiry ----------------------------------------------------

// monitor is the lease-expiry scanner: leases whose holders went silent
// are revoked and their tasks reassigned immediately (the TTL already
// was the grace period — no extra backoff).
func (c *coordinator) monitor() {
	defer c.wg.Done()
	period := c.ttl / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			for _, exp := range c.leases.Expired(time.Now()) {
				c.expire(exp)
			}
		}
	}
}

// expire revokes one expired lease and reassigns its task. The revoked
// holder — if it is in fact still alive — keeps running until its next
// renewal attempt fences it off (or it finishes, and its result is
// discarded as a duplicate).
func (c *coordinator) expire(exp expiredLease) {
	c.mu.Lock()
	t, ok := c.byKey[exp.key]
	if !ok || t.state != taskLeased || t.epoch != exp.epoch {
		c.mu.Unlock()
		return
	}
	sw := t.sweep
	c.expiries.Add(1)
	c.revocations.Add(1)
	sw.revoked++
	t.attempts++
	if sw.canceled || sw.state != StateRunning {
		t.state = taskPending
		c.mu.Unlock()
		return
	}
	if t.attempts >= c.s.maxAttempts() {
		c.failTaskLocked(t, fmt.Errorf("task exhausted %d attempts: lease on shard %d expired (missed heartbeats)", t.attempts, exp.worker))
		c.mu.Unlock()
		return
	}
	t.state = taskPending
	t.epoch = 0
	t.resumeFrom = t.bestResume(t.attempts)
	sw.note(StateRunning, fmt.Sprintf("task %d (%s): lease on shard %d revoked (heartbeats missed for %v); reassigning", t.index, t.digest, exp.worker, c.ttl))
	log.Printf("crispd: sweep task %s: lease on shard %d expired; reassigning", exp.key, exp.worker)
	c.mu.Unlock()
	c.enqueue(t)
}

// ---- stats -----------------------------------------------------------

// FleetStats is the coordinator's counter snapshot, embedded in the
// server Stats.
type FleetStats struct {
	Shards           int
	SweepsActive     int
	SweepsByState    map[State]int
	TasksDone        int64
	TasksFailed      int64
	LeaseGrants      int64
	LeaseRenewals    int64
	LeaseExpirations int64
	LeaseRevocations int64
	FleetResumes     int64
	DuplicateResults int64
	FederatedHits    int64
	HeartbeatDrops   int64
}

func (c *coordinator) stats() FleetStats {
	grants, renewals, _ := c.leases.Counters()
	fs := FleetStats{
		Shards:           c.shards,
		SweepsByState:    make(map[State]int),
		TasksDone:        c.tasksDone.Load(),
		TasksFailed:      c.tasksFailed.Load(),
		LeaseGrants:      grants,
		LeaseRenewals:    renewals,
		LeaseExpirations: c.expiries.Load(),
		LeaseRevocations: c.revocations.Load(),
		FleetResumes:     c.resumes.Load(),
		DuplicateResults: c.duplicates.Load(),
		FederatedHits:    c.fedHits.Load(),
		HeartbeatDrops:   c.s.chaosCtrl.HeartbeatDrops(),
	}
	c.mu.Lock()
	fs.SweepsActive = c.active
	for _, sw := range c.sweeps {
		fs.SweepsByState[sw.state]++
	}
	c.mu.Unlock()
	return fs
}
