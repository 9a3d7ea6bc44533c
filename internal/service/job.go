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
	"time"

	"crisp/internal/obs"
)

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

func (st State) terminal() bool { return st != StateQueued && st != StateRunning }

// Job is one tracked submission.
type Job struct {
	ID     string
	Digest string
	Spec   JobSpec

	srv *Server
	// task is the one task this job owns — a job is a sweep of one. nil
	// for a job that never runs itself: a cache hit, a coalesced follower,
	// or one recovered already terminal.
	task *sweepTask

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
	// followers are coalesced duplicates completed alongside this
	// (primary) job.
	followers []*Job
	// failedAttempts counts execution attempts that failed retryably,
	// including ones recorded by previous daemon instances (attempts.json)
	// — the quarantine threshold compares against this.
	failedAttempts int
	// last is the latest interval sample: cumulative skip-ratio counters of
	// the job's current attempt (engine core sleeping — see gpu.GPU's
	// stepCores). Guarded by mu.
	last obs.Sample
}

// sample receives interval metrics samples from the simulation
// goroutine (crisp.WithMetricsSink) and broadcasts them. Publish is one
// mutex + ring write when nobody is watching, so the simulation never
// waits on an observer.
func (j *Job) sample(s obs.Sample) {
	j.mu.Lock()
	j.last = s
	j.mu.Unlock()
	j.hub.Publish(obs.TimelineEvent{Cycle: s.Cycle, Kind: obs.TimelineSample, Sample: &s})
}

// noteLifecycle broadcasts a state transition on the job's timeline,
// stamped with the last sampled cycle (0 before the first sample).
func (j *Job) noteLifecycle(state State, detail string) {
	publishAtLatest(j.hub, obs.TimelineEvent{Kind: obs.TimelineLifecycle, State: string(state), Detail: detail})
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

// ---- the owner seam: what a job adds to supervision --------------------
//
// A timeline of its own with TimelineAttempt markers, persistence (the
// failed-attempt count, and the markers settle writes), quarantine instead
// of plain failure when the attempt budget runs out, and coalesced
// followers that share its outcome. Called with the coordinator's mutex
// held; the lock order is coordinator → server → job.

func (j *Job) live() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return !j.userStop && !j.state.terminal()
}

// attemptStarted moves a queued job to running on its first dispatch, and
// marks every attempt — 1 is the first run, higher numbers are retries.
func (j *Job) attemptStarted(t *sweepTask, n int) {
	s := j.srv
	s.mu.Lock()
	j.mu.Lock()
	first := j.state == StateQueued
	if first {
		j.state, j.started = StateRunning, time.Now()
		s.queued--
	}
	j.mu.Unlock()
	s.mu.Unlock()
	if first {
		j.noteLifecycle(StateRunning, "")
	}
	publishAtLatest(j.hub, obs.TimelineEvent{Kind: obs.TimelineAttempt, Attempt: n, Detail: "started"})
}

// attemptResumed marks the attempt's restored checkpoint on the timeline.
func (j *Job) attemptResumed(t *sweepTask, n int, cycle int64) {
	publishAtLatest(j.hub, obs.TimelineEvent{Kind: obs.TimelineAttempt, Attempt: n,
		Detail: fmt.Sprintf("resuming from checkpoint at cycle %d", cycle)})
}

func (j *Job) note(t *sweepTask, detail string) { j.noteLifecycle(StateRunning, detail) }

// attemptFailed persists the failed-attempt count, so a crash-looping
// daemon cannot reset a poison job's budget.
func (j *Job) attemptFailed(t *sweepTask, err error) {
	j.mu.Lock()
	j.failedAttempts = t.attempts
	j.mu.Unlock()
	j.srv.recordAttempt(j, t.attempts, err)
}

// attemptStopped: a user cancel (DELETE) makes the job canceled; a drain
// rewinds it to queued, its spec and final snapshot staying on disk for
// the restarted daemon to resume.
func (j *Job) attemptStopped(t *sweepTask, err error) {
	s := j.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	stop := j.userStop
	rewind := !stop && s.draining && j.state == StateRunning
	if rewind {
		j.state = StateQueued
		s.queued++
	}
	j.mu.Unlock()
	switch {
	case stop && err == nil:
		s.settle(j, StateCanceled, "canceled as its run completed", nil)
	case stop:
		s.settle(j, StateCanceled, err.Error(), nil)
	case rewind:
		j.noteLifecycle(StateQueued, "drained; checkpointed for the next daemon")
	}
}

// taskDone retains the job's interval series under its digest (the
// A/B-diff and crispviz-serve data source) and completes the job.
func (j *Job) taskDone(t *sweepTask) {
	s := j.srv
	samples := j.samples()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !t.cacheHit {
		s.store.putSeries(j.Digest, samples)
	}
	s.settle(j, StateDone, fmt.Sprintf("stats_digest=%s samples=%d series_digest=%016x",
		t.result.StatsDigest, len(samples), obs.SamplesDigest(samples)), nil)
}

// taskFailed: a job that exhausted its attempt budget is quarantined —
// parked with its crash dumps and checkpoints kept on disk and never
// retried again, not even by a restarted daemon (quarantined.json).
func (j *Job) taskFailed(t *sweepTask, err error, exhausted bool) {
	s := j.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if !exhausted {
		s.settle(j, StateFailed, err.Error(), err)
		return
	}
	msg := fmt.Sprintf("quarantined after %d failed attempts: %v", t.attempts, err)
	log.Printf("job %s %s", j.ID, msg)
	s.settle(j, StateQuarantined, msg, err)
}

// settle is the one terminal transition of a job (caller holds s.mu): it
// stamps state, error and finish time, bumps the state's counter, writes
// the failure marker (err != nil: failed.json or quarantined.json, the
// job directory kept for postmortems) or clears the job's disk state
// (done and canceled: a result lives on in the cache), publishes the
// lifecycle event, closes the hub, and repeats for the coalesced
// followers, which share the primary's outcome — except that quarantine
// belongs to the job that burned the attempts; its followers just fail.
func (s *Server) settle(job *Job, state State, msg string, err error) {
	job.mu.Lock()
	if job.state.terminal() {
		job.mu.Unlock()
		return // already settled: a follower canceled on its own, a late report
	}
	if job.state == StateQueued && job.task != nil {
		s.queued--
	}
	job.state, job.finished = state, time.Now()
	if state != StateDone {
		job.errMsg = msg
	}
	followers, attempts := job.followers, job.failedAttempts
	job.followers = nil
	job.mu.Unlock()
	if s.inflight[job.Digest] == job {
		delete(s.inflight, job.Digest)
	}
	switch state {
	case StateDone:
		s.done.Add(1)
		s.unpersistJob(job)
	case StateCanceled:
		s.canceled.Add(1)
		s.unpersistJob(job)
	case StateFailed:
		s.failed.Add(1)
		if err != nil {
			s.markFailed(job, err)
		}
	case StateQuarantined:
		s.quarantine.Add(1)
		if err != nil {
			s.markQuarantined(job, err, attempts)
		}
	}
	job.noteLifecycle(state, msg)
	job.hub.Close()
	if state == StateQuarantined {
		state = StateFailed
	}
	for _, f := range followers {
		s.settle(f, state, fmt.Sprintf("coalesced execution %s: %s", job.ID, msg), err)
	}
}

// ---- persistence ----------------------------------------------------

// persistedJob is the on-disk record of an admitted job.
type persistedJob struct {
	ID     string  `json:"id"`
	Digest string  `json:"digest"`
	Spec   JobSpec `json:"spec"`
}

// jobDir is the job's private state directory ("" without persistence):
// job.json and the supervision markers, and under it one a<N> checkpoint
// directory per attempt.
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
	if err := os.MkdirAll(dir, 0o755); err == nil {
		writeJSONAtomic(filepath.Join(dir, "job.json"), persistedJob{ID: job.ID, Digest: job.Digest, Spec: job.Spec})
	}
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
	rec := map[string]string{"error": err.Error()}
	if kind, cycle := failureOf(err); kind != "" {
		rec["kind"], rec["cycle"] = kind, fmt.Sprint(cycle)
	}
	s.writeMarker(job, "failed.json", rec)
}

// scanJobs recovers persisted jobs at startup, in id order. Jobs with a
// quarantine or failure marker are registered in that terminal state; the
// rest are resolved and readmitted (to resume from their newest
// checkpoint when one exists), carrying their persisted failed-attempt
// count so a crash-looping daemon cannot reset a poison job's retry
// budget. A corrupt persisted entry is set aside (renamed *.corrupt,
// logged) and never aborts the boot — one damaged file costs one job.
func (s *Server) scanJobs() error {
	root := filepath.Join(s.cfg.StateDir, "jobs")
	ents, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("service: scanning job state: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && !strings.HasSuffix(e.Name(), quarantineSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	for _, name := range names {
		dir := filepath.Join(root, name)
		b, err := os.ReadFile(filepath.Join(dir, "job.json"))
		if err != nil {
			if os.IsNotExist(err) {
				continue // not a job dir; leave it alone
			}
			if aside := quarantineFile(dir); aside != "" {
				log.Printf("unreadable persisted job %s set aside as %s: %v", dir, aside, err)
			}
			continue
		}
		var pj persistedJob
		if err := json.Unmarshal(b, &pj); err != nil || pj.ID == "" {
			if aside := quarantineFile(dir); aside != "" {
				log.Printf("corrupt persisted job %s set aside as %s", dir, aside)
			}
			continue
		}
		if n := idNumber(pj.ID); n > s.nextID {
			s.nextID = n
		}
		job := s.newJob(pj.ID, pj.Digest, pj.Spec)
		// terminal registers a job recovered already finished; err, when
		// set, is new information to put on disk.
		terminal := func(state State, msg string, err error) {
			s.register(job)
			s.settle(job, state, msg, err)
		}

		if qb, err := os.ReadFile(filepath.Join(dir, "quarantined.json")); err == nil {
			var rec quarantineRecord
			json.Unmarshal(qb, &rec)
			terminal(StateQuarantined, fmt.Sprintf("quarantined after %d failed attempts: %s", rec.Attempts, rec.Error), nil)
			continue
		}
		if fb, err := os.ReadFile(filepath.Join(dir, "failed.json")); err == nil {
			var rec map[string]string
			json.Unmarshal(fb, &rec)
			msg := rec["error"]
			if msg == "" {
				msg = "failed in a previous daemon instance"
			}
			terminal(StateFailed, msg, nil)
			continue
		}
		r, err := pj.Spec.resolve()
		if err != nil {
			terminal(StateFailed, "recovered spec no longer resolves: "+err.Error(), err)
			continue
		}
		job.Digest = r.digest

		// Failed attempts persist across restarts; a job already at the
		// quarantine threshold goes terminal here instead of re-running.
		if ab, err := os.ReadFile(filepath.Join(dir, "attempts.json")); err == nil {
			var rec attemptRecord
			if json.Unmarshal(ab, &rec) == nil && rec.Attempts > 0 {
				job.failedAttempts = rec.Attempts
				if rec.Attempts >= s.maxAttempts() {
					qerr := fmt.Errorf("%s (recovered at the attempt limit)", rec.LastError)
					msg := fmt.Sprintf("quarantined after %d failed attempts: %v", rec.Attempts, qerr)
					log.Printf("recovered job %s %s", job.ID, msg)
					terminal(StateQuarantined, msg, qerr)
					continue
				}
			}
		}
		s.admit(job, r, true)
	}
	return nil
}

// idNumber is the serial number of a job or sweep id (j000007, s000003).
func idNumber(id string) int {
	n := 0
	if len(id) > 1 {
		fmt.Sscanf(id[1:], "%d", &n)
	}
	return n
}
