package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	crisp "crisp"
	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/robust/chaos"
	"crisp/internal/snapshot"
)

// This file is the execution core: one attempt of one task, described by
// the workerRequest that is also its wire form, run over one of two
// transports — in-process through the crisp facade (runDirect) or in a
// child worker process over the wire protocol (runWorkerProcess). Every
// task takes this path whoever owns it, so a sweep cell and a directly
// submitted job execute byte-identically.

// requestFor describes attempt n of t: the task's spec by value plus every
// server-default-merged knob. runDirect executes it as is; an isolated
// child decodes the same document from stdin.
func (s *Server) requestFor(t *sweepTask, n int, killAt int64) workerRequest {
	req := workerRequest{
		Protocol:         wireProtocol,
		Spec:             t.spec,
		CheckpointEvery:  s.cfg.CheckpointEvery,
		Budget:           t.res.budget,
		Watchdog:         t.res.watchdog,
		ProgressInterval: s.cfg.ProgressInterval,
		HeartbeatEvery:   int64(s.cfg.HeartbeatEvery),
		KillAt:           killAt,
	}
	if t.dir != "" {
		req.CheckpointDir = filepath.Join(t.dir, fmt.Sprintf("a%d", n))
	}
	if req.Budget == 0 {
		req.Budget = s.cfg.DefaultBudget
	}
	if req.Watchdog == 0 {
		req.Watchdog = s.cfg.WatchdogWindow
	}
	return req
}

// attempt runs attempt n of t to its result or its error, arming the
// chaos kill and picking the transport from Config.Isolate. An in-process
// chaos kill panics with a KindInjected SimError from the metrics sink on
// the sim goroutine: the core's deferred recovery flushes a final snapshot
// first, so the retry has the kill-time state to resume from. A kill is
// counted where it fires; an attempt that ends before its cycle counts
// none.
func (s *Server) attempt(ctx context.Context, t *sweepTask, n int, h attemptHooks) (stored *StoredResult, err error) {
	killAt, _ := s.chaosCtrl.TakeKill(t.digest)
	req := s.requestFor(t, n, killAt)
	t0 := time.Now()
	if s.cfg.Isolate {
		stored, err = s.runWorkerProcess(ctx, req, h, "task "+t.id)
		// The child SIGKILLs itself right after sending its first sample
		// at or past KillAt, so a crash heard after such a sample is it.
		if se, ok := robust.AsSimError(err); ok && killAt > 0 && se.Kind == robust.KindCrash && se.Cycle >= killAt {
			s.chaosCtrl.Killed()
		}
	} else {
		h.onKill = func(cycle int64) {
			s.chaosCtrl.Killed()
			panic(chaos.Injected(cycle))
		}
		stored, err = runDirect(ctx, req, t.res, s.frontend, h)
	}
	s.observeRunTime(time.Since(t0))
	return stored, err
}

// attemptHooks observe one attempt's progress. Any hook may be nil.
type attemptHooks struct {
	// onSample receives interval telemetry from the simulation (or, for an
	// isolated attempt, forwarded from the child).
	onSample func(obs.Sample)
	// onResume reports where the attempt starts: the cycle of the
	// checkpoint it restored (noResume for none) and the checkpoints it
	// renamed aside on the way. It fires once, before the first sample,
	// unless the attempt found no checkpoint at all.
	onResume func(cycle int64, aside []string)
	// onKill implements the chaos kill at workerRequest.KillAt for the
	// direct path: in-process supervision panics with an injected SimError (the
	// core's deferred recovery flushes a final snapshot first); a worker
	// process SIGKILLs itself (no snapshot — the hardest crash).
	onKill func(cycle int64)
}

// noResume is onResume's cycle when the attempt restored no checkpoint.
const noResume = -1

// attemptDirs lists where a task's attempts may have checkpointed: the
// attempt directories (a1, a2, ...) under its checkpoint root.
func attemptDirs(root string) (dirs []string) {
	ents, _ := os.ReadDir(root) // none when root is "" (no checkpoints)
	for _, e := range ents {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(root, e.Name()))
		}
	}
	return dirs
}

// runDirect executes one attempt in-process through the crisp facade and
// summarizes the result for the cache. r is req.Spec resolved; fe is the
// server's trace cache (nil in a worker process).
func runDirect(ctx context.Context, req workerRequest, r *resolved, fe *crisp.Frontend, h attemptHooks) (*StoredResult, error) {
	sink := func(smp obs.Sample) {
		if h.onSample != nil {
			h.onSample(smp)
		}
		if req.KillAt > 0 && smp.Cycle >= req.KillAt && h.onKill != nil {
			h.onKill(smp.Cycle)
		}
	}
	runOpts := []crisp.RunOption{
		crisp.WithMetrics(req.ProgressInterval),
		crisp.WithMetricsSink(sink),
		crisp.WithFrontend(fe),
	}
	if req.Budget > 0 {
		runOpts = append(runOpts, crisp.WithCycleBudget(req.Budget))
	}
	if req.Watchdog != 0 {
		runOpts = append(runOpts, crisp.WithWatchdog(req.Watchdog))
	}
	if req.CheckpointDir != "" {
		runOpts = append(runOpts, crisp.WithCheckpointDir(req.CheckpointDir))
		if req.CheckpointEvery > 0 {
			runOpts = append(runOpts, crisp.WithCheckpointEvery(req.CheckpointEvery))
		}
	}

	t0 := time.Now()
	var restore *crisp.Snapshot
	if req.CheckpointDir != "" {
		// Resume from this job's newest readable snapshot that any of the
		// task's attempts shipped, a drained one's included; corrupt ones
		// and other jobs' are renamed aside and skipped
		// (fallback-to-previous). Nothing usable leaves restore nil, a
		// fresh run — losing progress, never the job.
		var aside []string
		restore, aside, _ = snapshot.LoadNewest(r.digest, attemptDirs(filepath.Dir(req.CheckpointDir))...)
		if (restore != nil || len(aside) > 0) && h.onResume != nil {
			cycle := int64(noResume)
			if restore != nil {
				cycle = restore.State.Arch.Cycle
			}
			h.onResume(cycle, aside)
		}
	}
	res, err := crisp.RunSpec(ctx, r.spec, restore, runOpts...)
	if err != nil {
		return nil, err
	}
	return storedFromResult(r, res, float64(time.Since(t0).Microseconds())/1000)
}

// workerArgv resolves the isolated-worker command line: the configured
// override, or this binary re-exec'ed with WorkerEnv set.
func (s *Server) workerArgv() ([]string, error) {
	if len(s.cfg.WorkerCommand) > 0 {
		return s.cfg.WorkerCommand, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, &robust.SimError{Kind: robust.KindCrash, Msg: "locating worker binary", Err: err}
	}
	return []string{self}, nil
}

// runWorkerProcess executes one attempt in a child worker process
// speaking the wire protocol. The child's resume report and samples fire
// the hooks; its terminal event becomes this function's return. A
// child that dies without a terminal event — the SIGKILL/OOM case, or one
// killed for falling silent — is classified KindCrash (retryable), or
// KindCanceled when its death was requested through ctx. logName labels
// protocol complaints in the daemon log.
func (s *Server) runWorkerProcess(ctx context.Context, req workerRequest, h attemptHooks, logName string) (*StoredResult, error) {
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return nil, &robust.SimError{Kind: robust.KindValidation, Msg: "encoding worker request", Err: err}
	}
	argv, err := s.workerArgv()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), WorkerEnv+"=1")
	cmd.Stdin = bytes.NewReader(reqJSON)
	cmd.Stderr = os.Stderr
	// Graceful stop: ctx cancellation SIGTERMs the child (it flushes a
	// final snapshot and reports canceled); WaitDelay escalates to SIGKILL
	// if it wedges.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = workerKillDelay
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, &robust.SimError{Kind: robust.KindCrash, Msg: "worker stdout pipe", Err: err}
	}
	if err := cmd.Start(); err != nil {
		return nil, &robust.SimError{Kind: robust.KindCrash, Msg: "spawning worker", Err: err}
	}

	var stored *StoredResult
	var simErr, mismatch *robust.SimError
	var lastCycle int64 // of the newest sample read: where a crash struck
	// A healthy child says something at least every HeartbeatEvery; one
	// silent for silentHeartbeats of them is hung, and holds this worker
	// until it is killed and reaped as a crash.
	bound := silentHeartbeats * s.cfg.HeartbeatEvery
	var reaped atomic.Bool
	silent := time.AfterFunc(bound, func() {
		reaped.Store(true)
		cmd.Process.Kill()
	})
	defer silent.Stop()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64*1024), maxWireEvent)
	for sc.Scan() {
		silent.Reset(bound)
		ev, err := decodeWorkerEvent(sc.Bytes())
		if err != nil {
			log.Printf("%s: dropped worker event: %v", logName, err)
			continue
		}
		if mismatch != nil {
			continue // the child is being killed: nothing it says counts
		}
		if (ev.Type == evResume || ev.Type == evResult || ev.Type == evError) && ev.Protocol != wireProtocol {
			// A -worker-bin of another build: what it reports need not mean
			// what this build means, so the attempt ends here, once, and is
			// not retried.
			mismatch = &robust.SimError{Kind: robust.KindValidation, Cycle: lastCycle, Msg: fmt.Sprintf(
				"worker's %s event carries wire protocol %d (0: none), this crispd speaks %d: run crispd and its -worker-bin from one build",
				ev.Type, ev.Protocol, wireProtocol)}
			log.Printf("%s: %s", logName, mismatch.Msg)
			cmd.Process.Kill()
			continue
		}
		switch ev.Type {
		case evSample:
			lastCycle = ev.Sample.Cycle
			if h.onSample != nil {
				h.onSample(*ev.Sample)
			}
		case evResume:
			if h.onResume != nil {
				h.onResume(ev.Cycle, ev.Corrupt)
			}
		case evResult:
			stored = ev.Result
		case evError:
			kind, ok := robust.KindFromString(ev.ErrKind)
			if !ok {
				kind = robust.KindPanic
			}
			simErr = &robust.SimError{Kind: kind, Cycle: ev.ErrCycle, Msg: ev.ErrMsg}
		}
	}
	waitErr := cmd.Wait()

	switch {
	case mismatch != nil:
		return nil, mismatch
	case stored != nil:
		return stored, nil
	case simErr != nil:
		return nil, simErr
	case ctx.Err() != nil:
		// Death was requested (cancel or drain) and the child never got a
		// terminal event out — SIGKILL escalation beat the snapshot flush.
		return nil, &robust.SimError{Kind: robust.KindCanceled, Msg: "worker terminated by cancellation", Err: ctx.Err()}
	default:
		// The child vanished mid-protocol: SIGKILL, OOM kill, a runtime
		// fault, or the silence timer. Only this attempt dies; the
		// supervisor retries from the last periodic checkpoint.
		s.crashes.Add(1)
		msg := fmt.Sprintf("worker process died without a result: %v", waitErr)
		if reaped.Load() {
			msg = fmt.Sprintf("worker process silent for %v (%d heartbeats) was killed: %v", bound, silentHeartbeats, waitErr)
		}
		return nil, &robust.SimError{Kind: robust.KindCrash, Cycle: lastCycle, Msg: msg}
	}
}
