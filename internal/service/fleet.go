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
	"syscall"
	"time"

	crisp "crisp"
	"crisp/internal/obs"
	"crisp/internal/robust"
)

// This file is the shared execution core: one attempt of one resolved
// job, runnable either in-process through the crisp facade (runDirect) or
// in a child worker process over the wire protocol (runWorkerProcess).
// Both the per-job supervision path (execute/runAttempt in service.go)
// and the fleet shards (coordinator.go) drive these two functions, so a
// sweep task and a directly submitted job execute byte-identically — the
// determinism contract the merged-digest convergence tests lean on.

// runParams is one fully resolved execution attempt: the job plus every
// server-default-merged knob, by value.
type runParams struct {
	res              *resolved
	resumeFrom       string
	checkpointDir    string
	checkpointEvery  int64
	budget           int64
	wdog             int64
	progressInterval int64
	killAt           int64
	// frontend is the server's trace cache (nil in a worker process).
	frontend *crisp.Frontend
}

// paramsFor merges the server defaults into one attempt's parameters.
func (s *Server) paramsFor(r *resolved, resumeFrom, checkpointDir string, killAt int64) runParams {
	p := runParams{
		res:              r,
		resumeFrom:       resumeFrom,
		checkpointDir:    checkpointDir,
		checkpointEvery:  s.cfg.CheckpointEvery,
		budget:           r.budget,
		wdog:             r.wdog,
		progressInterval: s.cfg.ProgressInterval,
		killAt:           killAt,
		frontend:         s.frontend,
	}
	if p.budget == 0 {
		p.budget = s.cfg.DefaultBudget
	}
	if p.wdog == 0 {
		p.wdog = s.cfg.WatchdogWindow
	}
	return p
}

// attemptHooks observe one attempt's progress. Any hook may be nil.
type attemptHooks struct {
	// onSample receives interval telemetry from the simulation (or, for an
	// isolated attempt, forwarded from the child).
	onSample func(obs.Sample)
	// onFallback reports checkpoints renamed aside during a resume.
	onFallback func(corrupt []string)
	// onHeartbeat fires on a child's wall-clock liveness events (isolated
	// attempts only) — the fleet's lease-renewal signal.
	onHeartbeat func()
	// onCached fires when an isolated worker answered from its local
	// result cache without simulating (cache federation).
	onCached func()
	// onKill implements the chaos kill at runParams.killAt for the direct
	// path: in-process supervision panics with an injected SimError (the
	// core's deferred recovery flushes a final snapshot first); a worker
	// process SIGKILLs itself (no snapshot — the hardest crash).
	onKill func(cycle int64)
}

// runDirect executes one attempt in-process through the crisp facade and
// summarizes the result for the cache. The returned wall time is the
// simulation time, for the server's EWMA.
func runDirect(ctx context.Context, p runParams, h attemptHooks) (*StoredResult, time.Duration, error) {
	sink := func(smp obs.Sample) {
		if h.onSample != nil {
			h.onSample(smp)
		}
		if p.killAt > 0 && smp.Cycle >= p.killAt && h.onKill != nil {
			h.onKill(smp.Cycle)
		}
	}
	runOpts := []crisp.RunOption{
		crisp.WithMetrics(p.progressInterval),
		crisp.WithMetricsSink(sink),
		crisp.WithFrontend(p.frontend),
	}
	if p.budget > 0 {
		runOpts = append(runOpts, crisp.WithCycleBudget(p.budget))
	}
	if p.wdog != 0 {
		runOpts = append(runOpts, crisp.WithWatchdog(p.wdog))
	}
	if p.checkpointDir != "" {
		runOpts = append(runOpts, crisp.WithCheckpointDir(p.checkpointDir))
		if p.checkpointEvery > 0 {
			runOpts = append(runOpts, crisp.WithCheckpointEvery(p.checkpointEvery))
		}
	}

	t0 := time.Now()
	var res *crisp.Result
	var err error
	if p.resumeFrom != "" {
		// Resume from the newest readable snapshot; corrupt ones are
		// renamed aside and skipped (fallback-to-previous). A directory
		// with nothing readable falls back to a fresh run — losing
		// progress, never the job.
		env, corrupt, lerr := loadResume(p.resumeFrom)
		if len(corrupt) > 0 && h.onFallback != nil {
			h.onFallback(corrupt)
		}
		if lerr == nil {
			res, err = crisp.Resume(ctx, env, runOpts...)
		}
	}
	if res == nil && err == nil {
		if p.res.isMix() {
			res, err = crisp.RunMixContext(ctx, p.res.cfg, p.res.mix, p.res.policy, p.res.opts, runOpts...)
		} else {
			res, err = crisp.RunPairContext(ctx, p.res.cfg, p.res.scene, p.res.compute, p.res.policy, p.res.opts, runOpts...)
		}
	}
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, err
	}
	stored, serr := storedFromResult(p.res, res, float64(wall.Microseconds())/1000)
	return stored, wall, serr
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
// speaking the wire protocol. The child's samples, heartbeats, and
// fallback reports fire the hooks; its terminal event becomes this
// function's return. A child that dies without a terminal event — the
// SIGKILL/OOM case — is classified KindCrash (retryable), or KindCanceled
// when its death was requested through ctx. logName labels protocol
// complaints in the daemon log.
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

	t0 := time.Now()
	var stored *StoredResult
	var cached bool
	var simErr *robust.SimError
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64*1024), maxWireEvent)
	for sc.Scan() {
		ev, err := decodeWorkerEvent(sc.Bytes())
		if err != nil {
			log.Printf("crispd: %s: dropped worker event: %v", logName, err)
			continue
		}
		switch ev.Type {
		case evSample:
			if h.onSample != nil {
				h.onSample(*ev.Sample)
			}
		case evHeartbeat:
			if h.onHeartbeat != nil {
				h.onHeartbeat()
			}
		case evFallback:
			for _, c := range ev.Corrupt {
				log.Printf("crispd: %s: corrupt checkpoint %s renamed aside (worker)", logName, c)
			}
			if len(ev.Corrupt) > 0 && h.onFallback != nil {
				h.onFallback(ev.Corrupt)
			}
		case evResult:
			stored, cached = ev.Result, ev.Cached
		case evError:
			kind, ok := robust.KindFromString(ev.ErrKind)
			if !ok {
				kind = robust.KindPanic
			}
			simErr = &robust.SimError{Kind: kind, Cycle: ev.ErrCycle, Msg: ev.ErrMsg}
		}
	}
	waitErr := cmd.Wait()
	s.observeRunTime(time.Since(t0))

	switch {
	case stored != nil:
		if cached && h.onCached != nil {
			h.onCached()
		}
		return stored, nil
	case simErr != nil:
		return nil, simErr
	case ctx.Err() != nil:
		// Death was requested (cancel or drain) and the child never got a
		// terminal event out — SIGKILL escalation beat the snapshot flush.
		return nil, &robust.SimError{Kind: robust.KindCanceled, Msg: "worker terminated by cancellation", Err: ctx.Err()}
	default:
		// The child vanished mid-protocol: SIGKILL, OOM kill, or a runtime
		// fault. Only this attempt dies; the supervisor retries from the
		// last periodic checkpoint.
		s.crashes.Add(1)
		return nil, &robust.SimError{Kind: robust.KindCrash,
			Msg: fmt.Sprintf("worker process died without a result: %v", waitErr)}
	}
}
