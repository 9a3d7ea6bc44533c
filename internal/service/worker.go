package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crisp/internal/robust"
)

// Process-isolation mode: with Config.Isolate each execution attempt runs
// in a child worker process, so a hard crash — SIGKILL, OOM kill, a
// runtime fault deep in the simulator — kills one attempt instead of the
// daemon. Parent and child speak the stdio wire protocol defined in
// protocol.go; runDirect (fleet.go) does the actual simulating on both
// sides of the pipe.
//
// A child that exits without a terminal event was crashed (the supervisor
// classifies it KindCrash and retries from the task's last checkpoint); a
// child whose death was requested (cancel, drain) terminates via SIGTERM,
// flushes a final snapshot, and reports a "canceled" error event.

// WorkerEnv marks a process as a crispd worker: when the variable is "1",
// cmd/crispd (and the service test binary) run WorkerMain instead of the
// daemon. The supervisor sets it for every worker it starts, its own
// binary re-exec'ed or a -worker-bin, so no separate worker binary needs
// to be installed and a worker needs no flag.
const WorkerEnv = "CRISPD_WORKER"

// WorkerMain is the worker entry point: it reads one workerRequest from
// stdin, runs the attempt, and streams workerEvents to stdout. It is
// called by cmd/crispd (or a test binary) when WorkerEnv is set. Returns
// the process exit code: 0 when the protocol completed (including
// reported simulation failures — the supervisor classifies those from the
// error event), nonzero only when the protocol itself broke.
func WorkerMain() int {
	var req workerRequest
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		fmt.Fprintf(os.Stderr, "crispd-worker: reading request: %v\n", err)
		return 2
	}
	enc := newEventWriter(os.Stdout)
	if req.Protocol != wireProtocol {
		enc.error(&robust.SimError{Kind: robust.KindValidation, Msg: fmt.Sprintf(
			"worker speaks wire protocol %d, the request carries %d: run crispd and its -worker-bin from one build", wireProtocol, req.Protocol)})
		return 0
	}

	r, err := req.Spec.resolve()
	if err != nil {
		enc.error(&robust.SimError{Kind: robust.KindValidation, Msg: err.Error()})
		return 0
	}

	// SIGTERM is the supervisor's graceful stop (cancel, drain): cancel
	// the run so it stops at a cycle boundary and flushes a final
	// snapshot through the checkpoint layer.
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigc
		cancel()
	}()
	defer signal.Stop(sigc)

	// Wall-clock heartbeats: the liveness signal the supervisor's silence
	// timer watches between samples. Stops with the run.
	if req.HeartbeatEvery > 0 {
		hbStop := make(chan struct{})
		defer close(hbStop)
		go func() {
			tick := time.NewTicker(time.Duration(req.HeartbeatEvery))
			defer tick.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-tick.C:
					enc.heartbeat()
				}
			}
		}()
	}

	stored, rerr := runDirect(ctx, req, r, nil, attemptHooks{
		onSample: enc.sample,
		onResume: func(cycle int64, aside []string) {
			enc.event(workerEvent{Type: evResume, Cycle: cycle, Corrupt: aside})
		},
		onKill: func(cycle int64) {
			// Chaos hard-kill: die without flushing anything, exactly like
			// an OOM kill. The supervisor must fall back to the last
			// periodic checkpoint.
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		},
	})
	if rerr != nil {
		if se, ok := robust.AsSimError(rerr); ok {
			enc.error(se)
		} else {
			enc.error(&robust.SimError{Kind: robust.KindPanic, Msg: rerr.Error()})
		}
		return 0
	}
	enc.event(workerEvent{Type: evResult, Result: stored})
	return 0
}

// workerKillDelay bounds how long a SIGTERMed worker may take to flush its
// final snapshot before the supervisor escalates to SIGKILL.
const workerKillDelay = 10 * time.Second

// silentHeartbeats is how many heartbeat periods a worker may go without
// a word before the supervisor presumes it hung and kills it.
const silentHeartbeats = 4
