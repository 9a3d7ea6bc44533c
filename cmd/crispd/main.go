// Command crispd is the CRISP batch simulation daemon: an HTTP/JSON
// service that queues simulation jobs, executes them on a bounded worker
// pool, and serves results from a content-addressed cache so identical
// submissions never simulate twice.
//
//	crispd -addr :8080 -state-dir /var/lib/crispd
//
// Submit jobs with plain HTTP:
//
//	curl -s localhost:8080/v1/jobs -d '{"scene": "SPL", "compute": "VIO", "policy": "EVEN"}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/metrics
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops admitting
// jobs, cancels running simulations (each flushes a final snapshot through
// the checkpoint layer), and exits 0. A daemon restarted on the same
// -state-dir resumes the interrupted jobs from their snapshots and serves
// previously computed results from the persisted cache.
//
// Execution is supervised: retryable failures are retried from the job's
// newest checkpoint with backoff (-max-attempts bounds the budget; a job
// beyond it is quarantined), and -isolate runs each attempt in a child
// worker process so a hard crash kills one job, not the daemon. -chaos
// plants seeded faults (kill@cycle, checkpoint corruption) to exercise
// exactly that machinery.
//
// Sweeps (POST /v1/sweeps) shard a policy × workload × config grid across
// -fleet shards. An attempt is alive while its own process is: a child
// that exits without a result is a crash verdict, one silent for four
// -heartbeat-every periods is killed first, and the task is requeued to
// resume from the newest shipped checkpoint. A worker reads one NDJSON
// request on stdin and streams events on stdout; crispd runs as one when
// its supervisor starts it with CRISPD_WORKER=1, as it does every
// -worker-bin.
//
// See docs/SERVICE.md for the API reference and lifecycle details.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crisp/internal/robust/chaos"
	"crisp/internal/service"
)

func main() {
	// Re-exec interception: when the supervisor spawned this process as an
	// isolated worker, run the worker protocol instead of the daemon.
	if os.Getenv(service.WorkerEnv) == "1" {
		os.Exit(service.WorkerMain())
	}

	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("crispd: ")

	addr := flag.String("addr", ":8080", "HTTP listen address")
	queueDepth := flag.Int("queue", 64, "max jobs admitted but not yet running; beyond it submissions get 429")
	workers := flag.Int("workers", 2, "concurrent simulations")
	stateDir := flag.String("state-dir", "", "persist jobs, checkpoints, and the result cache here; restart resumes in-flight work (empty = memory only)")
	budget := flag.Int64("budget", 0, "default per-job cycle budget (0 = unlimited; jobs may set their own)")
	watchdog := flag.Int64("watchdog", 0, "default forward-progress watchdog window in cycles (0 = simulator default, negative = off)")
	ckptEvery := flag.Int64("checkpoint-every", 0, "checkpoint cadence in cycles for persisted jobs (0 = default 100000)")
	progressEvery := flag.Int64("progress-interval", 4096, "job progress sampling period in cycles")
	timelineBuf := flag.Int("timeline-buffer", 0, "per-job telemetry ring capacity in events (0 = default 8192)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "max wait for running jobs to checkpoint and stop on shutdown")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty = off)")
	maxAttempts := flag.Int("max-attempts", 0, "attempts per job before quarantine (0 = default 3)")
	retryBase := flag.Duration("retry-base", 0, "base retry backoff delay (0 = default 100ms)")
	retryMax := flag.Duration("retry-max", 0, "retry backoff cap (0 = default 30s)")
	retrySeed := flag.Int64("retry-seed", 0, "seed for deterministic backoff jitter")
	isolate := flag.Bool("isolate", false, "run each job attempt in a child worker process so a hard crash kills one job, not the daemon")
	workerBin := flag.String("worker-bin", "", "worker executable for -isolate: any binary that calls service.WorkerMain when CRISPD_WORKER=1, e.g. another crispd (empty = re-exec this binary)")
	chaosSpec := flag.String("chaos", "", "seeded fault injection spec, e.g. 'seed=7,kill@9000,corrupt=truncate' (testing only)")
	fleet := flag.Int("fleet", 0, "sweep-tier shard count: concurrent sweep tasks (0 = same as -workers)")
	hbEvery := flag.Duration("heartbeat-every", 0, "isolated worker heartbeat cadence; a worker silent for 4 of them is killed and retried (0 = default 2.5s)")
	maxSweeps := flag.Int("max-sweeps", 0, "max concurrently live sweeps; beyond it submissions get 429 (0 = default 16)")
	maxSweepTasks := flag.Int("max-sweep-tasks", 0, "max grid cells one sweep may expand to (0 = default 512)")
	timelineSubs := flag.Int("timeline-subs", 0, "max live SSE subscribers per timeline; beyond it requests get 503 (0 = default 256, negative = unlimited)")
	flag.Parse()

	var cspec chaos.Spec
	if *chaosSpec != "" {
		var err error
		cspec, err = chaos.ParseSpec(*chaosSpec)
		if err != nil {
			log.Fatalf("-chaos: %v", err)
		}
		log.Printf("chaos enabled: %s", cspec.String())
	}
	var workerCmd []string
	if *workerBin != "" {
		workerCmd = []string{*workerBin}
	}

	srv, err := service.New(service.Config{
		QueueDepth:       *queueDepth,
		Workers:          *workers,
		StateDir:         *stateDir,
		DefaultBudget:    *budget,
		WatchdogWindow:   *watchdog,
		CheckpointEvery:  *ckptEvery,
		ProgressInterval: *progressEvery,
		TimelineBuffer:   *timelineBuf,
		MaxAttempts:      *maxAttempts,
		RetryBase:        *retryBase,
		RetryMax:         *retryMax,
		RetrySeed:        *retrySeed,
		Isolate:          *isolate,
		WorkerCommand:    workerCmd,
		Chaos:            cspec,
		MaxTimelineSubs:  *timelineSubs,
		FleetWorkers:     *fleet,
		HeartbeatEvery:   *hbEvery,
		MaxSweeps:        *maxSweeps,
		MaxSweepTasks:    *maxSweepTasks,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *stateDir != "" {
		st := srv.Snapshot()
		log.Printf("state dir %s: %d cached results, %d jobs recovered",
			*stateDir, st.CachedResults, st.QueueDepth)
	}
	srv.Start()

	// Profiling is opt-in and lives on its own listener + mux so the
	// default registration in net/http/pprof's init never reaches the
	// public API mux: without -pprof, /debug/pprof does not exist.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		var err error
		pprofSrv, err = startPprof(*pprofAddr)
		if err != nil {
			log.Fatalf("pprof listen: %v", err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// Report the bound address (with the real port when -addr is :0) on a
	// line scripts can wait for.
	log.Printf("listening on %s (queue %d, workers %d)", ln.Addr(), *queueDepth, *workers)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("received %s, draining", s)
	case err := <-serveErr:
		log.Fatalf("http server: %v", err)
	}

	// Drain protocol: stop admitting (new submissions get 503, health goes
	// unready for load balancers), checkpoint and stop running jobs, then
	// close the listeners — pprof included — and exit 0.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := drainAndShutdown(ctx, srv.Drain, pprofSrv, httpSrv); err != nil {
		log.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
	st := srv.Snapshot()
	log.Printf("drained: %d done, %d failed, %d canceled, %d results cached; bye",
		st.Done, st.Failed, st.Canceled, st.CachedResults)
}

// startPprof serves net/http/pprof on its own listener and returns the
// server so the drain path can shut it down — before this, the pprof
// listener was fire-and-forget and outlived the drain, holding the port
// (and any in-flight profile) past the point the daemon claimed to be
// stopped.
func startPprof(addr string) (*http.Server, error) {
	pln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	pmux := http.NewServeMux()
	pmux.HandleFunc("/debug/pprof/", pprof.Index)
	pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof on %s", pln.Addr())
	psrv := &http.Server{Addr: pln.Addr().String(), Handler: pmux}
	go func() {
		if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("pprof server: %v", err)
		}
	}()
	return psrv, nil
}

// drainAndShutdown runs the shutdown sequence in its required order:
// drain the service first — the pprof listener stays up throughout, so a
// drain that hangs can still be profiled — then shut down pprof, then the
// public API listener last (readyz keeps answering 503 until the very
// end, which is what load balancers key off). A failed drain still closes
// both listeners before the error propagates.
func drainAndShutdown(ctx context.Context, drain func(context.Context) error, pprofSrv, apiSrv *http.Server) error {
	drainErr := drain(ctx)
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("pprof shutdown: %v", err)
		}
	}
	if drainErr != nil {
		if apiSrv != nil {
			apiSrv.Close()
		}
		return drainErr
	}
	if apiSrv != nil {
		if err := apiSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("http shutdown: %v", err)
		}
	}
	return nil
}
