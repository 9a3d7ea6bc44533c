// Command crispbench regenerates the paper's tables and figures as text
// tables — the benchmark harness of the reproduction. Each experiment
// prints the rows/series the corresponding paper table or figure reports,
// followed by the headline metrics its claim rests on. Stdout holds nothing
// that depends on the host: each experiment's duration goes to stderr, and
// -exp all prints exactly internal/experiments/testdata/figures.golden.
//
// The harness degrades gracefully: every run is guarded against panics
// and an optional per-run timeout, failed runs are reported in the final
// summary table while the rest of the sweep completes, and the exit code
// is non-zero only when every run failed (or any run failed under
// -strict).
//
// Usage:
//
//	crispbench [-exp all|table2|fig3|fig6|fig7|fig9|fig10|fig11|fig12|fig13|fig14|fig15] [-scale default|quick]
//	crispbench -sweep cfg1.json,cfg2.json [-scene SPL] [-compute VIO] [-policy EVEN]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	crisp "crisp"
	"crisp/internal/experiments"
	"crisp/internal/robust"
	"crisp/internal/stats"
)

// runOutcome is one guarded run's row in the final summary.
type runOutcome struct {
	name string
	dur  time.Duration
	err  error
	// Headline results (sweep mode; experiments print their own tables).
	cycles      int64
	frameTimeMS float64
	statsDigest string
	// Snapshot accounting (sweep mode with -checkpoint-dir / -resume).
	ckptSaves int
	ckptSave  time.Duration
	snapLoad  time.Duration
	resumedAt int64
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table2, fig3, fig3sweep, fig6, fig7, fig9, fig10, fig11, fig12, fig13, fig14, fig15, upscale, qos)")
	scaleName := flag.String("scale", "default", "resolution scale: default (320x180 2K-class) or quick (128x72)")
	csvDir := flag.String("csv", "", "also write each experiment's table as <dir>/<exp>.csv (artifact-style output)")
	strict := flag.Bool("strict", false, "exit non-zero if any run fails (default: only if all fail)")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock timeout (0 = none)")
	sweep := flag.String("sweep", "", "comma-separated GPU config JSON files: run scene+compute under -policy on each instead of the experiment suite")
	sceneName := flag.String("scene", "", "sweep mode: rendering workload (empty = compute only)")
	computeName := flag.String("compute", "VIO", "sweep mode: compute workload (empty = graphics only)")
	policyName := flag.String("policy", "EVEN", "sweep mode: partitioning policy")
	dumpDir := flag.String("dumps", "", "write crash-dump JSON for failed runs into this directory")
	ckptDir := flag.String("checkpoint-dir", "", "sweep mode: checkpoint each run into <dir>/<config-name>/ (plus a final snapshot on failure)")
	ckptEvery := flag.Int64("checkpoint-every", 0, "sweep mode: checkpoint cadence in cycles (0 = default 100000)")
	resume := flag.Bool("resume", false, "sweep mode: resume each run from its checkpoint subdirectory when a snapshot exists")
	budget := flag.Int64("budget", 0, "sweep mode: per-run cycle budget; exceeding it fails the run, leaving a resumable snapshot (0 = unlimited)")
	jsonOut := flag.String("json", "", "write the run summary (per-run cycles, stats digest, failures, snapshot timings) as JSON to this file (\"-\" = stdout)")
	noSkip := flag.Bool("no-skip", false, "disable event-driven core sleeping (cycle-by-cycle oracle; results identical either way)")
	flag.Parse()
	experiments.NoSkip = *noSkip

	for _, dir := range []string{*csvDir, *dumpDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	var outcomes []runOutcome
	if *sweep != "" {
		outcomes = runSweep(sweepConfig{
			paths: *sweep, scene: *sceneName, compute: *computeName, policy: *policyName,
			timeout: *runTimeout, dumpDir: *dumpDir,
			ckptDir: *ckptDir, ckptEvery: *ckptEvery, resume: *resume, budget: *budget,
			noSkip: *noSkip,
		})
		printSummary(outcomes)
	} else {
		outcomes = runExperiments(*exp, *scaleName, *csvDir, *dumpDir, *runTimeout)
		if outcomes == nil {
			fmt.Fprintf(os.Stderr, "no experiment matches %q\n", *exp)
			os.Exit(2)
		}
	}

	failed := 0
	for _, o := range outcomes {
		if o.err != nil {
			failed++
		}
	}
	if *jsonOut != "" {
		if err := writeJSONSummary(*jsonOut, outcomes); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	switch {
	case failed == len(outcomes):
		os.Exit(1)
	case failed > 0 && *strict:
		os.Exit(1)
	}
}

// guard runs fn with panic recovery and an optional wall-clock timeout.
// On timeout the runaway goroutine is abandoned (the process-level
// watchdog inside the simulator itself is the cycle-domain guard; this
// one bounds host time).
func guard(name string, timeout time.Duration, fn func() error) (err error) {
	done := make(chan error, 1)
	go func() {
		var ferr error
		defer func() {
			robust.RecoverAsError(&ferr, name)
			done <- ferr
		}()
		ferr = fn()
	}()
	if timeout <= 0 {
		return <-done
	}
	select {
	case err = <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("%s: exceeded run timeout %v (abandoned)", name, timeout)
	}
}

// runExperiments prints the selected suite experiments with
// experiments.WriteFigures, each guarded, and each one's duration on
// stderr. Returns nil when no experiment name matched.
func runExperiments(exp, scaleName, csvDir, dumpDir string, timeout time.Duration) []runOutcome {
	sc := experiments.DefaultScale
	if scaleName == "quick" {
		sc = experiments.QuickScale
	}
	selected := strings.Split(exp, ",")
	var figs []experiments.Figure
	for _, f := range experiments.Figures {
		for _, s := range selected {
			if s == "all" || s == f.Name {
				figs = append(figs, f)
				break
			}
		}
	}
	if len(figs) == 0 {
		return nil
	}

	var outcomes []runOutcome
	experiments.WriteFigures(os.Stdout, figs, func(f experiments.Figure) error {
		t0 := time.Now()
		err := guard(f.Name, timeout, func() error {
			table, err := f.Print(os.Stdout, sc)
			if err != nil {
				return err
			}
			if csvDir != "" && table != nil {
				path := fmt.Sprintf("%s/%s.csv", csvDir, f.Name)
				if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", path)
			}
			return nil
		})
		dur := time.Since(t0).Round(time.Millisecond)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED after %v: %v\n", f.Name, dur, err)
			writeDump(dumpDir, f.Name, err)
		} else {
			fmt.Fprintf(os.Stderr, "(%s in %v)\n", f.Name, dur)
		}
		outcomes = append(outcomes, runOutcome{name: f.Name, dur: dur, err: err})
		return err
	})
	return outcomes
}

// sweepConfig bundles sweep-mode settings.
type sweepConfig struct {
	paths, scene, compute, policy string
	timeout                       time.Duration
	dumpDir                       string
	ckptDir                       string
	ckptEvery                     int64
	resume                        bool
	budget                        int64
	noSkip                        bool
}

// runSweep runs one scene+compute pairing across a list of GPU config
// files, guarding each run with true context cancellation. With
// -checkpoint-dir each run checkpoints into its own subdirectory; with
// -resume a run that left a snapshot there (e.g. killed by -budget on a
// previous invocation) picks up where it stopped instead of starting over.
func runSweep(sc sweepConfig) []runOutcome {
	var outcomes []runOutcome
	for _, path := range strings.Split(sc.paths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		out := runOutcome{name: name}
		t0 := time.Now()
		out.err = guard(name, sc.timeout, func() error {
			ctx := context.Background()
			if sc.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, sc.timeout)
				defer cancel()
			}
			var runOpts []crisp.RunOption
			if sc.budget > 0 {
				runOpts = append(runOpts, crisp.WithCycleBudget(sc.budget))
			}
			if sc.noSkip {
				runOpts = append(runOpts, crisp.WithNoSkip())
			}
			sub := ""
			if sc.ckptDir != "" {
				sub = filepath.Join(sc.ckptDir, name)
				runOpts = append(runOpts, crisp.WithCheckpointDir(sub))
				if sc.ckptEvery > 0 {
					runOpts = append(runOpts, crisp.WithCheckpointEvery(sc.ckptEvery))
				}
			}

			// The config file's job from cycle 0, or — under -resume, when the
			// run's subdirectory holds a snapshot — the snapshot's job from
			// the snapshot's state.
			var spec crisp.Spec
			var restore *crisp.Snapshot
			if sc.resume && sub != "" {
				tLoad := time.Now()
				env, lerr := crisp.LoadSnapshot(sub)
				if lerr == nil {
					out.snapLoad = time.Since(tLoad)
					spec, restore = env.Spec, env
				} else {
					fmt.Fprintf(os.Stderr, "%s: no resumable snapshot (%v); starting fresh\n", name, lerr)
				}
			}
			if restore == nil {
				cfg, err := crisp.GPUFromFile(path)
				if err != nil {
					return err
				}
				spec = crisp.SpecForPair(cfg, sc.scene, sc.compute, crisp.PolicyKind(sc.policy), crisp.DefaultRenderOptions())
			}
			res, err := crisp.RunSpec(ctx, spec, restore, runOpts...)
			if err != nil {
				return err
			}
			out.cycles, out.frameTimeMS = res.Cycles, res.FrameTimeMS
			if d, derr := res.StatsDigest(); derr == nil {
				out.statsDigest = fmt.Sprintf("%016x", d)
			}
			out.ckptSaves, out.ckptSave = res.CheckpointSaves, res.CheckpointSaveTime
			if res.Resumed {
				out.resumedAt = res.ResumedFrom
				// Stderr, so a resumed sweep's stdout stays diffable against
				// an uninterrupted one (the CI interrupt-resume gate).
				fmt.Fprintf(os.Stderr, "%s: resumed from cycle %d\n", name, res.ResumedFrom)
			}
			fmt.Printf("%-24s %12d cycles  %8.3f ms\n", name, res.Cycles, res.FrameTimeMS)
			return nil
		})
		out.dur = time.Since(t0).Round(time.Millisecond)
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "%-24s FAILED after %v: %v\n", name, out.dur, out.err)
			writeDump(sc.dumpDir, name, out.err)
		}
		outcomes = append(outcomes, out)
	}
	return outcomes
}

// writeDump serializes the crash dump attached to err (if any) as JSON.
func writeDump(dir, name string, err error) {
	if dir == "" {
		return
	}
	se, ok := robust.AsSimError(err)
	if !ok || se.Dump == nil {
		return
	}
	path := filepath.Join(dir, name+".dump.json")
	f, ferr := os.Create(path)
	if ferr != nil {
		fmt.Fprintln(os.Stderr, ferr)
		return
	}
	defer f.Close()
	if werr := se.Dump.WriteJSON(f); werr != nil {
		fmt.Fprintln(os.Stderr, werr)
		return
	}
	fmt.Fprintf(os.Stderr, "crash dump written to %s\n", path)
}

// jsonRun is one outcome in the -json summary. Zero-valued fields are
// omitted, so experiment-mode runs (no cycle counts) stay compact.
type jsonRun struct {
	Name        string  `json:"name"`
	Status      string  `json:"status"` // "ok" or "failed"
	Error       string  `json:"error,omitempty"`
	ErrorKind   string  `json:"error_kind,omitempty"` // SimError taxonomy kind
	DurationMS  float64 `json:"duration_ms"`
	Cycles      int64   `json:"cycles,omitempty"`
	FrameTimeMS float64 `json:"frame_time_ms,omitempty"`
	StatsDigest string  `json:"stats_digest,omitempty"`

	CheckpointSaves  int     `json:"checkpoint_saves,omitempty"`
	CheckpointSaveMS float64 `json:"checkpoint_save_ms,omitempty"`
	SnapshotLoadMS   float64 `json:"snapshot_load_ms,omitempty"`
	ResumedAtCycle   int64   `json:"resumed_at_cycle,omitempty"`
}

// writeJSONSummary serializes the outcome list for machine consumption
// (CI gates diff stats digests across invocations; dashboards read the
// timings).
func writeJSONSummary(path string, outcomes []runOutcome) error {
	ok := 0
	runs := make([]jsonRun, 0, len(outcomes))
	for _, o := range outcomes {
		jr := jsonRun{
			Name:             o.name,
			Status:           "ok",
			DurationMS:       float64(o.dur.Microseconds()) / 1000,
			Cycles:           o.cycles,
			FrameTimeMS:      o.frameTimeMS,
			StatsDigest:      o.statsDigest,
			CheckpointSaves:  o.ckptSaves,
			CheckpointSaveMS: float64(o.ckptSave.Microseconds()) / 1000,
			SnapshotLoadMS:   float64(o.snapLoad.Microseconds()) / 1000,
			ResumedAtCycle:   o.resumedAt,
		}
		if o.err != nil {
			jr.Status = "failed"
			jr.Error = o.err.Error()
			if se, isSim := robust.AsSimError(o.err); isSim {
				jr.ErrorKind = se.Kind.String()
			}
		} else {
			ok++
		}
		runs = append(runs, jr)
	}
	b, err := json.MarshalIndent(map[string]any{
		"ok": ok, "failed": len(outcomes) - ok, "runs": runs,
	}, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSummary renders a sweep's outcome table.
func printSummary(outcomes []runOutcome) {
	failed := 0
	t := &stats.Table{Header: []string{"run", "status", "time", "snapshot", "detail"}}
	for _, o := range outcomes {
		status, detail := "ok", ""
		if o.err != nil {
			failed++
			status = "FAILED"
			detail = o.err.Error()
			var se *robust.SimError
			if errors.As(o.err, &se) {
				detail = fmt.Sprintf("%s @ cycle %d: %s", se.Kind, se.Cycle, se.Msg)
			}
			if len(detail) > 72 {
				detail = detail[:69] + "..."
			}
		}
		snap := ""
		if o.ckptSaves > 0 {
			snap = fmt.Sprintf("%d saves/%v", o.ckptSaves, o.ckptSave.Round(time.Microsecond))
		}
		if o.snapLoad > 0 {
			if snap != "" {
				snap += " "
			}
			snap += fmt.Sprintf("load %v@%d", o.snapLoad.Round(time.Microsecond), o.resumedAt)
		}
		t.AddRow(o.name, status, o.dur.String(), snap, detail)
	}
	fmt.Printf("==== SUMMARY (%d/%d ok) ====\n%s", len(outcomes)-failed, len(outcomes), t)
}
