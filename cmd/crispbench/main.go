// Command crispbench regenerates the paper's tables and figures as text
// tables — the benchmark harness of the reproduction. Each experiment
// prints the rows/series the corresponding paper table or figure reports,
// followed by the headline metrics its claim rests on. Stdout holds nothing
// that depends on the host: each experiment's duration goes to stderr, and
// -exp all prints exactly internal/experiments/testdata/figures.golden.
//
// The harness degrades gracefully: every experiment is guarded against
// panics and an optional per-run timeout, failed experiments are reported
// in the final summary table while the rest complete, and the exit code
// is non-zero only when every experiment failed (or any failed under
// -strict). Config sweeps go through crispd's POST /v1/sweeps
// (docs/SERVICE.md).
//
// Usage:
//
//	crispbench [-exp all|table2|fig3|fig6|fig7|fig9|fig10|fig11|fig12|fig13|fig14|fig15] [-scale default|quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"crisp/internal/experiments"
	"crisp/internal/robust"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table2, fig3, fig3sweep, fig6, fig7, fig9, fig10, fig11, fig12, fig13, fig14, fig15, upscale, qos)")
	scaleName := flag.String("scale", "default", "resolution scale: default (320x180 2K-class) or quick (128x72)")
	csvDir := flag.String("csv", "", "also write each experiment's table as <dir>/<exp>.csv (artifact-style output)")
	strict := flag.Bool("strict", false, "exit non-zero if any run fails (default: only if all fail)")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock timeout (0 = none)")
	dumpDir := flag.String("dumps", "", "write crash-dump JSON for failed runs into this directory")
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

	ran, failed := runExperiments(*exp, *scaleName, *csvDir, *dumpDir, *runTimeout)
	switch {
	case ran == 0:
		fmt.Fprintf(os.Stderr, "no experiment matches %q\n", *exp)
		os.Exit(2)
	case failed == ran:
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
// stderr. It returns how many experiments ran and how many failed.
func runExperiments(exp, scaleName, csvDir, dumpDir string, timeout time.Duration) (ran, failed int) {
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
		return 0, 0
	}

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
			failed++
			fmt.Fprintf(os.Stderr, "%s FAILED after %v: %v\n", f.Name, dur, err)
			writeDump(dumpDir, f.Name, err)
		} else {
			fmt.Fprintf(os.Stderr, "(%s in %v)\n", f.Name, dur)
		}
		return err
	})
	return len(figs), failed
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
