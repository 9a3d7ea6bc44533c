// Command bench is CRISP's layered benchmark: five named workloads, each
// stressing different layers of the simulator, measured end to end with
// tracing off and layer by layer from outside with tracing on.
//
//	go run ./bench -seed 1                       the suite: every workload, untraced then traced
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                             one run; the last line of stdout is the result
//	go run ./bench -compare old.json new.json    judge two suite files
//
// See bench/README.md for the metric glossary and the measurement rules.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	var opt options
	var traceFlag, sets int
	var compare bool
	flag.StringVar(&opt.workload, "workload", "", "run one workload in this process (default: the suite, one child process per run)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of job order and seeded inputs")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: untraced passes, end-to-end metrics; 1: traced passes and layer drivers, per-layer metrics")
	flag.StringVar(&opt.outDir, "out", filepath.Join("bench", "results"), "directory for result, trace and scratch files")
	flag.StringVar(&opt.commit, "commit", "", "commit to stamp results with (default: the build's vcs revision)")
	flag.BoolVar(&opt.smoke, "smoke", false, "test mode: one pass of the smallest job of each list")
	flag.IntVar(&sets, "sets", 1, "suite: back-to-back sets to aggregate")
	flag.BoolVar(&compare, "compare", false, "compare two suite files: -compare old.json new.json")
	flag.Parse()
	opt.trace = traceFlag != 0

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two suite files, got %d arguments", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case opt.workload != "":
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
		}
		if err := child(opt); err != nil {
			fatal(err)
		}
	default:
		failed, err := suite(opt, sets)
		if err != nil {
			fatal(err)
		}
		if failed {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// child runs one workload in this process, writes its result files, and
// prints every metric followed by the contract's result line. A run with
// a failed operation still prints its result (correct: false) and exits 0;
// a run that cannot measure exits non-zero without one.
func child(opt options) error {
	rep, err := runWorkload(opt)
	if err != nil {
		return err
	}
	if err := rep.write(opt.outDir); err != nil {
		return err
	}
	line, err := rep.contractLine()
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	fmt.Println(string(line))
	return nil
}

// suite runs every workload untraced and then traced, each run in a
// fresh child process re-executed from this binary, `sets` times over,
// and writes the merged per-workload files and suite.json.
func suite(opt options, sets int) (failed bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var all []*suiteFile
	for set := 0; set < sets; set++ {
		sf := &suiteFile{Seed: opt.seed, Seconds: opt.seconds, Sets: 1, Workloads: map[string]*suiteWorkload{}}
		for _, wd := range workloadDefs {
			sw := &suiteWorkload{Metrics: map[string]metricValue{}}
			for _, trace := range []int{0, 1} {
				args := []string{
					"-workload", wd.name, "-seed", strconv.FormatUint(opt.seed, 10),
					"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(trace), "-out", opt.outDir, "-commit", opt.commit,
				}
				if opt.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return false, fmt.Errorf("%s -trace %d: %w", wd.name, trace, err)
				}
				mode := []string{"e2e", "layers"}[trace]
				var rep report
				if err := readJSON(filepath.Join(opt.outDir, wd.name+"."+mode+".json"), &rep); err != nil {
					return false, err
				}
				sw.merge(&rep)
				sf.Host = rep.Host
			}
			sf.Workloads[wd.name] = sw
			if err := writeJSON(filepath.Join(opt.outDir, wd.name+".json"), sw); err != nil {
				return false, err
			}
		}
		all = append(all, sf)
	}
	sf := aggregate(all)
	if err := writeJSON(filepath.Join(opt.outDir, "suite.json"), sf); err != nil {
		return false, err
	}
	fmt.Printf("\n== suite: %d set(s), seed %d, %s\n", sf.Sets, sf.Seed, filepath.Join(opt.outDir, "suite.json"))
	for _, wd := range workloadDefs {
		sw := sf.Workloads[wd.name]
		fmt.Printf("  %-24s ops %d attempted, %d failed\n", wd.name, sw.Attempted, sw.Failed)
		failed = failed || sw.Failed > 0
	}
	return failed, nil
}
