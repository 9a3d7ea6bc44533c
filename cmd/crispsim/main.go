// Command crispsim runs one simulation: a rendering workload and/or a
// compute workload under a chosen GPU partitioning policy, printing
// per-task statistics and stall attribution (per-stream and per-kernel on
// request), and with -trace/-metrics a Perfetto-loadable trace and an
// interval metrics CSV.
//
// Examples:
//
//	crispsim -scene SPL                       # graphics only, Orin
//	crispsim -scene SPH -compute VIO -policy EVEN
//	crispsim -compute NN -gpu RTX3070
//	crispsim -scene PT -compute HOLO -policy TAP -gpu RTX3070 -w 640 -h 360
//	crispsim -scene PT -compute VIO -policy WarpedSlicer -trace out.json -metrics out.csv
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"crisp"
	"crisp/internal/stats"
	"crisp/internal/trace"
)

func main() {
	log.SetFlags(0)
	sceneName := flag.String("scene", "", "rendering workload: SPL, SPH, PT, IT, PL, MT (empty = none)")
	computeName := flag.String("compute", "", "compute workload: VIO, HOLO, NN, UPSCALE, ATW (empty = none)")
	scenarioName := flag.String("scenario", "", "N-tenant scenario preset: "+strings.Join(crisp.MixPresetNames(), ", ")+" (mutually exclusive with -scene/-compute)")
	policy := flag.String("policy", "serial", "partition policy: serial, MPS, MiG, EVEN, WarpedSlicer, TAP, Priority")
	gpuName := flag.String("gpu", "JetsonOrin", "GPU config: JetsonOrin or RTX3070")
	gpuFile := flag.String("config", "", "JSON GPU configuration file (overrides -gpu; artifact-style customization)")
	w := flag.Int("w", 0, "render width (default 2K-class 320)")
	h := flag.Int("h", 0, "render height (default 2K-class 180)")
	lod := flag.Bool("lod", true, "enable mipmap LoD")
	perStream := flag.Bool("streams", false, "print per-stream statistics")
	perKernel := flag.Bool("kernels", false, "print per-kernel launch timing")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable)")
	metricsOut := flag.String("metrics", "", "write an interval metrics CSV time series")
	metricsN := flag.Int64("metrics-interval", 2048, "interval metrics sampling period in cycles")
	watchdog := flag.Int64("watchdog", 0, "forward-progress watchdog window in cycles (0 = default, negative = off)")
	budget := flag.Int64("budget", 0, "hard cycle budget (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock timeout; cancels the simulation cleanly (0 = none)")
	dumpOut := flag.String("dump", "", "write the crash-dump JSON here when the run fails")
	ckptDir := flag.String("checkpoint-dir", "", "periodically checkpoint simulator state into this directory (plus a final snapshot on failure)")
	ckptEvery := flag.Int64("checkpoint-every", 0, "checkpoint cadence in cycles (0 = default 100000)")
	ckptRetain := flag.Int("checkpoint-retain", 0, "periodic checkpoints kept (0 = default 3; the final snapshot is exempt)")
	resume := flag.String("resume", "", "resume from a snapshot file or checkpoint directory (overrides -scene/-compute/-policy/-gpu)")
	stateDigest := flag.Bool("state-digest", false, "print the determinism auditor's architectural-state digest stream")
	digestEvery := flag.Int64("digest-every", 100_000, "digest sampling period in cycles for -state-digest")
	noSkip := flag.Bool("no-skip", false, "disable event-driven core sleeping (cycle-by-cycle oracle; results identical either way)")
	flag.Parse()

	if *sceneName == "" && *computeName == "" && *scenarioName == "" && *resume == "" {
		fmt.Fprintln(os.Stderr, "need -scene and/or -compute (or -scenario, or -resume)")
		flag.Usage()
		os.Exit(2)
	}
	if *scenarioName != "" && (*sceneName != "" || *computeName != "") {
		fmt.Fprintln(os.Stderr, "-scenario names its own workloads; drop -scene/-compute")
		flag.Usage()
		os.Exit(2)
	}

	var cfg crisp.GPUConfig
	var err error
	if *gpuFile != "" {
		cfg, err = crisp.GPUFromFile(*gpuFile)
	} else {
		cfg, err = crisp.GPUByName(*gpuName)
	}
	if err != nil {
		log.Fatal(err)
	}
	opts := crisp.DefaultRenderOptions()
	if *w > 0 {
		opts.W = *w
	}
	if *h > 0 {
		opts.H = *h
	}
	opts.LoD = *lod

	var runOpts []crisp.RunOption
	var rec *crisp.TraceRecorder
	if *traceOut != "" {
		rec = crisp.NewTraceRecorder()
		runOpts = append(runOpts, crisp.WithTracer(rec))
	}
	if *traceOut != "" || *metricsOut != "" {
		runOpts = append(runOpts, crisp.WithMetrics(*metricsN))
	}

	if *watchdog != 0 {
		runOpts = append(runOpts, crisp.WithWatchdog(*watchdog))
	}
	if *budget > 0 {
		runOpts = append(runOpts, crisp.WithCycleBudget(*budget))
	}
	if *ckptDir != "" {
		runOpts = append(runOpts, crisp.WithCheckpointDir(*ckptDir))
		if *ckptEvery > 0 {
			runOpts = append(runOpts, crisp.WithCheckpointEvery(*ckptEvery))
		}
		if *ckptRetain > 0 {
			runOpts = append(runOpts, crisp.WithCheckpointRetain(*ckptRetain))
		}
	}
	if *stateDigest {
		runOpts = append(runOpts, crisp.WithStateDigest(*digestEvery))
	}
	if *noSkip {
		runOpts = append(runOpts, crisp.WithNoSkip())
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Ctrl-C / SIGTERM cancel the run context instead of killing the
	// process: the simulation stops at a cycle boundary and, when
	// -checkpoint-dir is set, flushes final.crispsnap so the run can be
	// continued with -resume. A second signal kills the process.
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// One description, one call: the flags' job, or — under -resume — the
	// job the snapshot describes (workload, policy and GPU flags are then
	// ignored) continued from the snapshot's state.
	var spec crisp.Spec
	var restore *crisp.Snapshot
	switch {
	case *resume != "":
		if restore, err = crisp.LoadSnapshot(*resume); err != nil {
			log.Fatal(err)
		}
		spec = restore.Spec
	case *scenarioName != "":
		mix, merr := crisp.MixPreset(*scenarioName)
		if merr != nil {
			log.Fatal(merr)
		}
		if spec, err = crisp.SpecForMix(cfg, mix, crisp.PolicyKind(*policy), opts); err != nil {
			log.Fatal(err)
		}
	default:
		spec = crisp.SpecForPair(cfg, *sceneName, *computeName, crisp.PolicyKind(*policy), opts)
	}
	res, err := crisp.RunSpec(ctx, spec, restore, runOpts...)
	if err != nil {
		if se, ok := crisp.AsSimError(err); ok {
			fmt.Fprintf(os.Stderr, "simulation failed: %s at cycle %d: %s\n", se.Kind, se.Cycle, se.Msg)
			if *dumpOut != "" && se.Dump != nil {
				if f, ferr := os.Create(*dumpOut); ferr == nil {
					if werr := se.Dump.WriteJSON(f); werr == nil {
						fmt.Fprintf(os.Stderr, "crash dump written to %s\n", *dumpOut)
					}
					f.Close()
				}
			}
			if *ckptDir != "" {
				fmt.Fprintf(os.Stderr, "final snapshot saved in %s (resume with -resume %s)\n", *ckptDir, *ckptDir)
			}
			os.Exit(1)
		}
		log.Fatal(err)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, rec, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace       : %s (%d events)\n", *traceOut, len(rec.Events()))
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics     : %s\n", *metricsOut)
	}

	fmt.Printf("%s", header(spec))
	if res.Resumed {
		fmt.Printf("resumed from: cycle %d\n", res.ResumedFrom)
	}
	fmt.Printf("cycles      : %d\n", res.Cycles)
	fmt.Printf("frame time  : %.4f ms\n", res.FrameTimeMS)
	if res.CheckpointSaves > 0 {
		fmt.Printf("checkpoints : %d saved in %v\n", res.CheckpointSaves, res.CheckpointSaveTime)
	}
	// How the host got there goes to stderr: these counts differ between
	// the default run and -no-skip (and restart at a resume), and stdout is
	// what the determinism gates diff between the two.
	fmt.Fprintf(os.Stderr, "engine      : core steps %d executed / %d skipped, CTA dispatch %d sweeps / %d skipped, %d stall slots replayed\n",
		res.StepsExecuted, res.StepsSkipped, res.DispatchSweeps, res.DispatchSkipped, res.StallReplays)
	if *stateDigest {
		for _, d := range res.Digests {
			fmt.Printf("digest %12d %016x\n", d.Cycle, d.Digest)
		}
	}

	t := stats.Table{Header: []string{"task", "warp insts", "IPC", "L1 hit", "L2 hit", "DRAM rd KB", "DRAM wr KB"}}
	tasks := make([]int, 0, len(res.PerTask))
	for task := range res.PerTask {
		tasks = append(tasks, task)
	}
	sort.Ints(tasks)
	for _, task := range tasks {
		st := res.PerTask[task]
		t.AddRow(fmt.Sprint(task), fmt.Sprint(st.WarpInsts), stats.F(st.IPC()),
			stats.Pct(st.L1HitRate()), stats.Pct(st.L2HitRate()),
			fmt.Sprint(st.DRAMReads/1024), fmt.Sprint(st.DRAMWrites/1024))
	}
	fmt.Println(t.String())
	printStalls(res, tasks)

	// Scenario runs carry per-tenant QoS accounting: deadlines, tardiness,
	// turnaround.
	if res.QoS != nil {
		fmt.Println(res.QoS.String())
	}

	// Print classes in sorted order: map iteration order would make the
	// output differ run to run, which the CI determinism gate diffs.
	fmt.Printf("L2 composition (%d valid lines):", res.L2Lines)
	classes := make([]int, 0, len(res.L2ByClass))
	for class := range res.L2ByClass {
		classes = append(classes, int(class))
	}
	sort.Ints(classes)
	for _, class := range classes {
		fmt.Printf(" %v=%d", trace.MemClass(class), res.L2ByClass[trace.MemClass(class)])
	}
	fmt.Println()

	if *perKernel {
		kt := stats.Table{Header: []string{"kernel", "stream", "task", "launched", "done", "cycles", "CTAs"}}
		for _, k := range res.Kernels {
			kt.AddRow(k.Name, fmt.Sprint(k.Stream), fmt.Sprint(k.Task),
				fmt.Sprint(k.Launched), fmt.Sprint(k.Done), fmt.Sprint(k.Done-k.Launched), fmt.Sprint(k.CTAs))
		}
		fmt.Println(kt.String())
	}

	if *perStream {
		st := stats.Table{Header: []string{"stream", "label", "kernels", "CTAs", "warp insts", "cycles"}}
		for _, s := range res.PerStream {
			st.AddRow(fmt.Sprint(s.Stream), s.Label, fmt.Sprint(s.KernelsLaunched),
				fmt.Sprint(s.CTAsLaunched), fmt.Sprint(s.WarpInsts), fmt.Sprint(s.Cycles))
		}
		fmt.Println(st.String())
	}
}

// printStalls renders the per-task stall-attribution table — for every
// task, each cause's share of the task's scheduler slots — and the
// whole-GPU slot count.
func printStalls(res *crisp.Result, tasks []int) {
	header := []string{"task", "label", "issue slots", "issued"}
	for _, c := range crisp.StallCauses() {
		header = append(header, c.String())
	}
	t := stats.Table{Header: header}
	for _, task := range tasks {
		st := res.PerTask[task]
		slots := st.WarpInsts + st.StallTotal()
		row := []string{fmt.Sprint(task), st.Label, fmt.Sprint(slots)}
		if slots == 0 {
			row = append(row, "-")
			for range crisp.StallCauses() {
				row = append(row, "-")
			}
		} else {
			row = append(row, stats.Pct(float64(st.WarpInsts)/float64(slots)))
			for _, c := range crisp.StallCauses() {
				row = append(row, stats.Pct(st.StallFraction(c)))
			}
		}
		t.AddRow(row...)
	}
	fmt.Println(t.String())
	if res.SchedSlots > 0 {
		fmt.Printf("scheduler slots: %d total, %d empty (%.1f%%)\n\n",
			res.SchedSlots, res.EmptySlots, 100*float64(res.EmptySlots)/float64(res.SchedSlots))
	}
}

// writeTrace dumps the recorded events plus the interval series as a
// Chrome trace-event JSON file, labeling tracks from per-stream stats.
func writeTrace(path string, rec *crisp.TraceRecorder, res *crisp.Result) error {
	labels := make(map[int]string, len(res.PerStream))
	for _, s := range res.PerStream {
		labels[s.Stream] = s.Label
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := crisp.WriteChromeTrace(f, rec.Events(), res.Metrics,
		func(stream int) string { return labels[stream] }); err != nil {
		return err
	}
	return f.Close()
}

// writeMetrics dumps the interval series as CSV.
func writeMetrics(path string, res *crisp.Result) error {
	if res.Metrics == nil {
		return fmt.Errorf("no interval metrics were collected")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Metrics.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

func header(spec crisp.Spec) string {
	pair := strings.Trim(spec.Scene+"+"+spec.Compute, "+")
	if len(spec.Mix) > 0 {
		var m crisp.MixSpec
		json.Unmarshal(spec.Mix, &m) // the run that just finished decoded the same bytes
		pair = "scenario " + m.Name
	}
	policy := spec.Policy
	if policy == "" {
		policy = "serial"
	}
	return fmt.Sprintf("== %s on %s under %s ==\n", pair, spec.GPU.Name, policy)
}
