package crisp

// Benchmark harness: one benchmark per paper table/figure, plus ablation
// benchmarks for the design choices DESIGN.md calls out. Each benchmark
// regenerates its experiment (results are memoized inside the experiments
// package, so additional b.N iterations are cheap) and reports the
// headline quantities as custom metrics. Run with:
//
//	go test -bench=. -benchmem
//
// Tables are printed under -v via b.Logf.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"crisp/internal/compute"
	"crisp/internal/core"
	"crisp/internal/experiments"
	"crisp/internal/geom"
	"crisp/internal/obs"
	"crisp/internal/render"
	"crisp/internal/scene"
)

var benchScale = experiments.DefaultScale

func BenchmarkTable2_Configs(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table2().String()
	}
	b.Logf("\n%s", out)
}

func BenchmarkFig3_VertexInvocations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.R, "pearson_r")
		b.ReportMetric(100*r.MeanRelErr, "mean_overcount_%")
		if i == 0 {
			b.Logf("\n%s", r.Table)
		}
	}
}

func BenchmarkFig6_FrameTimeCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.R, "pearson_r")
		b.ReportMetric(100*r.SimHighFraction, "sim_reads_high_%")
		b.ReportMetric(r.ITScaling, "IT_4K/2K")
		b.ReportMetric(r.MaxScaling, "max_4K/2K")
		if i == 0 {
			b.Logf("\n%s", r.Table)
		}
	}
}

func BenchmarkFig7_MipMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Level0Distinct), "level0_texels")
		b.ReportMetric(float64(r.Level1Distinct), "level1_texels")
	}
}

func BenchmarkFig9_LodTextureAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MAPEOn, "mape_lod_on_%")
		b.ReportMetric(100*r.MAPEOff, "mape_lod_off_%")
		b.ReportMetric(r.Improvement, "mape_reduction_x")
		b.ReportMetric(r.MaxInflation, "max_inflation_x")
	}
}

func BenchmarkFig10_TexLinesPerCTA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Mode), "mode_lines")
		b.ReportMetric(r.Mean, "mean_lines")
		if i == 0 {
			b.Logf("drawcall %s:\n%s", r.Drawcall, r.Histogram)
		}
	}
}

func BenchmarkFig11_L2Composition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.TexFraction["PT"], "PT_tex_%")
		b.ReportMetric(100*r.TexFraction["SPL"], "SPL_tex_%")
		b.ReportMetric(100*r.L2Hit["PT"], "PT_L2hit_%")
		b.ReportMetric(100*r.L2Hit["SPL"], "SPL_L2hit_%")
		if i == 0 {
			b.Logf("\n%s", r.Table)
		}
	}
}

func BenchmarkFig12_WarpedSlicer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeoMean[core.PolicyEven], "EVEN_vs_MPS")
		b.ReportMetric(r.GeoMean[core.PolicyWarpedSlicer], "Dynamic_vs_MPS")
		b.ReportMetric(r.BestNNSpeedup, "best_NN_speedup")
		if i == 0 {
			b.Logf("\n%s", r.Table)
		}
	}
}

func BenchmarkFig13_OccupancyTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.PeakWarps), "peak_warps")
		b.ReportMetric(float64(r.MinBusyWarps), "min_busy_warps")
		b.ReportMetric(float64(r.Samples), "samples")
	}
}

func BenchmarkFig14_TAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GeoMean[core.PolicyMiG], "MiG_vs_MPS")
		b.ReportMetric(r.GeoMean[core.PolicyTAP], "TAP_vs_MPS")
		if i == 0 {
			b.Logf("\n%s", r.Table)
		}
	}
}

func BenchmarkFig15_TAPComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RenderFraction, "render_L2_share_%")
		if i == 0 {
			b.Logf("\n%s", r.Table)
		}
	}
}

// BenchmarkCaseStudy_AsyncUpscale runs the DLSS-analog async-compute case
// study the paper's background motivates: tensor-core upscaling co-runs
// with FP/TEX-heavy rendering, so intra-SM sharing beats dedicating SMs.
func BenchmarkCaseStudy_AsyncUpscale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CaseStudyAsyncUpscale(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Norm[core.PolicyEven], "EVEN_vs_MPS")
		b.ReportMetric(r.Norm[core.PolicyPriority], "Priority_vs_MPS")
		if i == 0 {
			b.Logf("\n%s", r.Table)
		}
	}
}

// BenchmarkCaseStudy_QoS measures frame-ready time (the MTP-latency proxy
// of the paper's future-work QoS direction) under MPS/EVEN/Priority.
func BenchmarkCaseStudy_QoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.CaseStudyQoS(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.FrameDone[core.PolicyEven]), "frame_ready_EVEN")
		b.ReportMetric(float64(r.FrameDone[core.PolicyPriority]), "frame_ready_Priority")
		if i == 0 {
			b.Logf("\n%s", r.Table)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §4) ---------------------------------

// BenchmarkAblation_VertexBatchSize sweeps the vertex batch size and
// reports the shaded-vertex inflation versus the unique count; the paper
// fixes 96 after the same sweep.
func BenchmarkAblation_VertexBatchSize(b *testing.B) {
	f, err := scene.ByName("SPL")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, size := range []int{32, 96, 256} {
			shaded, unique := 0, 0
			for _, d := range f.Draws {
				batches := geom.BatchIndices(d.Mesh.Idx, size)
				shaded += geom.ShadedVertexCount(batches)
				seen := map[uint32]bool{}
				for _, ix := range d.Mesh.Idx {
					seen[ix] = true
				}
				unique += len(seen)
			}
			b.ReportMetric(float64(shaded)/float64(unique), "shade_inflation_b"+itoa(size))
		}
	}
}

// BenchmarkAblation_EarlyZ renders with the early depth test on and off
// and reports the fragment (overdraw) inflation.
func BenchmarkAblation_EarlyZ(b *testing.B) {
	f, err := scene.ByName("SPL")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		opts := render.DefaultOptions()
		opts.W, opts.H = benchScale.W2K, benchScale.H2K
		on, err := render.RenderFrame(f, opts)
		if err != nil {
			b.Fatal(err)
		}
		opts.DisableEarlyZ = true
		off, err := render.RenderFrame(f, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(off.Raster.Fragments)/float64(on.Raster.Fragments), "overdraw_x")
	}
}

// BenchmarkAblation_GraphicsWindow sweeps the in-flight batch window to
// show the pipelining headroom of the ITR binning buffer.
func BenchmarkAblation_GraphicsWindow(b *testing.B) {
	gfx, err := experiments.Frame("SPL", benchScale.W2K, benchScale.H2K, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, window := range []int{1, 4, 32} {
			job := core.Job{GPU: JetsonOrin(), Graphics: gfx, Policy: core.PolicySerial, GraphicsWindow: window}
			res, err := job.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Cycles), "cycles_w"+itoa(window))
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblation_StrictQuads compares the paper's approximated-quad
// warp packing (LoD pre-calculated at rasterization) against strict 2×2
// quads with runtime derivatives: the texture-access error of the
// approximation and its traffic delta.
func BenchmarkAblation_StrictQuads(b *testing.B) {
	f, err := scene.ByName("SPL")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		run := func(strict bool) (sim, ref float64) {
			opts := render.DefaultOptions()
			opts.W, opts.H = benchScale.W2K, benchScale.H2K
			opts.CollectRefTex = true
			opts.StrictQuads = strict
			res, err := render.RenderFrame(f, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range res.Metrics {
				sim += float64(m.SimTexAccesses)
				ref += float64(m.RefTexAccesses)
			}
			return
		}
		aSim, aRef := run(false)
		sSim, sRef := run(true)
		b.ReportMetric(100*abs(aSim-aRef)/aRef, "approx_err_%")
		b.ReportMetric(100*abs(sSim-sRef)/sRef, "strict_err_%")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkAblation_WarpScheduler compares greedy-then-oldest against
// loose round-robin warp scheduling on a full concurrent pair.
func BenchmarkAblation_WarpScheduler(b *testing.B) {
	gfx, err := experiments.Frame("SPL", benchScale.W2K, benchScale.H2K, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		run := func(lrr bool) int64 {
			comp, err := compute.ByName("VIO", core.ComputeStreamBase)
			if err != nil {
				b.Fatal(err)
			}
			job := core.Job{GPU: JetsonOrin(), Graphics: gfx, Compute: comp, Policy: core.PolicyEven, LRRScheduler: lrr}
			res, err := job.Run()
			if err != nil {
				b.Fatal(err)
			}
			return res.Cycles
		}
		b.ReportMetric(float64(run(false)), "cycles_GTO")
		b.ReportMetric(float64(run(true)), "cycles_LRR")
	}
}

// BenchmarkSimulatorSpeed reports the simulator's own throughput in
// simulated warp instructions per host second and simulated cycles per
// host second (the engineering metric of "Need for Speed": trustworthy
// simulators must also be fast). The timing model runs on one goroutine,
// so -cpu moves only the collector; rows are recorded at -cpu 1:
//
//	go test -run '^$' -bench=BenchmarkSimulatorSpeed -cpu 1 -benchtime 3x .
//
// Setting CRISP_BENCH_JSON=<path> upserts each run's numbers into a JSON
// snapshot (see docs/PERFORMANCE.md), one array entry per GOMAXPROCS.
func BenchmarkSimulatorSpeed(b *testing.B) {
	gfx, err := experiments.Frame("SPH", benchScale.W2K, benchScale.H2K, true)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := compute.ByName("VIO", core.ComputeStreamBase)
	if err != nil {
		b.Fatal(err)
	}
	var insts, cycles, stepsExec, stepsSkip int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := core.Job{GPU: JetsonOrin(), Graphics: gfx, Compute: comp, Policy: core.PolicyEven}
		res, err := job.Run()
		if err != nil {
			b.Fatal(err)
		}
		insts = 0
		for _, st := range res.PerStream {
			insts += st.WarpInsts
		}
		cycles = res.Cycles
		stepsExec, stepsSkip = res.StepsExecuted, res.StepsSkipped
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	kips := float64(insts) * float64(b.N) / sec / 1000
	cps := float64(cycles) * float64(b.N) / sec
	b.ReportMetric(kips, "warp_KIPS")
	b.ReportMetric(cps, "sim_cycles/s")
	b.ReportMetric(skipRatio(stepsExec, stepsSkip), "skip_ratio")
	writeBenchSnapshot(b, benchEntry{
		Bench:      "SimulatorSpeed",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Runs:       b.N,
		SimCycles:  cycles,
		WarpInsts:  insts,
		ElapsedSec: sec,
		WarpKIPS:   kips,
		CyclesPerS: cps,
		SkipRatio:  skipRatio(stepsExec, stepsSkip),
	})
}

// skipRatio is the fraction of visited core steps covered by sleeping
// rather than executed (0 under -no-skip or when nothing ever slept).
func skipRatio(executed, skipped int64) float64 {
	if executed+skipped == 0 {
		return 0
	}
	return float64(skipped) / float64(executed+skipped)
}

// BenchmarkSimulatorSpeedMemBound measures the event-driven sleeping
// win on its best case: the paper's NN workload (convolution-as-matmul,
// memory bound), where warps spend most cycles parked on in-flight DRAM
// fills and whole cores sleep until the next fill lands. Each iteration
// runs the same job with core sleeping on and with the -no-skip oracle,
// and reports the throughput of both plus the speedup — the acceptance
// number tracked in docs/PERFORMANCE.md.
func BenchmarkSimulatorSpeedMemBound(b *testing.B) {
	comp, err := compute.ByName("NN", core.ComputeStreamBase)
	if err != nil {
		b.Fatal(err)
	}
	// RTX3070 narrowed to the latency-bound regime sleeping targets:
	// shared memory sized so a single tiled-matmul CTA fills each SM (no
	// co-resident CTA to hide latency behind), a small MSHR file, and 8x
	// DRAM row latency. Every cooperative-load + barrier round then
	// parks the whole core for a full fill wave, and the simulated-time
	// cost concentrates exactly where cycle-by-cycle stepping wastes
	// host time on cores that provably cannot issue.
	cfg := RTX3070()
	cfg.SharedMemPerSM = 6 << 10
	cfg.L1MSHRs = 4
	cfg.L2MSHRs = 16
	cfg.DRAMLatency *= 8
	run := func(noSkip bool) (cycles, stepsExec, stepsSkip int64, sec float64) {
		t0 := time.Now()
		job := core.Job{GPU: cfg, Compute: comp, Policy: core.PolicyMPS, NoSkip: noSkip}
		res, err := job.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles, res.StepsExecuted, res.StepsSkipped, time.Since(t0).Seconds()
	}
	var onCycles, offCycles, stepsExec, stepsSkip int64
	var onSec, offSec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s float64
		onCycles, stepsExec, stepsSkip, s = run(false)
		onSec += s
		offCycles, _, _, s = run(true)
		offSec += s
	}
	b.StopTimer()
	if onCycles != offCycles {
		b.Fatalf("core sleeping changed simulated cycles: %d with skip, %d with -no-skip", onCycles, offCycles)
	}
	n := float64(b.N)
	onCPS := float64(onCycles) * n / onSec
	offCPS := float64(offCycles) * n / offSec
	b.ReportMetric(onCPS, "sim_cycles/s")
	b.ReportMetric(offCPS, "noskip_cycles/s")
	b.ReportMetric(onCPS/offCPS, "speedup_x")
	b.ReportMetric(skipRatio(stepsExec, stepsSkip), "skip_ratio")
	writeBenchSnapshot(b, benchEntry{
		Bench:      "SimulatorSpeedMemBound",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Runs:       b.N,
		SimCycles:  onCycles,
		ElapsedSec: onSec / n,
		CyclesPerS: onCPS,
		SkipRatio:  skipRatio(stepsExec, stepsSkip),
		SpeedupX:   onCPS / offCPS,
	})
}

// BenchmarkFrontEnd measures the trace-generating front ends a layer at a
// time, over the job list of the layered benchmark's trace-collect workload:
//
//   - assets/<scene>: scene.ByName alone — meshes and procedural textures.
//     It emits no instructions, so its rates are per thousand instructions
//     of the scene's 320×180 frame, which makes them additive with render's.
//   - render/<scene>@<w>x<h>: render.RenderFrame on prebuilt assets.
//   - compute/<workload>: compute.ByName.
//
// Each reports kinsts/s, B/kinst and allocs/kinst (process-wide, so worker
// goroutines' allocations count), and cpu_per_wall: the process's CPU
// seconds over elapsed seconds, how many CPUs the fan-out kept busy. The
// front ends fan out over GOMAXPROCS, so -cpu 1,2 gives the single-thread
// cost and what the fan-out buys; CRISP_BENCH_JSON records the rows
// (BENCH_frontend.json, docs/PERFORMANCE.md).
func BenchmarkFrontEnd(b *testing.B) {
	scenes := []string{"SPL", "SPH", "PT", "IT", "PL", "MT"}
	measure := func(b *testing.B, name string, kinsts float64, op func()) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cpu0 := processCPUSeconds(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		cpu := processCPUSeconds(b) - cpu0
		runtime.ReadMemStats(&after)
		sec, k := b.Elapsed().Seconds(), kinsts*float64(b.N)
		entry := benchEntry{
			Bench:          "FrontEnd/" + name,
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			Runs:           b.N,
			WarpInsts:      int64(kinsts * 1000),
			ElapsedSec:     sec / float64(b.N),
			WarpKIPS:       k / sec,
			BytesPerKInst:  float64(after.TotalAlloc-before.TotalAlloc) / k,
			AllocsPerKInst: float64(after.Mallocs-before.Mallocs) / k,
			CPUPerWall:     cpu / sec,
		}
		b.ReportMetric(entry.WarpKIPS, "kinsts/s")
		b.ReportMetric(entry.BytesPerKInst, "B/kinst")
		b.ReportMetric(entry.AllocsPerKInst, "allocs/kinst")
		b.ReportMetric(entry.CPUPerWall, "cpu_per_wall")
		writeBenchSnapshot(b, entry)
	}
	frameKInsts := func(res *render.Result) float64 {
		n := 0
		for _, st := range res.Streams {
			for _, k := range st.Kernels {
				n += k.InstCount()
			}
		}
		return float64(n) / 1000
	}
	renderAt := func(b *testing.B, f *render.FrameDef, w, h int) *render.Result {
		opts := render.DefaultOptions()
		opts.W, opts.H = w, h
		res, err := render.RenderFrame(f, opts)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	for _, name := range scenes {
		f, err := scene.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("assets/"+name, func(b *testing.B) {
			measure(b, "assets/"+name, frameKInsts(renderAt(b, f, 320, 180)), func() {
				if _, err := scene.ByName(name); err != nil {
					b.Fatal(err)
				}
			})
		})
		for _, size := range [][2]int{{320, 180}, {640, 360}} {
			job := fmt.Sprintf("render/%s@%dx%d", name, size[0], size[1])
			b.Run(job, func(b *testing.B) {
				measure(b, job, frameKInsts(renderAt(b, f, size[0], size[1])), func() { renderAt(b, f, size[0], size[1]) })
			})
		}
	}
	for _, name := range compute.Names() {
		b.Run("compute/"+name, func(b *testing.B) {
			w, err := compute.ByName(name, core.ComputeStreamBase)
			if err != nil {
				b.Fatal(err)
			}
			measure(b, "compute/"+name, float64(w.InstCount())/1000, func() {
				if _, err := compute.ByName(name, core.ComputeStreamBase); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// benchEntry is one row of the BENCH_parallel.json snapshot.
type benchEntry struct {
	Bench      string  `json:"bench"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Runs       int     `json:"runs"`
	SimCycles  int64   `json:"sim_cycles"`
	WarpInsts  int64   `json:"warp_insts"`
	ElapsedSec float64 `json:"elapsed_sec"`
	WarpKIPS   float64 `json:"warp_kips,omitempty"`
	CyclesPerS float64 `json:"cycles_per_sec"`
	// SkipRatio and SpeedupX record the event-driven sleeping telemetry:
	// fraction of core steps skipped, and (for the mem-bound benchmark)
	// the sim-cycles/s ratio over the -no-skip oracle.
	SkipRatio float64 `json:"skip_ratio,omitempty"`
	SpeedupX  float64 `json:"speedup_x,omitempty"`
	// BytesPerKInst and AllocsPerKInst are the front-end rows' heap cost
	// per thousand warp instructions generated (BENCH_frontend.json).
	BytesPerKInst  float64 `json:"bytes_per_kinst,omitempty"`
	AllocsPerKInst float64 `json:"allocs_per_kinst,omitempty"`
	// CPUPerWall is a front-end row's process CPU time over its elapsed
	// time: 1 for a serial front end, GOMAXPROCS for a fan-out that kept
	// every CPU busy.
	CPUPerWall float64 `json:"cpu_per_wall,omitempty"`
	// Where the row was measured, stamped by writeBenchSnapshot: a speed
	// is only comparable with one from a host that had the CPUs the row's
	// GOMAXPROCS asks for, on a known toolchain and commit.
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}

// benchCommit names the commit a snapshot row was measured at: the work
// tree's HEAD as git describes it (test binaries carry no VCS stamp),
// with "-dirty" when the tree holds uncommitted changes, else "unknown".
func benchCommit() string {
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// processCPUSeconds is the user plus system CPU time the process has used.
func processCPUSeconds(b *testing.B) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// upsertBenchEntry returns entries with e in place of the row of the same
// bench, GOMAXPROCS and commit, or with e appended when there is none. The
// testing package runs a preliminary iteration per -cpu sweep point before
// the measured one, and last-write-wins keeps exactly the measured numbers;
// a row of another commit is history and is kept, so the newest commit's
// row is the last of its key.
func upsertBenchEntry(entries []benchEntry, e benchEntry) []benchEntry {
	for i := range entries {
		if entries[i].Bench == e.Bench && entries[i].GOMAXPROCS == e.GOMAXPROCS && entries[i].Commit == e.Commit {
			entries[i] = e
			return entries
		}
	}
	return append(entries, e)
}

// writeBenchSnapshot upserts entry into the JSON array at
// CRISP_BENCH_JSON (no-op when unset) with upsertBenchEntry, keyed by
// (bench, observed GOMAXPROCS, commit). GOMAXPROCS is read at run time
// rather than inferred from the row label because under -benchtime 1x the
// framework reuses the preliminary iteration — which ran at the previous
// sweep point's CPU count — for the first row.
//
// A row whose GOMAXPROCS exceeds the host's CPUs is not written: it would
// record oversubscription (-cpu 4 on a two-CPU box), not the simulator.
func writeBenchSnapshot(b *testing.B, entry benchEntry) {
	path := os.Getenv("CRISP_BENCH_JSON")
	if path == "" {
		return
	}
	entry.NumCPU, entry.GoVersion, entry.Commit = runtime.NumCPU(), runtime.Version(), benchCommit()
	if entry.GOMAXPROCS > entry.NumCPU {
		b.Logf("not recording %s at GOMAXPROCS=%d: this host has %d CPUs", entry.Bench, entry.GOMAXPROCS, entry.NumCPU)
		return
	}
	var entries []benchEntry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			b.Fatalf("CRISP_BENCH_JSON %s holds something other than a bench snapshot: %v", path, err)
		}
	}
	data, err := json.MarshalIndent(upsertBenchEntry(entries, entry), "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// TestUpsertBenchEntry: recording a row replaces only the row its own
// commit wrote for the same bench and GOMAXPROCS; every other commit's row
// stays where it was, and a new commit's row goes last.
func TestUpsertBenchEntry(t *testing.T) {
	row := func(bench string, procs int, commit string, kips float64) benchEntry {
		return benchEntry{Bench: bench, GOMAXPROCS: procs, Commit: commit, WarpKIPS: kips}
	}
	old, mid, mid2 := row("A", 1, "old", 1), row("A", 1, "mid", 2), row("A", 2, "mid", 3)
	for _, c := range []struct {
		name string
		add  benchEntry
		want []benchEntry
	}{
		{"new commit appends", row("A", 1, "new", 9), []benchEntry{old, mid, mid2, row("A", 1, "new", 9)}},
		{"same commit replaces its row", row("A", 1, "mid", 9), []benchEntry{old, row("A", 1, "mid", 9), mid2}},
		{"oldest commit replaces only its row", row("A", 1, "old", 9), []benchEntry{row("A", 1, "old", 9), mid, mid2}},
		{"another GOMAXPROCS appends", row("A", 4, "mid", 9), []benchEntry{old, mid, mid2, row("A", 4, "mid", 9)}},
		{"another bench appends", row("B", 1, "mid", 9), []benchEntry{old, mid, mid2, row("B", 1, "mid", 9)}},
	} {
		if got := upsertBenchEntry([]benchEntry{old, mid, mid2}, c.add); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
	if got := upsertBenchEntry(nil, old); !reflect.DeepEqual(got, []benchEntry{old}) {
		t.Errorf("empty file: got %+v", got)
	}
}

// BenchmarkTracingOverhead quantifies the observability layer's cost on
// the same concurrent pair three ways:
//
//   - "off": tracer nil, no metrics — the default path. Every emission
//     site in the simulator reduces to one never-taken branch, so this is
//     the configuration whose overhead versus a hook-free simulator must
//     stay under 2%.
//   - "hooks": a NullTracer that discards events. The off-vs-hooks delta
//     (reported as hooks_overhead_%) measures the full cost of the
//     emission sites — branch, event construction, interface call. It is
//     a strict upper bound on the nil path's overhead, because the nil
//     path runs the same branches and skips everything else.
//   - "full": an in-memory Recorder plus interval metrics — the cost a
//     profiling run actually pays (full_overhead_%).
func BenchmarkTracingOverhead(b *testing.B) {
	gfx, err := experiments.Frame("SPL", benchScale.W2K, benchScale.H2K, true)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := compute.ByName("VIO", core.ComputeStreamBase)
	if err != nil {
		b.Fatal(err)
	}
	run := func(tr obs.Tracer, metrics int64) int64 {
		job := core.Job{GPU: JetsonOrin(), Graphics: gfx, Compute: comp,
			Policy: core.PolicyEven, Tracer: tr, MetricsInterval: metrics}
		res, err := job.Run()
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	run(nil, 0) // warm all memoized state before timing

	var off, hooks, full time.Duration
	rec := obs.NewRecorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		run(nil, 0)
		t1 := time.Now()
		run(obs.NullTracer{}, 0)
		t2 := time.Now()
		rec.Reset()
		run(rec, 2048)
		t3 := time.Now()
		off += t1.Sub(t0)
		hooks += t2.Sub(t1)
		full += t3.Sub(t2)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(off.Seconds()*1000/n, "off_ms/run")
	b.ReportMetric(100*(hooks.Seconds()-off.Seconds())/off.Seconds(), "hooks_overhead_%")
	b.ReportMetric(100*(full.Seconds()-off.Seconds())/off.Seconds(), "full_overhead_%")
	b.ReportMetric(float64(len(rec.Events())), "events/run")
}

// BenchmarkHardeningOverhead quantifies the happy-path cost of the
// simulation hardening layer on the same concurrent pair:
//
//   - "off": watchdog disabled, no budget, background context — the
//     pre-hardening loop shape.
//   - "on": default watchdog window, a cycle budget far above the run
//     length, and a cancellable (but never canceled) context — every
//     hardening check armed. The on-vs-off delta (hardening_overhead_%)
//     is the acceptance criterion's <2% figure.
func BenchmarkHardeningOverhead(b *testing.B) {
	gfx, err := experiments.Frame("SPL", benchScale.W2K, benchScale.H2K, true)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := compute.ByName("VIO", core.ComputeStreamBase)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(armed bool) int64 {
		job := core.Job{GPU: JetsonOrin(), Graphics: gfx, Compute: comp, Policy: core.PolicyEven}
		runCtx := context.Background()
		if armed {
			job.CycleBudget = 1 << 40
			runCtx = ctx
		} else {
			job.WatchdogWindow = -1
		}
		res, err := job.RunContext(runCtx)
		if err != nil {
			b.Fatal(err)
		}
		return res.Cycles
	}
	if run(false) != run(true) {
		b.Fatal("hardening changed simulated cycles on the happy path")
	}

	var off, on time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		run(false)
		t1 := time.Now()
		run(true)
		t2 := time.Now()
		off += t1.Sub(t0)
		on += t2.Sub(t1)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(off.Seconds()*1000/n, "off_ms/run")
	b.ReportMetric(100*(on.Seconds()-off.Seconds())/off.Seconds(), "hardening_overhead_%")
}
