package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// options are one child's command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool // -trace 1: alternate untraced and traced passes, run the layer drivers
	outDir   string
	commit   string
	// smoke is the test mode: one set-up, no warm-up, one pass of the
	// smallest job of each list, layer drivers at a fraction of their
	// iterations. Its numbers mean nothing; its names and counts do.
	smoke bool
}

// passCtx is handed to every pass: the tracer (nil on untraced passes),
// the pass's root span, and the pass's own seeded generator for job order.
// full asks for the secondary phases too; a -trace 0 run times the main
// path only, so that its seconds buy as many repetitions of what the
// end-to-end metric is made of as they can.
type passCtx struct {
	tr   *tracer
	root int
	rng  *rng
	full bool
}

// passResult is what one pass measured. primary and secondary are its
// timed operations by id, in seconds: primary the workload's main path,
// which kinsts went through, secondary its other phases; together they
// are the pass. named are the workload's own end-to-end readings, taken
// from untraced passes, layer its per-layer ones, taken from traced
// passes: samples towards the run's median — one per pass, or one per
// operation for a latency, whose median is then over every operation of
// every pass.
type passResult struct {
	kinsts    float64
	primary   map[string]float64
	secondary map[string]float64
	named     readings
	layer     readings
	order     []string // job order of the pass's first phase
}

// readings are a pass's samples by metric name.
type readings map[string][]float64

func (rd readings) put(name string, vs ...float64) { rd[name] = append(rd[name], vs...) }

func newPassResult() passResult {
	return passResult{
		primary: map[string]float64{}, secondary: map[string]float64{},
		named: readings{}, layer: readings{},
	}
}

func sumValues(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

func (p *passResult) primaryS() float64 { return sumValues(p.primary) }
func (p *passResult) totalS() float64   { return sumValues(p.primary) + sumValues(p.secondary) }

// opSamples collects, per timed operation, its duration in every
// untraced pass. A shared host only ever adds time — on the authoring box
// one fixed job read 105–110 ms for most of a minute and 160–180 ms in
// bursts of two to six seconds — so the interference-free cost of an
// operation is its fastest repetition, and a run's end-to-end times are
// sums of those. Medians of whole passes spread 15–18% between runs of
// one commit there; a regression bound needs a steadier number.
type opSamples map[string][]float64

func (o opSamples) add(prefix string, m map[string]float64) {
	for id, v := range m {
		o[prefix+id] = append(o[prefix+id], v)
	}
}

func (o opSamples) sumOfFastest(prefix string) float64 {
	var t float64
	for id, vs := range o {
		if strings.HasPrefix(id, prefix) {
			t += slices.Min(vs)
		}
	}
	return t
}

// workload is one of the five. setup builds everything timed passes need
// and may be called again after teardown; verify is the untimed
// verification phase; layers runs the workload's own layer drivers.
type workload interface {
	setup(r *run) error
	pass(r *run, pc *passCtx) (passResult, error)
	verify(r *run) error
	layers(r *run, tr *tracer, root int) error
	teardown()
}

// run collects one child's samples, operation counts and spans.
type run struct {
	opt options

	mu        sync.Mutex
	samples   map[string][]float64
	estimates map[string]float64 // a metric's value when it is not the median of its samples
	attempted int
	failed    int
	failures  []string
}

func newRun(opt options) *run {
	return &run{opt: opt, samples: make(map[string][]float64), estimates: make(map[string]float64)}
}

// sample adds measurements of a catalogued metric.
func (r *run) sample(name string, vs ...float64) {
	d, ok := catalogIndex[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	if !d.definedOn(r.opt.workload) {
		panic("bench: metric " + name + " is not defined on " + r.opt.workload)
	}
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], vs...)
	r.mu.Unlock()
}

// op counts one verified operation; a false ok is a failure with a reason.
func (r *run) op(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 32 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// opErr is op for a call that returns an error.
func (r *run) opErr(err error, what string) bool {
	return r.op(err == nil, "%s: %v", what, err)
}

const setupReps = 3

// availableCPUs is what the load is sized to: one busy goroutine or
// connection per CPU the process may use.
func availableCPUs() int {
	n := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < n {
		n = p
	}
	return n
}

// parallelWorkers is N, the only parallel SM-stepping worker count
// measured: min(CPUs, 4). Below two CPUs there is no parallel
// measurement (a -jN above the hardware measures the scheduler, not the
// engine), so the jN sub-pass is skipped and sim_kips_jn reads 0.
func parallelWorkers() int {
	n := availableCPUs()
	if n > 4 {
		n = 4
	}
	if n < 2 {
		return 0
	}
	return n
}

func newWorkload(opt options) (workload, error) {
	switch opt.workload {
	case wlTraceCollect:
		return &traceCollect{}, nil
	case wlPairsIssue:
		return &pairs{jobs: issueBoundJobs(), issueBound: true}, nil
	case wlPairsMem:
		return &pairs{jobs: memBoundJobs()}, nil
	case wlMix:
		return &mixWorkload{}, nil
	case wlService:
		return &serviceWorkload{}, nil
	}
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(names, ", "))
}

// runWorkload is one child: set-up, warm-up, measured passes, the untimed
// verification phase, and with -trace 1 the traced passes and layer
// drivers.
func runWorkload(opt options) (*report, error) {
	w, err := newWorkload(opt)
	if err != nil {
		return nil, err
	}
	r := newRun(opt)
	defer w.teardown()

	reps := setupReps
	if opt.smoke {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		w.teardown()
		runtime.GC() // the last set-up's garbage is not this one's memory
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", opt.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// The first pass warms code, heap and page cache; it is part of
	// everything before the first timed pass and no median samples it. Its
	// operation times still stand beside the measured passes' where the
	// fastest repetition is looked for: a cold pass cannot read below the
	// floor, and on a workload with three or four passes to a run (service)
	// one more repetition is a better chance of a quiet moment of the host.
	warm := 0.0
	ops := opSamples{}
	if !opt.smoke {
		t0 := time.Now()
		res, err := w.pass(r, &passCtx{root: -1, rng: newRNG(opt.seed, 0), full: opt.trace})
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up pass: %w", opt.workload, err)
		}
		warm = time.Since(t0).Seconds()
		ops.add("primary:", res.primary)
		ops.add("secondary:", res.secondary)
	}
	r.sample("setup_s", median(setups)+warm)

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	var untraced, traced []float64
	var order []string
	var kinsts float64
	start := time.Now()
	for i := 0; ; i++ {
		// With -trace 1 passes go untraced, traced, traced, …: the
		// untraced ones feed the end-to-end metrics and the overhead
		// comparison, the traced ones the per-layer metrics.
		pc := &passCtx{root: -1, rng: newRNG(opt.seed, uint64(i)+1), full: opt.trace}
		if opt.trace && i%3 != 0 {
			pc.tr = tr
		}
		runtime.GC()
		pc.root = pc.tr.begin("pass", "", -1, 0)
		res, err := w.pass(r, pc)
		pc.tr.end(pc.root)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", opt.workload, i, err)
		}
		if order == nil {
			order = res.order
		}
		if pc.tr == nil {
			untraced = append(untraced, res.totalS())
			kinsts = res.kinsts
			ops.add("primary:", res.primary)
			ops.add("secondary:", res.secondary)
			r.sample("kinsts_per_s", res.kinsts/res.primaryS())
			if pc.full {
				r.sample("pass_s", res.totalS())
			}
			for k, vs := range res.named {
				r.sample(k, vs...)
			}
		} else {
			traced = append(traced, res.totalS())
			for k, vs := range res.layer {
				r.sample(k, vs...)
			}
		}
		if opt.smoke {
			if !opt.trace || i == 1 {
				break
			}
			continue
		}
		elapsed := time.Since(start).Seconds()
		mean := elapsed / float64(i+1)
		done := elapsed+mean/2 > opt.seconds && i >= 1
		if opt.trace {
			done = done && i%3 == 2
		}
		if done {
			break
		}
	}

	primary := ops.sumOfFastest("primary:")
	r.estimates["kinsts_per_s"] = kinsts / primary
	if opt.trace {
		r.estimates["pass_s"] = primary + ops.sumOfFastest("secondary:")
	}

	runtime.GC()
	if err := w.verify(r); err != nil {
		return nil, fmt.Errorf("%s: verification: %w", opt.workload, err)
	}

	if opt.trace {
		r.sample("trace.overhead_pct", (median(traced)/median(untraced)-1)*100)
		root := tr.begin("pass", "layer-drivers", -1, 0)
		if err := universalDrivers(r, tr, root); err != nil {
			return nil, fmt.Errorf("%s: layer drivers: %w", opt.workload, err)
		}
		if err := w.layers(r, tr, root); err != nil {
			return nil, fmt.Errorf("%s: layer drivers: %w", opt.workload, err)
		}
		tr.end(root)
		r.opErr(tr.check(), "span tree")
		hostMetrics(r)
	}
	w.teardown()
	r.sample("peak_rss_mb", peakRSSMB())

	rep := r.report(len(untraced), len(traced), order)
	rep.OpSeconds = ops
	if tr != nil {
		rep.SelfTimeS = tr.selfTimes()
		rep.spans = tr
	}
	return rep, nil
}

// hostMetrics explains peak_rss_mb moves and separates scheduler steal
// (wall far above CPU) from real slow-downs.
func hostMetrics(r *run) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.sample("host.cpu_s", cpu.Seconds())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.sample("host.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	r.sample("host.num_gc", float64(ms.NumGC))
	r.sample("host.alloc_mb", float64(ms.TotalAlloc)/(1<<20))
}

// peakRSSMB is the process's high-water resident set: VmHWM from
// /proc/self/status, or getrusage's maximum where there is no procfs.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// report folds the run's samples into one value per metric: the median,
// with quartiles and sample count beside it.
func (r *run) report(untraced, traced int, order []string) *report {
	rep := &report{
		Workload:  r.opt.workload,
		Seed:      r.opt.seed,
		Seconds:   r.opt.seconds,
		Traced:    r.opt.trace,
		Smoke:     r.opt.smoke,
		Reps:      untraced,
		TracedRep: traced,
		Host:      stampHost(r.opt.commit),
		Attempted: r.attempted,
		Failed:    r.failed,
		Failures:  r.failures,
		JobOrder:  order,
		Metrics:   make(map[string]metricValue),
	}
	names := make([]string, 0, len(r.samples))
	for name := range r.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vs := r.samples[name]
		q1, med, q3 := quartiles(vs)
		d := catalogIndex[name]
		if est, ok := r.estimates[name]; ok {
			med = est
		}
		rep.Metrics[name] = metricValue{Value: med, Unit: d.unit, Q1: q1, Q3: q3, N: len(vs)}
	}
	return rep
}
