package main

import (
	"fmt"
	"time"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/gpu"
	"crisp/internal/partition"
	"crisp/internal/render"
	"crisp/internal/sm"
	"crisp/internal/trace"
)

// pairJob is one timing-model job: a scene and/or a compute workload
// under a policy on a GPU, with traces prebuilt in set-up.
type pairJob struct {
	gpuName string // "orin", or "narrow" for the latency-bound RTX3070
	scene   string
	compute string
	policy  core.PolicyKind
	w, h    int

	job    core.Job // traces attached by set-up
	digest uint64   // the oracle's stats digest, set by the first verify
}

func (j *pairJob) id() string {
	return fmt.Sprintf("%s+%s/%s@%s-%dx%d", j.scene, j.compute, j.policy, j.gpuName, j.w, j.h)
}

// narrowedRTX3070 is the latency-bound machine of
// BenchmarkSimulatorSpeedMemBound: one tiled-matmul CTA fills an SM, a
// small MSHR file and 8x DRAM latency, so cores park on fill waves.
func narrowedRTX3070() config.GPU {
	cfg := config.RTX3070()
	cfg.SharedMemPerSM = 6 << 10
	cfg.L1MSHRs = 4
	cfg.L2MSHRs = 16
	cfg.DRAMLatency *= 8
	return cfg
}

// issueBoundJobs: issue share 0.27–0.63, skip ratio 0.17–0.49 at
// authoring time (bench/README.md has the table).
func issueBoundJobs() []*pairJob {
	return []*pairJob{
		{gpuName: "orin", scene: "SPL", compute: "HOLO", policy: core.PolicyEven, w: 640, h: 360},
		{gpuName: "orin", scene: "PL", compute: "ATW", policy: core.PolicyMPS, w: 640, h: 360},
		{gpuName: "orin", scene: "PT", policy: core.PolicySerial, w: 640, h: 360},
		{gpuName: "orin", scene: "PT", compute: "HOLO", policy: core.PolicyWarpedSlicer, w: 640, h: 360},
		{gpuName: "orin", scene: "MT", compute: "UPSCALE", policy: core.PolicyPriority, w: 640, h: 360},
	}
}

// memBoundJobs: skip ratio 0.51–0.89, issue share 0.08–0.28.
func memBoundJobs() []*pairJob {
	return []*pairJob{
		{gpuName: "orin", scene: "IT", compute: "VIO", policy: core.PolicyMiG, w: 640, h: 360},
		{gpuName: "narrow", compute: "NN", policy: core.PolicyMPS, w: 320, h: 180},
		{gpuName: "narrow", scene: "PT", compute: "NN", policy: core.PolicyTAP, w: 320, h: 180},
		{gpuName: "orin", scene: "SPH", compute: "NN", policy: core.PolicyTAP, w: 320, h: 180},
	}
}

// pairs is both timing-model workloads; the job list tells them apart.
type pairs struct {
	jobs       []*pairJob
	issueBound bool

	active   []*pairJob
	renderS  float64 // front-end time of the last set-up
	computeS float64
	renderK  float64
	computeK float64

	// Every measured run's digest, checked against the oracle in verify.
	measured []measuredRun
	j1S      []float64 // per pass, for the skip speed-up
	last     pairsAgg  // the latest j1 sub-pass's counts
}

type measuredRun struct {
	job     *pairJob
	workers int
	digest  uint64
	cycles  int64
}

func (w *pairs) setup(r *run) error {
	w.active = w.jobs
	if r.opt.smoke {
		w.active = w.jobs[:1] // the lists lead with their smallest job
		w.active[0].w, w.active[0].h = 128, 72
	}
	w.renderS, w.computeS, w.renderK, w.computeK = 0, 0, 0, 0
	frames := make(map[string]*render.Result)
	for _, j := range w.active {
		j.job = core.Job{Policy: j.policy, GPU: config.JetsonOrin()}
		if j.gpuName == "narrow" {
			j.job.GPU = narrowedRTX3070()
		}
		if j.scene != "" {
			key := fmt.Sprintf("%s@%dx%d", j.scene, j.w, j.h)
			if frames[key] == nil {
				opts := render.DefaultOptions()
				opts.W, opts.H = j.w, j.h
				t0 := time.Now()
				res, err := core.RenderScene(j.scene, opts)
				if err != nil {
					return err
				}
				w.renderS += time.Since(t0).Seconds()
				w.renderK += kiloInsts(frameKernels(res))
				frames[key] = res
			}
			j.job.Graphics = frames[key]
		}
		if j.compute != "" {
			t0 := time.Now()
			cw, err := compute.ByName(j.compute, core.ComputeStreamBase)
			if err != nil {
				return err
			}
			w.computeS += time.Since(t0).Seconds()
			w.computeK += kiloInsts(cw.Kernels)
			j.job.Compute = cw
		}
	}
	return nil
}

func (w *pairs) teardown() {}

func warpInsts(res *core.Result) float64 {
	var n int64
	for _, s := range res.PerStream {
		n += s.WarpInsts
	}
	return float64(n)
}

// runJobs is one sub-pass: every job once at the given worker count, in
// the given order.
func (w *pairs) runJobs(r *run, pc *passCtx, order []int, workers int, agg *pairsAgg) (seconds map[string]float64) {
	seconds = make(map[string]float64, len(order))
	for _, ji := range order {
		j := w.active[ji]
		job := j.job
		job.Workers = workers
		span := pc.tr.begin("job", j.id(), pc.root, 0)
		var res *core.Result
		var err error
		d := pc.tr.timed("core.run", j.id(), span, 0, func(int) { res, err = job.Run() })
		pc.tr.end(span)
		if !r.opErr(err, fmt.Sprintf("core.Job.Run %s -j%d", j.id(), workers)) {
			continue
		}
		seconds[j.id()] = d.Seconds()
		digest, _ := res.StatsDigest()
		w.measured = append(w.measured, measuredRun{job: j, workers: workers, digest: digest, cycles: res.Cycles})
		if workers == 1 {
			agg.add(res, digest)
		}
	}
	return seconds
}

// pairsAgg sums the deterministic counts of one j1 sub-pass.
type pairsAgg struct {
	insts, cycles, exec, skip          float64
	l1a, l1m, l2a, l2m, dram, digestLo float64
}

func (a *pairsAgg) add(res *core.Result, digest uint64) {
	a.insts += warpInsts(res)
	a.cycles += float64(res.Cycles)
	a.exec += float64(res.StepsExecuted)
	a.skip += float64(res.StepsSkipped)
	for _, s := range res.PerStream {
		a.l1a += float64(s.L1Accesses)
		a.l1m += float64(s.L1Misses)
		a.l2a += float64(s.L2Accesses)
		a.l2m += float64(s.L2Misses)
		a.dram += float64(s.DRAMReads + s.DRAMWrites)
	}
	a.digestLo = foldDigest(a.digestLo, digest)
}

// foldDigest folds a 64-bit digest into a running value that does not
// depend on job order and stays exact in a float64 (48 bits), so a JSON
// number carries it unchanged.
func foldDigest(acc float64, d uint64) float64 {
	const mask = 1<<48 - 1
	return float64((uint64(acc) ^ d) & mask)
}

func hitRatio(accesses, misses float64) float64 {
	if accesses == 0 {
		return 0
	}
	return 1 - misses/accesses
}

func (w *pairs) pass(r *run, pc *passCtx) (passResult, error) {
	res := newPassResult()
	order := pc.rng.perm(len(w.active))
	for _, ji := range order {
		res.order = append(res.order, w.active[ji].id())
	}
	var agg pairsAgg
	res.primary = w.runJobs(r, pc, order, 1, &agg)
	j1 := res.primaryS()
	res.kinsts = agg.insts / 1000
	w.j1S = append(w.j1S, j1)
	w.last = agg
	// The parallel engine is measured beside the traced passes only: on a
	// shared two-CPU host a jN time cannot hold a regression bound, so no
	// end-to-end metric carries it (the issue's own demotion rule).
	if n := parallelWorkers(); n > 1 && r.opt.trace {
		jn := sumValues(w.runJobs(r, pc, order, n, &agg))
		res.layer.put("sim_kips_jn", agg.insts/1000/jn)
		res.layer.put("engine.jn_over_j1", j1/jn)
	}

	l := res.layer
	l.put("core.run_s", j1)
	l.put("sim.cycles", agg.cycles)
	l.put("sim.warp_insts", agg.insts)
	l.put("sim.stats_digest", agg.digestLo)
	l.put("gpu.ns_per_sim_cycle", j1*1e9/agg.cycles)
	l.put("engine.steps_executed", agg.exec)
	l.put("engine.steps_skipped", agg.skip)
	l.put("engine.skip_ratio", agg.skip/(agg.exec+agg.skip))
	l.put("engine.ns_per_executed_step", j1*1e9/agg.exec)
	l.put("mem.l1_accesses", agg.l1a)
	l.put("mem.l1_misses", agg.l1m)
	l.put("mem.l2_accesses", agg.l2a)
	l.put("mem.l2_misses", agg.l2m)
	l.put("mem.dram_bytes", agg.dram)
	l.put("mem.l1_hit_ratio", hitRatio(agg.l1a, agg.l1m))
	l.put("mem.l2_hit_ratio", hitRatio(agg.l2a, agg.l2m))
	// Front ends run only in set-up here; their time is what setup_s pays.
	l.put("render.busy_s", w.renderS)
	l.put("render.kinsts", w.renderK)
	l.put("compute.busy_s", w.computeS)
	l.put("compute.kinsts", w.computeK)
	if w.renderS > 0 {
		l.put("render.kinsts_per_s", w.renderK/w.renderS)
	}
	return res, nil
}

// verify runs each distinct job once on the cycle-by-cycle serial
// oracle; every measured run must have produced the oracle's digest.
func (w *pairs) verify(r *run) error {
	var insts, oracleS float64
	for _, j := range w.active {
		job := j.job
		job.Workers, job.NoSkip = 1, true
		t0 := time.Now()
		res, err := job.Run()
		oracleS += time.Since(t0).Seconds()
		if !r.opErr(err, "oracle run "+j.id()) {
			continue
		}
		j.digest, _ = res.StatsDigest()
		insts += warpInsts(res)
	}
	// Untraced passes time the serial engine only; the parallel engine
	// still has to reproduce the oracle, once per job.
	if n := parallelWorkers(); n > 1 && !r.opt.trace {
		order := make([]int, len(w.active))
		for i := range order {
			order[i] = i
		}
		w.runJobs(r, &passCtx{root: -1}, order, n, &pairsAgg{})
	}
	for _, m := range w.measured {
		r.op(m.digest == m.job.digest, "%s -j%d: stats digest %016x differs from the oracle's %016x",
			m.job.id(), m.workers, m.digest, m.job.digest)
	}
	if r.opt.trace {
		r.sample("engine.kips_noskip", insts/1000/oracleS)
		r.sample("engine.skip_speedup_x", oracleS/median(w.j1S))
	}
	// The workload-identity assert: the job list must keep the workload
	// on its side of the skip-ratio divide (one smoke job cannot).
	if ratio := w.last.skip / (w.last.exec + w.last.skip); !r.opt.smoke {
		if w.issueBound {
			r.op(ratio < 0.45, "pairs-issue-bound skip ratio %.3f is not below 0.45: the job list no longer stresses issue logic", ratio)
		} else {
			r.op(ratio > 0.6, "pairs-mem-bound skip ratio %.3f is not above 0.6: the job list no longer stresses sleeping and mem", ratio)
		}
	}
	return nil
}

// countingPolicy decorates a gpu.Policy: Tick and OnLaunch are timed,
// the gate calls (AllowSM, Limit) only counted — a timer on calls made
// per CTA placement attempt would dominate what it measures. It forwards
// the optional snapshot and describe extensions; a Prioritizer cannot be
// wrapped without changing placement order for policies that are not one,
// so newCountingPolicy refuses those.
type countingPolicy struct {
	inner               gpu.Policy
	ticks, gates        int64
	tickBusy, launchBus time.Duration
}

func newCountingPolicy(p gpu.Policy) (*countingPolicy, error) {
	if _, ok := p.(gpu.Prioritizer); ok {
		return nil, fmt.Errorf("policy %s is a Prioritizer; the counting decorator does not forward placement priority", p.Name())
	}
	return &countingPolicy{inner: p}, nil
}

func (c *countingPolicy) Name() string { return c.inner.Name() }

func (c *countingPolicy) AllowSM(smID, task int) bool {
	c.gates++
	return c.inner.AllowSM(smID, task)
}

func (c *countingPolicy) Limit(smID, task int) (sm.Resources, bool) {
	c.gates++
	return c.inner.Limit(smID, task)
}

func (c *countingPolicy) OnLaunch(now int64, k *trace.Kernel, task int) {
	t0 := time.Now()
	c.inner.OnLaunch(now, k, task)
	c.launchBus += time.Since(t0)
}

func (c *countingPolicy) Tick(now int64) {
	t0 := time.Now()
	c.inner.Tick(now)
	c.tickBusy += time.Since(t0)
	c.ticks++
}

func (c *countingPolicy) CaptureState() ([]byte, error) {
	if ps, ok := c.inner.(gpu.StateSnapshotter); ok {
		return ps.CaptureState()
	}
	return nil, nil
}

func (c *countingPolicy) RestoreState(blob []byte) error {
	if ps, ok := c.inner.(gpu.StateSnapshotter); ok {
		return ps.RestoreState(blob)
	}
	return nil
}

func (c *countingPolicy) DescribeState() string {
	if sd, ok := c.inner.(gpu.StateDescriber); ok {
		return sd.DescribeState()
	}
	return ""
}

// replica rebuilds a pair job on a bare gpu.New the way core.Job.Run
// does, with the policy wrapped in the counting decorator. It must
// reproduce the job's cycles, or the decorator's numbers describe some
// other run.
func replica(j *pairJob) (*countingPolicy, int64, error) {
	g, err := gpu.New(j.job.GPU)
	if err != nil {
		return nil, 0, err
	}
	g.Workers = 1
	g.TaskWindows[partition.TaskGraphics] = 32 // core's default binning-buffer window
	tasks := 1
	if j.job.Graphics != nil {
		for _, st := range j.job.Graphics.Streams {
			def := gpu.StreamDef{ID: st.Stream, Task: partition.TaskGraphics, Label: st.Label, Kernels: st.Kernels}
			if err := g.AddStream(def); err != nil {
				return nil, 0, err
			}
		}
	}
	if cw := j.job.Compute; cw != nil {
		tasks = 2
		def := gpu.StreamDef{ID: core.ComputeStreamBase, Task: 1, Label: cw.Name, Kernels: cw.Kernels}
		if err := g.AddStream(def); err != nil {
			return nil, 0, err
		}
	}
	pol, err := core.BuildPolicy(g, j.policy, tasks)
	if err != nil {
		return nil, 0, err
	}
	cp, err := newCountingPolicy(pol)
	if err != nil {
		return nil, 0, err
	}
	g.SetPolicy(cp)
	cycles, err := g.Run()
	return cp, cycles, err
}

// layers drives the partition layer through the replica for the list's
// dynamic policies, and on the issue-bound list prices the interval
// metrics crispd always samples.
func (w *pairs) layers(r *run, tr *tracer, root int) error {
	var ticks, gates float64
	var tickBusy, launchBusy time.Duration
	id := tr.begin("driver.partition", "", root, 0)
	for _, j := range w.active {
		if j.policy != core.PolicyTAP && j.policy != core.PolicyWarpedSlicer {
			continue
		}
		cp, cycles, err := replica(j)
		if !r.opErr(err, "gpu.New replica of "+j.id()) {
			continue
		}
		want := int64(-1)
		for _, m := range w.measured {
			if m.job == j {
				want = m.cycles
				break
			}
		}
		r.op(cycles == want, "gpu.New replica of %s ran %d cycles, core.Job.Run %d", j.id(), cycles, want)
		ticks += float64(cp.ticks)
		gates += float64(cp.gates)
		tickBusy += cp.tickBusy
		launchBusy += cp.launchBus
	}
	tr.end(id)
	r.sample("partition.tick_calls", ticks)
	r.sample("partition.gate_calls", gates)
	r.sample("partition.tick_busy_s", tickBusy.Seconds())
	r.sample("partition.onlaunch_busy_s", launchBusy.Seconds())

	if w.issueBound {
		id := tr.begin("driver.obs", "", root, 0)
		var plain, sampled float64
		reps := 2
		if r.opt.smoke {
			reps = 1
		}
		for rep := 0; rep < reps; rep++ {
			for _, j := range w.active {
				job := j.job
				job.Workers = 1
				t0 := time.Now()
				_, err := job.Run()
				plain += time.Since(t0).Seconds()
				r.opErr(err, "plain run "+j.id())
				job.MetricsInterval = 4096
				t0 = time.Now()
				_, err = job.Run()
				sampled += time.Since(t0).Seconds()
				r.opErr(err, "WithMetrics(4096) run "+j.id())
			}
		}
		tr.end(id)
		r.sample("obs.metrics_overhead_pct", (sampled/plain-1)*100)
	}
	return nil
}
