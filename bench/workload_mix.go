package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"crisp"
	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/gpu"
	"crisp/internal/render"
	"crisp/internal/snapshot"
)

// mixJob is one scenario preset under a policy.
type mixJob struct {
	preset string
	policy crisp.PolicyKind

	mix    crisp.MixSpec // the preset with the seed's arrival jitter applied
	digest uint64        // straight-run stats digest, set by the first run
}

func (j *mixJob) id() string { return j.preset + "/" + string(j.policy) }

// mixWorkload drives the public facade, front end included: RunMix under
// checkpointing, then ResumeFile from each job's median-cycle snapshot.
type mixWorkload struct {
	jobs    []*mixJob
	opts    crisp.RenderOptions
	scratch string
	nextDir int
	// resumeFrom is each job's median-cycle snapshot of the last pass.
	resumeFrom map[*mixJob]string

	runs []mixRun // every measured run, for verify
}

type mixRun struct {
	job     *mixJob
	resumed bool
	digest  uint64
	qos     *crisp.QoSReport
}

const (
	mixCheckpointEvery  = 50_000
	mixCheckpointRetain = 64
	// arrivalJitter bounds the seed's shift of each scheduled arrival, in
	// cycles. The seed must change the inputs (job digests, interleaving)
	// but not the amount of work: reseeding the bursty generator moved
	// RunMix time by ±7% and resume time by ±17% at authoring time, wider
	// than the regression bound the metric carries.
	arrivalJitter = 1024
)

func (w *mixWorkload) setup(r *run) error {
	w.jobs = []*mixJob{
		{preset: "vr-frame-deadline", policy: crisp.PolicyPriority},
		{preset: "bursty-inference-under-render", policy: crisp.PolicyTAP},
		{preset: "n-way-fair", policy: crisp.PolicyWarpedSlicer},
		{preset: "background-batch", policy: crisp.PolicyMiG},
	}
	w.opts = crisp.DefaultRenderOptions()
	if r.opt.smoke {
		w.jobs = w.jobs[:1] // the smallest job that writes a snapshot to resume from
		w.opts.W, w.opts.H = 128, 72
	}
	rnd := newRNG(r.opt.seed, 1<<32)
	for _, j := range w.jobs {
		mix, err := crisp.MixPreset(j.preset)
		if err != nil {
			return err
		}
		for i := range mix.Tenants {
			if a := &mix.Tenants[i].Arrival; a.Kind != crisp.ArriveImmediate && a.Kind != "" {
				a.Offset += int64(rnd.intn(arrivalJitter))
			}
		}
		j.mix = mix
	}
	if err := os.MkdirAll(r.opt.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.opt.outDir, "scratch-mix-")
	if err != nil {
		return err
	}
	w.scratch = dir
	return nil
}

func (w *mixWorkload) teardown() {
	if w.scratch != "" {
		os.RemoveAll(w.scratch)
		w.scratch = ""
	}
}

func (w *mixWorkload) newDir() string {
	w.nextDir++
	return filepath.Join(w.scratch, fmt.Sprintf("ckpt-%04d", w.nextDir))
}

func checkpointOpts(dir string) []crisp.RunOption {
	return []crisp.RunOption{
		crisp.WithWorkers(1),
		crisp.WithCheckpointDir(dir),
		crisp.WithCheckpointEvery(mixCheckpointEvery),
		crisp.WithCheckpointRetain(mixCheckpointRetain),
	}
}

// frontEndTimes is what a traced mix run spent in each front end.
type frontEndTimes struct{ renderS, computeS, runS float64 }

// runMix is one RunMix under checkpointing. Untraced it is the facade
// call a user makes; traced it is the same lowering with the front ends
// and the run wrapped in spans (core.BuildMixJobEnv's hooks), which is
// the only way to see inside the call from outside.
func runMix(tr *tracer, j *mixJob, opts crisp.RenderOptions, dir string, parent int) (res *crisp.Result, fe frontEndTimes, err error) {
	if tr == nil {
		res, err = crisp.RunMix(crisp.JetsonOrin(), j.mix, j.policy, opts, checkpointOpts(dir)...)
		return res, fe, err
	}
	env := core.MixEnv{
		Render: func(name string, o render.Options) (out *render.Result, err error) {
			fe.renderS += tr.timed("render.frame", j.id(), parent, 0, func(int) { out, err = core.RenderScene(name, o) }).Seconds()
			return out, err
		},
		Compute: func(name string) (out *compute.Workload, err error) {
			fe.computeS += tr.timed("compute.build", j.id(), parent, 0, func(int) {
				out, err = compute.ByName(name, core.ComputeStreamBase)
			}).Seconds()
			return out, err
		},
	}
	job, err := core.BuildMixJobEnv(config.JetsonOrin(), j.mix, j.policy, opts, env)
	if err != nil {
		return nil, fe, err
	}
	for _, o := range checkpointOpts(dir) {
		o(job)
	}
	fe.runS = tr.timed("core.run", j.id(), parent, 0, func(int) { res, err = job.Run() }).Seconds()
	return res, fe, err
}

// resume is one ResumeFile, traced as decode then rebuild+restore+run.
func resume(tr *tracer, j *mixJob, path string, parent int) (res *crisp.Result, err error) {
	if tr == nil {
		return crisp.ResumeFile(context.Background(), path, crisp.WithWorkers(1))
	}
	var env *snapshot.Envelope
	tr.timed("snapshot.decode", j.id(), parent, 0, func(int) { env, err = core.LoadSnapshot(path) })
	if err != nil {
		return nil, err
	}
	tr.timed("core.resume", j.id(), parent, 0, func(int) {
		res, err = core.ResumeContext(context.Background(), env, core.WithWorkers(1))
	})
	return res, err
}

// checkpoints lists a directory's periodic snapshots in cycle order with
// their total size.
func checkpoints(dir string) (paths []string, bytes int64) {
	paths, _ = filepath.Glob(filepath.Join(dir, "ckpt-*"+snapshot.Ext))
	sort.Strings(paths)
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			bytes += st.Size()
		}
	}
	return paths, bytes
}

func (w *mixWorkload) pass(r *run, pc *passCtx) (passResult, error) {
	res := newPassResult()
	order := pc.rng.perm(len(w.jobs))
	var agg pairsAgg
	var fe frontEndTimes
	var saves, saveS, snapBytes float64
	// The previous pass's snapshots stay until here: an untraced run
	// resumes from the last pass's in its verification phase.
	os.RemoveAll(w.scratch)
	if err := os.MkdirAll(w.scratch, 0o755); err != nil {
		return res, err
	}
	w.resumeFrom = make(map[*mixJob]string)

	for _, ji := range order {
		j := w.jobs[ji]
		res.order = append(res.order, j.id())
		dir := w.newDir()
		var out *crisp.Result
		var err error
		var jfe frontEndTimes
		res.primary[j.id()] = pc.tr.timed("job", j.id(), pc.root, 0, func(id int) { out, jfe, err = runMix(pc.tr, j, w.opts, dir, id) }).Seconds()
		if !r.opErr(err, "RunMix "+j.id()) {
			continue
		}
		fe.renderS, fe.computeS, fe.runS = fe.renderS+jfe.renderS, fe.computeS+jfe.computeS, fe.runS+jfe.runS
		digest, _ := out.StatsDigest()
		w.runs = append(w.runs, mixRun{job: j, digest: digest, qos: out.QoS})
		agg.add(out, digest)
		saves += float64(out.CheckpointSaves)
		saveS += out.CheckpointSaveTime.Seconds()
		paths, n := checkpoints(dir)
		snapBytes += float64(n)
		// A job that ends before its first checkpoint has nothing to
		// resume from (background-batch, at 50k cycles).
		if len(paths) > 0 {
			w.resumeFrom[j] = paths[len(paths)/2]
		}
	}
	if pc.full {
		res.secondary = w.resumeAll(r, pc, order)
	}

	mixS, resumeS := res.primaryS(), sumValues(res.secondary)
	res.kinsts = agg.insts / 1000
	res.named.put("mix_job_s", mixS)
	if pc.full {
		res.named.put("resume_s", resumeS)
	}
	l := res.layer
	l.put("sim.cycles", agg.cycles)
	l.put("sim.warp_insts", agg.insts)
	l.put("sim.stats_digest", agg.digestLo)
	l.put("engine.steps_executed", agg.exec)
	l.put("engine.steps_skipped", agg.skip)
	l.put("engine.skip_ratio", agg.skip/(agg.exec+agg.skip))
	l.put("mem.l1_accesses", agg.l1a)
	l.put("mem.l1_misses", agg.l1m)
	l.put("mem.l2_accesses", agg.l2a)
	l.put("mem.l2_misses", agg.l2m)
	l.put("mem.dram_bytes", agg.dram)
	l.put("mem.l1_hit_ratio", hitRatio(agg.l1a, agg.l1m))
	l.put("mem.l2_hit_ratio", hitRatio(agg.l2a, agg.l2m))
	l.put("snapshot.saves", saves)
	l.put("snapshot.bytes", snapBytes)
	if saves > 0 {
		l.put("snapshot.save_ms_mean", saveS*1000/saves)
	}
	l.put("core.resume_s", resumeS)
	if pc.tr != nil {
		l.put("render.busy_s", fe.renderS)
		l.put("compute.busy_s", fe.computeS)
		l.put("core.run_s", fe.runS)
	}
	return res, nil
}

// resumeAll is the ResumeFile phase: every job of the last RunMix phase
// that left a snapshot, from its median-cycle one.
func (w *mixWorkload) resumeAll(r *run, pc *passCtx, order []int) map[string]float64 {
	seconds := make(map[string]float64)
	for _, ji := range order {
		j := w.jobs[ji]
		path, ok := w.resumeFrom[j]
		if !ok {
			continue
		}
		var out *crisp.Result
		var err error
		seconds["resume "+j.id()] = pc.tr.timed("job", j.id(), pc.root, 0, func(id int) { out, err = resume(pc.tr, j, path, id) }).Seconds()
		if !r.opErr(err, "ResumeFile "+j.id()) {
			continue
		}
		r.op(out.Resumed, "ResumeFile %s did not report a resumed run", j.id())
		digest, _ := out.StatsDigest()
		w.runs = append(w.runs, mixRun{job: j, resumed: true, digest: digest, qos: out.QoS})
	}
	return seconds
}

// verify checks every measured run against a cycle-by-cycle serial oracle
// run of its job without checkpointing: straight runs and resumed runs
// must both produce its digest, and each tenant's deadline accounting
// must cover every instance that carried a deadline.
func (w *mixWorkload) verify(r *run) error {
	if !r.opt.trace {
		// Untraced passes time RunMix only; the last pass's snapshots
		// still have to resume to the straight run's result.
		order := make([]int, len(w.jobs))
		for i := range order {
			order[i] = i
		}
		w.resumeAll(r, &passCtx{root: -1}, order)
	}
	for _, j := range w.jobs {
		res, err := crisp.RunMix(crisp.JetsonOrin(), j.mix, j.policy, w.opts, crisp.WithWorkers(1), crisp.WithNoSkip())
		if !r.opErr(err, "oracle RunMix "+j.id()) {
			continue
		}
		j.digest, _ = res.StatsDigest()
	}
	for _, m := range w.runs {
		kind := "straight"
		if m.resumed {
			kind = "resumed"
		}
		r.op(m.digest == m.job.digest, "%s %s run: stats digest %016x differs from the oracle's %016x", m.job.id(), kind, m.digest, m.job.digest)
		if !r.op(m.qos != nil, "%s %s run carries no QoS report", m.job.id(), kind) {
			continue
		}
		for ti, t := range m.qos.Tenants {
			want := 0
			if m.job.mix.Tenants[ti].Deadline > 0 {
				want = t.Instances
			}
			r.op(t.DeadlinesMet+t.DeadlinesMissed == want, "%s %s run, tenant %s: met %d + missed %d != %d instances with a deadline",
				m.job.id(), kind, t.Name, t.DeadlinesMet, t.DeadlinesMissed, want)
		}
	}
	return nil
}

// layers drives what the mix path adds to a pair job: lowering a mix
// whose traces are already built, adding IT's hundreds of streams, and
// the snapshot codec and digests on a real mid-run state.
func (w *mixWorkload) layers(r *run, tr *tracer, root int) error {
	reps := 5
	if r.opt.smoke {
		reps = 1
	}
	j := w.jobs[len(w.jobs)/2] // n-way-fair: four tenants, two snapshots; the smoke job when alone

	id := tr.begin("driver.scenario", j.id(), root, 0)
	frames := make(map[string]*render.Result)
	works := make(map[string]*compute.Workload)
	opts := w.opts
	for _, t := range j.mix.Tenants {
		var err error
		if t.Scene != "" {
			frames[t.Scene], err = core.RenderScene(t.Scene, opts)
		} else {
			works[t.Compute], err = compute.ByName(t.Compute, core.ComputeStreamBase)
		}
		if err != nil {
			return err
		}
	}
	env := core.MixEnv{
		Render:  func(name string, _ render.Options) (*render.Result, error) { return frames[name], nil },
		Compute: func(name string) (*compute.Workload, error) { return works[name], nil },
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		_, err := core.BuildMixJobEnv(config.JetsonOrin(), j.mix, j.policy, opts, env)
		r.sample("scenario.build_mix_ms", time.Since(t0).Seconds()*1000)
		r.opErr(err, "BuildMixJobEnv "+j.id())
	}
	tr.end(id)

	id = tr.begin("driver.gpu", "IT", root, 0)
	it, err := core.RenderScene("IT", opts)
	if err != nil {
		return err
	}
	for i := 0; i < reps; i++ {
		g, err := gpu.New(config.JetsonOrin())
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, st := range it.Streams {
			if err := g.AddStream(gpu.StreamDef{ID: st.Stream, Label: st.Label, Kernels: st.Kernels}); err != nil {
				return err
			}
		}
		r.sample("gpu.add_stream_ms", time.Since(t0).Seconds()*1000)
	}
	tr.end(id)

	id = tr.begin("driver.snapshot", j.id(), root, 0)
	defer tr.end(id)
	dir := w.newDir()
	if _, _, err := runMix(nil, j, w.opts, dir, -1); err != nil {
		return err
	}
	paths, _ := checkpoints(dir)
	if !r.op(len(paths) > 0, "%s wrote no snapshot for the codec driver", j.id()) {
		return nil
	}
	path := paths[len(paths)/2]
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		env, err := snapshot.LoadFile(path)
		r.sample("snapshot.decode_ms", time.Since(t0).Seconds()*1000)
		if !r.opErr(err, "snapshot.LoadFile") {
			continue
		}
		var buf bytes.Buffer
		t0 = time.Now()
		err = snapshot.Encode(&buf, env)
		r.sample("snapshot.encode_ms", time.Since(t0).Seconds()*1000)
		r.opErr(err, "snapshot.Encode")
		t0 = time.Now()
		_, err = snapshot.ArchDigest(&env.State.Arch)
		r.sample("snapshot.arch_digest_ms", time.Since(t0).Seconds()*1000)
		r.opErr(err, "snapshot.ArchDigest")
	}
	return nil
}
