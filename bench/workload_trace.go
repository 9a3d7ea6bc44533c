package main

import (
	"bytes"
	"fmt"

	"crisp"
	"crisp/internal/trace"
)

// traceCollect is the front-end workload: every scene at two
// resolutions and every compute workload, and in full passes a save/load
// round trip of every kernel. The timing model does nothing here.
type traceCollect struct {
	jobs []frontJob
}

type frontJob struct {
	scene   string // "" for a compute job
	compute string
	w, h    int
}

func (j frontJob) id() string {
	if j.scene != "" {
		return fmt.Sprintf("%s@%dx%d", j.scene, j.w, j.h)
	}
	return j.compute
}

func (w *traceCollect) setup(r *run) error {
	w.jobs = w.jobs[:0]
	if r.opt.smoke {
		w.jobs = append(w.jobs, frontJob{scene: "PL", w: 320, h: 180}, frontJob{compute: "HOLO"})
		return nil
	}
	for _, res := range [][2]int{{320, 180}, {640, 360}} {
		for _, s := range []string{"SPL", "SPH", "PT", "IT", "PL", "MT"} {
			w.jobs = append(w.jobs, frontJob{scene: s, w: res[0], h: res[1]})
		}
	}
	for _, c := range []string{"VIO", "HOLO", "NN", "UPSCALE", "ATW"} {
		w.jobs = append(w.jobs, frontJob{compute: c})
	}
	return nil
}

func (w *traceCollect) teardown() {}

// generate runs one front end inside its span and returns the kernels.
func generate(tr *tracer, j frontJob, parent, lane int) (kernels []*trace.Kernel, seconds float64, err error) {
	if j.scene != "" {
		opts := crisp.DefaultRenderOptions()
		opts.W, opts.H = j.w, j.h
		d := tr.timed("render.frame", j.id(), parent, lane, func(int) {
			var res *crisp.FrameResult
			if res, err = crisp.RenderScene(j.scene, opts); err == nil {
				kernels = frameKernels(res)
			}
		})
		return kernels, d.Seconds(), err
	}
	d := tr.timed("compute.build", j.id(), parent, lane, func(int) {
		var cw *crisp.ComputeWorkload
		if cw, err = crisp.BuildCompute(j.compute); err == nil {
			kernels = cw.Kernels
		}
	})
	return kernels, d.Seconds(), err
}

// frameKernels flattens a frame's batch streams into its kernel list.
func frameKernels(res *crisp.FrameResult) []*trace.Kernel {
	var ks []*trace.Kernel
	for _, st := range res.Streams {
		ks = append(ks, st.Kernels...)
	}
	return ks
}

func kiloInsts(kernels []*trace.Kernel) float64 {
	n := 0
	for _, k := range kernels {
		n += k.InstCount()
	}
	return float64(n) / 1000
}

func (w *traceCollect) pass(r *run, pc *passCtx) (passResult, error) {
	res := newPassResult()
	var renderS, computeS, saveS, loadS, renderK, computeK, bytesTotal float64
	for _, ji := range pc.rng.perm(len(w.jobs)) {
		j := w.jobs[ji]
		res.order = append(res.order, j.id())
		job := pc.tr.begin("job", j.id(), pc.root, 0)
		kernels, genS, err := generate(pc.tr, j, job, 0)
		if !r.opErr(err, "front end "+j.id()) {
			pc.tr.end(job)
			continue
		}
		k := kiloInsts(kernels)
		res.primary[j.id()] = genS
		if j.scene != "" {
			renderS, renderK = renderS+genS, renderK+k
		} else {
			computeS, computeK = computeS+genS, computeK+k
		}

		res.kinsts += k
		if !pc.full {
			pc.tr.end(job)
			r.opErr(validate(kernels), "kernels of "+j.id())
			continue
		}

		var buf bytes.Buffer
		d := pc.tr.timed("trace.save", j.id(), job, 0, func(int) { err = trace.Save(&buf, kernels) }).Seconds()
		saveS, res.secondary[j.id()+" save"] = saveS+d, d
		if !r.opErr(err, "trace.Save "+j.id()) {
			pc.tr.end(job)
			continue
		}
		bytesTotal += float64(buf.Len())
		var loaded []*trace.Kernel
		d = pc.tr.timed("trace.load", j.id(), job, 0, func(int) { loaded, err = trace.Load(&buf) }).Seconds()
		loadS, res.secondary[j.id()+" load"] = loadS+d, d
		pc.tr.end(job)
		if !r.opErr(err, "trace.Load "+j.id()) {
			continue
		}
		r.opErr(roundTrips(kernels, loaded), "trace round trip "+j.id())
	}
	res.layer.put("render.busy_s", renderS)
	res.layer.put("render.kinsts", renderK)
	res.layer.put("render.kinsts_per_s", renderK/renderS)
	res.layer.put("compute.busy_s", computeS)
	res.layer.put("compute.kinsts", computeK)
	if pc.full {
		res.layer.put("trace.bytes", bytesTotal)
		res.layer.put("trace.save_mb_per_s", bytesTotal/(1<<20)/saveS)
		res.layer.put("trace.load_mb_per_s", bytesTotal/(1<<20)/loadS)
	}
	return res, nil
}

func validate(kernels []*trace.Kernel) error {
	for i, k := range kernels {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("kernel %d: %w", i, err)
		}
	}
	return nil
}

// roundTrips checks that loading what was saved gives back valid kernels
// with the same instruction counts.
func roundTrips(saved, loaded []*trace.Kernel) error {
	if len(saved) != len(loaded) {
		return fmt.Errorf("saved %d kernels, loaded %d", len(saved), len(loaded))
	}
	if err := validate(loaded); err != nil {
		return err
	}
	for i, k := range loaded {
		if k.InstCount() != saved[i].InstCount() || k.Name != saved[i].Name {
			return fmt.Errorf("kernel %d: saved %s with %d insts, loaded %s with %d",
				i, saved[i].Name, saved[i].InstCount(), k.Name, k.InstCount())
		}
	}
	return nil
}

func (w *traceCollect) verify(r *run) error { return nil }

// layers holds the workload-identity assert: nothing of the timing model
// may run in a front-end pass.
func (w *traceCollect) layers(r *run, tr *tracer, root int) error {
	for _, name := range []string{"core.run", "core.resume", "snapshot.decode", "service.submit", "service.wait"} {
		r.op(tr.count(name) == 0, "trace-collect recorded %d %s spans; the workload must not reach the timing model", tr.count(name), name)
	}
	return nil
}
