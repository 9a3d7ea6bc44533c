// Package core is CRISP's concurrent simulation platform: it pairs a
// functionally rendered frame (graphics task) with a compute workload
// (CUDA-analog task), places both on one cycle-level GPU under a selected
// partitioning policy, runs the simulation, and reports per-stream,
// per-task, and whole-run statistics — the paper's central capability.
package core

import (
	"context"
	"fmt"
	"time"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/gpu"
	"crisp/internal/obs"
	"crisp/internal/partition"
	"crisp/internal/render"
	"crisp/internal/scenario"
	"crisp/internal/scene"
	"crisp/internal/sm"
	"crisp/internal/snapshot"
	"crisp/internal/stats"
	"crisp/internal/trace"
)

// ComputeStreamBase numbers compute streams; graphics streams count up
// from zero, so any stream at or above the base belongs to the compute
// task.
const ComputeStreamBase = 1 << 20

// defaultGraphicsWindow is how many rendering batch streams may be in
// flight at once — the capacity of the ITR binning buffer. Batches are
// small (≤96 vertices), so hardware keeps many in flight to fill the SMs.
const defaultGraphicsWindow = 32

// TaskOf maps a stream id to its task: graphics streams (below the base)
// are task 0; the i-th compute workload's stream, (i+1)*ComputeStreamBase,
// is task i+1.
func TaskOf(stream int) int {
	if stream < ComputeStreamBase {
		return partition.TaskGraphics
	}
	return stream / ComputeStreamBase
}

// PolicyKind names a partitioning configuration.
type PolicyKind string

// The supported policies. Serial is stock Accel-Sim behavior: CTAs drain
// from one kernel exhaustively before the next, so big kernels never
// co-run.
const (
	PolicySerial       PolicyKind = "serial"
	PolicyMPS          PolicyKind = "MPS"
	PolicyMiG          PolicyKind = "MiG"
	PolicyEven         PolicyKind = "EVEN"
	PolicyWarpedSlicer PolicyKind = "WarpedSlicer"
	PolicyTAP          PolicyKind = "TAP"
	// PolicyPriority is QoS-aware intra-SM sharing: an even split where
	// the rendering task's CTAs claim freed resources first (the
	// latency/QoS dimension of the paper's future work).
	PolicyPriority PolicyKind = "Priority"
)

// PolicyKinds lists all supported policies.
func PolicyKinds() []PolicyKind {
	return []PolicyKind{PolicySerial, PolicyMPS, PolicyMiG, PolicyEven, PolicyWarpedSlicer, PolicyTAP, PolicyPriority}
}

// KnownPolicy reports whether k names a supported partitioning policy
// ("" is accepted as an alias for serial, matching BuildPolicy).
func KnownPolicy(k PolicyKind) bool {
	if k == "" {
		return true
	}
	for _, p := range PolicyKinds() {
		if p == k {
			return true
		}
	}
	return false
}

// Job is one simulation: optional graphics frame traces, optional compute
// workload, a GPU configuration, and a policy.
type Job struct {
	GPU      config.GPU
	Graphics *render.Result
	Compute  *compute.Workload
	// Tenants, when non-empty, replaces Graphics/Compute with an
	// N-tenant scenario mix: tenant i is task i and owns stream range
	// [i*ComputeStreamBase, (i+1)*ComputeStreamBase). It is how a job
	// runs more than two tasks — the more-than-two-workloads extension the
	// paper's limitation section describes. Build with BuildMixJobEnv.
	Tenants []Tenant
	Policy  PolicyKind
	// GraphicsWindow bounds concurrently active rendering batch streams
	// (the binning buffer); 0 means the default of 4.
	GraphicsWindow int
	// GraphicsFrames replays the graphics trace this many times (0/1 =
	// one frame). Later frames run against warm caches, and because
	// batches are streams bounded by GraphicsWindow, frame N+1's early
	// batches pipeline behind frame N's tail — the steady-state frame
	// pipelining of real renderers.
	GraphicsFrames int
	// LRRScheduler switches the warp schedulers from greedy-then-oldest
	// to loose round-robin (the scheduling ablation).
	LRRScheduler bool
	// Tracer, when non-nil, receives cycle-stamped structured events
	// (kernel/CTA lifecycle, batch boundaries, repartition decisions,
	// memory contention markers). Nil disables tracing at the cost of one
	// branch per emission site.
	Tracer obs.Tracer
	// MetricsInterval, when > 0, samples per-task interval metrics (IPC,
	// occupancy, hit rates, DRAM bandwidth) every so many cycles into
	// Result.Metrics; its per-task resident warps are the occupancy
	// timeline (paper Fig. 13).
	MetricsInterval int64
	// MetricsSink, when non-nil, additionally receives each interval
	// metrics sample as it is taken (live progress for long runs, e.g. the
	// batch service's job-status endpoint). It runs on the simulation
	// goroutine; implementations must synchronize their own publication.
	// Requires MetricsInterval > 0.
	MetricsSink func(obs.Sample)
	// WatchdogWindow configures the forward-progress watchdog: the run
	// fails with a watchdog SimError when no instruction issues for this
	// many cycles while warps are resident. 0 = the GPU default window;
	// negative disables the watchdog.
	WatchdogWindow int64
	// CycleBudget, when > 0, is a hard bound on simulated cycles; crossing
	// it fails the run with a budget SimError carrying a crash dump.
	CycleBudget int64
	// Deprecated: Workers selected the removed two-phase parallel stepper.
	// Nothing reads it; it stays only so the frozen bench/ compiles, and goes
	// with the [benchmark] PR that drops the jN sub-pass, sim_kips_jn and
	// engine.jn_over_j1.
	Workers int
	// NoSkip disables event-driven core sleeping, stepping every busy SM
	// at every visited cycle (the legacy oracle path). It is a host knob:
	// results, digests, and checkpoints are bit-identical with skipping on
	// or off, so it exists to diff the fast path against.
	NoSkip bool
	// Frontend, when non-nil, is where RunSpec (and so RunPair, RunMix and
	// Resume) looks up and keeps the frames and compute workloads it
	// builds. Run itself never consults it: a Job's Graphics/Compute/
	// Tenants are already built.
	Frontend *Frontend
	// spec is the by-name description jobFromSpec built the job from (zero
	// for a job assembled by hand). Checkpoints carry it, which is what
	// makes them resumable in a fresh process.
	spec snapshot.Spec

	// CheckpointDir, when non-empty, enables periodic checkpointing into
	// that directory every CheckpointEvery cycles (0 selects
	// DefaultCheckpointEvery), keeping the newest CheckpointRetain files
	// (0 selects snapshot.DefaultRetain). On watchdog/budget/deadlock/
	// panic failures a final snapshot is additionally written next to the
	// crash dump as final.crispsnap, exempt from retention.
	CheckpointDir    string
	CheckpointEvery  int64
	CheckpointRetain int
	// DigestEvery, when > 0, arms the determinism auditor: the
	// architectural state is hashed every so many cycles into
	// Result.Digests (plus one final digest at completion).
	DigestEvery int64
	// Restore, when non-nil, loads this snapshot into the freshly built
	// GPU before running. It must be a snapshot of this job — the same
	// workloads, config, policy and run shape, compared by JobDigest — or
	// the run fails with a snapshot SimError.
	Restore *snapshot.Envelope
}

// DefaultCheckpointEvery is the checkpoint cadence used when CheckpointDir
// is set but CheckpointEvery is zero. At 100k cycles the save overhead is
// under the hardening layer's 2% envelope (BenchmarkCheckpointOverhead).
const DefaultCheckpointEvery = 100_000

// Result is a completed simulation.
type Result struct {
	Policy      PolicyKind
	Cycles      int64
	FrameTimeMS float64
	PerStream   []*stats.Stream
	PerTask     map[int]*stats.Stream
	// L2ByClass counts valid L2 lines by data class at end of run
	// (paper Figs. 11/15).
	L2ByClass map[trace.MemClass]int
	// L2ByTask counts valid L2 lines by owning task.
	L2ByTask map[int]int
	L2Lines  int
	// Metrics is the interval time series when Job.MetricsInterval > 0.
	Metrics *obs.IntervalSeries
	// SchedSlots and EmptySlots are whole-GPU scheduler slot counts: every
	// slot is either an issue (per-stream WarpInsts), an attributed stall
	// (per-stream Stalls), or an empty slot.
	SchedSlots int64
	EmptySlots int64
	// StepsExecuted/StepsSkipped count engine core-step visits: executed
	// steps ran the core's pipeline model, skipped ones were covered by
	// event-driven sleeping (bulk-accounted at wake; zero under NoSkip).
	// BulkStallSlots is the subset of stall slots credited in bulk.
	// SleepHist buckets skipped-run lengths by floor(log2(n)).
	StepsExecuted  int64
	StepsSkipped   int64
	BulkStallSlots int64
	SleepHist      []int64
	// DispatchSweeps/DispatchSkipped count run-loop iterations by what the
	// global CTA scheduler did in them: swept the SMs for placeable CTAs,
	// or skipped the sweep because nothing placement reads had moved since
	// the last one (zero under NoSkip). Like the step counters they
	// describe the host's work, not the simulation: never part of a
	// snapshot or digest, and counted from zero again after a resume.
	DispatchSweeps  int64
	DispatchSkipped int64
	// StallReplays counts the scheduler issue slots, inside executed
	// steps, that a stalled scheduler answered from its recorded stall
	// instead of scanning its warps (zero under NoSkip). Host work again.
	StallReplays int64
	// Kernels lists every completed kernel launch in completion order.
	Kernels []gpu.KernelStat
	// WS exposes warped-slicer state when that policy ran.
	WS *partition.WarpedSlicerN
	// QoS is the per-tenant deadline/turnaround accounting for scenario
	// mixes (nil for plain pair jobs).
	QoS *scenario.QoSReport
	// Digests is the determinism-auditor series when Job.DigestEvery > 0.
	Digests []snapshot.DigestEntry
	// Resumed/ResumedFrom report whether (and from which cycle) the run
	// was restored from a snapshot.
	Resumed     bool
	ResumedFrom int64
	// CheckpointSaves counts periodic snapshots written;
	// CheckpointSaveTime is the wall-clock time they cost.
	CheckpointSaves    int
	CheckpointSaveTime time.Duration
}

// Run executes the job. It is RunContext with a background context.
func (j *Job) Run() (*Result, error) { return j.RunContext(context.Background()) }

// RunContext executes the job, checking ctx periodically: cancellation
// terminates the simulation with a canceled SimError carrying a crash
// dump of where the run stood.
func (j *Job) RunContext(ctx context.Context) (*Result, error) {
	if j.Graphics == nil && j.Compute == nil && len(j.Tenants) == 0 {
		return nil, fmt.Errorf("core: job has neither graphics nor compute work")
	}
	if err := sameJob(j.buildSpec(), j.Restore); err != nil {
		return nil, err
	}
	g, err := gpu.New(j.GPU)
	if err != nil {
		return nil, err
	}
	g.NoSkip = j.NoSkip

	var totalTasks int
	if len(j.Tenants) > 0 {
		if j.Graphics != nil || j.Compute != nil {
			return nil, fmt.Errorf("core: a job carries either a tenant mix or pair workloads, not both")
		}
		totalTasks, err = j.addTenantStreams(g)
		if err != nil {
			return nil, err
		}
	} else if totalTasks, err = j.addPairStreams(g); err != nil {
		return nil, err
	}

	res := &Result{Policy: j.Policy}
	pol, err := BuildPolicy(g, j.Policy, totalTasks)
	if err != nil {
		return nil, err
	}
	if pol != nil {
		g.SetPolicy(pol)
	}
	res.WS, _ = pol.(*partition.WarpedSlicerN)
	return j.runOn(ctx, g, res)
}

// addPairStreams lowers the classic pair job onto addTenant, the routine
// mixes are built with: the frame replay is task 0 with one immediate
// arrival per frame, the compute workload task 1 with one — so a
// compute-only job leaves task 0 empty. What keeps a pair a pair is what it
// does not install: no QoS table, no declared priorities. It returns the
// task count.
func (j *Job) addPairStreams(g *gpu.GPU) (int, error) {
	if j.Graphics != nil {
		frames := Tenant{Name: "graphics", Graphics: j.Graphics, Arrivals: make([]int64, max(j.GraphicsFrames, 1))}
		if _, err := j.addTenant(g, partition.TaskGraphics, frames); err != nil {
			return 0, err
		}
	}
	if j.Compute != nil {
		if _, err := j.addTenant(g, partition.TaskCompute, Tenant{Name: j.Compute.Name, Compute: j.Compute}); err != nil {
			return 0, err
		}
	}
	return 2, nil
}

// runOn finishes RunContext after streams and policy are installed:
// observability wiring, checkpointing, optional restore, the run itself,
// and result folding.
func (j *Job) runOn(ctx context.Context, g *gpu.GPU, res *Result) (*Result, error) {
	if j.LRRScheduler {
		g.SetWarpScheduler(sm.SchedLRR)
	}
	if j.Tracer != nil {
		g.SetTracer(j.Tracer)
	}
	if j.MetricsInterval > 0 {
		g.Metrics = &obs.IntervalSeries{Interval: j.MetricsInterval, OnSample: j.MetricsSink}
	}
	g.WatchdogWindow = j.WatchdogWindow
	g.CycleBudget = j.CycleBudget
	g.DigestEvery = j.DigestEvery

	var store *snapshot.Store
	if j.CheckpointDir != "" {
		store = &snapshot.Store{Dir: j.CheckpointDir, Retain: j.CheckpointRetain}
		spec := j.buildSpec()
		g.CheckpointEvery = j.CheckpointEvery
		if g.CheckpointEvery <= 0 {
			g.CheckpointEvery = DefaultCheckpointEvery
		}
		g.CheckpointSink = func() error {
			t0 := time.Now()
			st, err := g.CaptureState()
			if err != nil {
				return err
			}
			if _, err := store.Save(&snapshot.Envelope{Version: snapshot.FormatVersion, Spec: spec, State: *st}); err != nil {
				return err
			}
			res.CheckpointSaves++
			res.CheckpointSaveTime += time.Since(t0)
			return nil
		}
		// A panic escaping the simulator still leaves a resumable final
		// snapshot next to the crash dump, like any other failure.
		defer func() {
			if r := recover(); r != nil {
				j.saveFinal(g, store)
				panic(r)
			}
		}()
	}

	if j.Restore != nil {
		if err := g.RestoreState(&j.Restore.State); err != nil {
			return nil, err
		}
		res.Resumed = true
		res.ResumedFrom = j.Restore.State.Arch.Cycle
	}

	cycles, err := g.RunContext(ctx)
	if err != nil {
		if store != nil {
			// The simulator state is intact after a structured failure:
			// persist it so the run can resume past a budget kill or be
			// replayed up to a watchdog trip. Best-effort — the primary
			// error always wins.
			j.saveFinal(g, store)
		}
		return nil, err
	}
	res.Digests = g.Digests()
	res.Cycles = cycles
	res.FrameTimeMS = j.GPU.FrameTimeMS(cycles)
	res.PerStream = g.StreamStats()
	res.PerTask = g.TaskStats()
	res.Metrics = g.Metrics
	res.SchedSlots = g.SchedSlots()
	res.EmptySlots = g.EmptySlots()
	res.StepsExecuted, res.StepsSkipped, res.BulkStallSlots = g.SkipCounters()
	res.SleepHist = g.SleepHist()
	res.DispatchSweeps, res.DispatchSkipped = g.DispatchCounters()
	res.StallReplays = g.StallReplays()
	res.Kernels = g.KernelStats()

	comp := g.Mem().L2Composition()
	res.L2ByClass = comp.ByClass
	res.L2Lines = comp.Valid
	res.L2ByTask = make(map[int]int)
	for stream, n := range comp.ByStream {
		res.L2ByTask[TaskOf(stream)] += n
	}
	if len(j.Tenants) > 0 {
		res.QoS = scenario.Account(g.QoSTenants(), g.QoSDone(), cycles)
	}
	return res, nil
}

// renumber copies kernels onto a new stream id (kernels are value-copied;
// the CTA/warp traces are shared).
func renumber(kernels []*trace.Kernel, id int) []*trace.Kernel {
	out := make([]*trace.Kernel, len(kernels))
	for i, k := range kernels {
		if k.Stream == id {
			out[i] = k
			continue
		}
		kk := *k
		kk.Stream = id
		out[i] = &kk
	}
	return out
}

// BuildPolicy constructs the named partitioning policy for a GPU hosting
// totalTasks tasks (nil for PolicySerial). The policies are one family,
// each written once and taking the task count, with one decision rule per
// policy at every n — at two tasks TAP's and WarpedSlicer's rules reduce to
// the ones the paper's figures were reproduced with (package partition
// says how). The count is clamped to at least two: a graphics-only or compute-only job
// keeps the pair's two-slot partition — half the SMs under MPS, a half
// envelope under EVEN.
func BuildPolicy(g *gpu.GPU, kind PolicyKind, totalTasks int) (gpu.Policy, error) {
	tasks := max(totalTasks, 2)
	switch kind {
	case PolicySerial, "":
		return nil, nil
	case PolicyMPS:
		return partition.NewSMGroups(g.Config().NumSMs, tasks)
	case PolicyMiG:
		return partition.NewMiGN(g, TaskOf, tasks)
	case PolicyEven:
		return partition.NewFGN(g, tasks)
	case PolicyWarpedSlicer:
		return partition.NewWarpedSlicerN(g, tasks)
	case PolicyTAP:
		return partition.NewTAPN(g, TaskOf, tasks)
	case PolicyPriority:
		return partition.NewPriorityEvenN(g, tasks)
	}
	return nil, fmt.Errorf("core: unknown policy %q", kind)
}

// RenderScene renders a named scene workload with the given options,
// producing the graphics traces a Job consumes. It always renders: the
// result is the caller's to keep or modify (Frontend.Frame is the shared,
// memoized counterpart).
func RenderScene(name string, opts render.Options) (*render.Result, error) {
	f, err := scene.ByName(name)
	if err != nil {
		return nil, err
	}
	// Nothing here holds f during the render, so each material's textures
	// are freed once its last draw is shaded.
	return render.RenderFrame(f, opts)
}

// RunOption tweaks a Job built by RunSpec (observability knobs that do
// not change simulated behavior).
type RunOption func(*Job)

// WithTracer routes the run's structured trace events to t.
func WithTracer(t obs.Tracer) RunOption { return func(j *Job) { j.Tracer = t } }

// WithMetrics samples the interval metrics time series every interval
// cycles into Result.Metrics.
func WithMetrics(interval int64) RunOption { return func(j *Job) { j.MetricsInterval = interval } }

// WithMetricsSink streams each interval metrics sample to fn as it is
// taken (requires WithMetrics to set the cadence). fn runs on the
// simulation goroutine and must be cheap and internally synchronized.
func WithMetricsSink(fn func(obs.Sample)) RunOption { return func(j *Job) { j.MetricsSink = fn } }

// WithWatchdog sets the forward-progress watchdog window in cycles
// (0 = default window, negative disables).
func WithWatchdog(window int64) RunOption { return func(j *Job) { j.WatchdogWindow = window } }

// WithCycleBudget caps the run at n simulated cycles (0 = unlimited).
func WithCycleBudget(n int64) RunOption { return func(j *Job) { j.CycleBudget = n } }

// Deprecated: WithWorkers selected the removed two-phase parallel stepper
// and now does nothing; it stays only so the frozen bench/ compiles, and
// goes with the [benchmark] PR that drops the jN sub-pass.
func WithWorkers(int) RunOption { return func(*Job) {} }

// WithNoSkip disables event-driven core sleeping (the cycle-by-cycle
// oracle path); results are bit-identical either way.
func WithNoSkip() RunOption { return func(j *Job) { j.NoSkip = true } }

// WithFrontend builds the run's named scene and compute workloads through
// f, so runs sharing f render each (scene, options) and build each
// workload once. Results are bit-identical with or without it.
func WithFrontend(f *Frontend) RunOption { return func(j *Job) { j.Frontend = f } }

// frontendOf extracts the Frontend a run was given, for entry points that
// must build workloads before they have a Job to apply options to.
func frontendOf(runOpts []RunOption) *Frontend {
	var probe Job
	for _, o := range runOpts {
		o(&probe)
	}
	return probe.Frontend
}

// RunPair is the one-call convenience: render sceneName (may be ""),
// build computeName (may be ""), and run them under policy on cfg.
func RunPair(cfg config.GPU, sceneName, computeName string, policy PolicyKind, opts render.Options, runOpts ...RunOption) (*Result, error) {
	return RunPairContext(context.Background(), cfg, sceneName, computeName, policy, opts, runOpts...)
}

// RunPairContext is RunPair with cooperative cancellation: when ctx is
// canceled or times out, the simulation stops and returns a canceled
// SimError with a crash dump of where the run stood.
func RunPairContext(ctx context.Context, cfg config.GPU, sceneName, computeName string, policy PolicyKind, opts render.Options, runOpts ...RunOption) (*Result, error) {
	return RunSpec(ctx, SpecForPair(cfg, sceneName, computeName, policy, opts), nil, runOpts...)
}
