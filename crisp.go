// Package crisp is a cycle-level GPU simulation platform for studying the
// CONCURRENT execution of raster-graphics rendering and general-purpose
// compute kernels, reproducing "CRISP: Concurrent Rendering and Compute
// Simulation Platform for GPUs" (Pan & Rogers, IISWC 2024).
//
// The platform has three layers:
//
//   - A functional graphics front end (batch-based vertex shading,
//     immediate tiled rasterization with early-Z and pre-calculated LoD,
//     mipmapped texturing, and a unified shader model) that renders real
//     frames and records SASS-like execution traces.
//   - CUDA-analog compute workload generators for the paper's XR system
//     tasks: visual-inertial odometry (VIO), hologram generation (HOLO),
//     and the RITnet eye-segmentation principal kernels (NN).
//   - A trace-driven, cycle-level GPU timing model (SMs with GTO warp
//     scheduling, scoreboards and per-scheduler pipelines; unified L1;
//     banked L2; bandwidth-metered DRAM) with pluggable GPU partitioning:
//     MPS, MiG, fine-grained intra-SM sharing, warped-slicer dynamic
//     partitioning, and TAP utility-based L2 set partitioning.
//
// Quick start:
//
//	res, err := crisp.RunPair(crisp.JetsonOrin(), "SPH", "VIO",
//	    crisp.PolicyEven, crisp.DefaultRenderOptions())
//	fmt.Println(res.Cycles, res.FrameTimeMS)
package crisp

import (
	"context"
	"io"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/obs"
	"crisp/internal/render"
	"crisp/internal/robust"
	"crisp/internal/scenario"
	"crisp/internal/scene"
	"crisp/internal/snapshot"
)

// GPUConfig describes one simulated GPU (see JetsonOrin and RTX3070).
type GPUConfig = config.GPU

// JetsonOrin returns the embedded-GPU configuration (paper Table II).
func JetsonOrin() GPUConfig { return config.JetsonOrin() }

// RTX3070 returns the discrete-GPU configuration (paper Table II).
func RTX3070() GPUConfig { return config.RTX3070() }

// GPUByName resolves "JetsonOrin" or "RTX3070".
func GPUByName(name string) (GPUConfig, error) { return config.ByName(name) }

// GPUFromFile loads a custom JSON GPU configuration (any subset of fields
// overriding a named base config) — the artifact's experiment-
// customization workflow.
func GPUFromFile(path string) (GPUConfig, error) { return config.LoadFile(path) }

// ConfigDigest returns the canonical content hash of a GPU configuration
// (16 hex digits), provenance-independent: a config loaded from a file
// digests identically to the structurally equal preset. Stored results
// carry it as their config_digest.
func ConfigDigest(cfg GPUConfig) string { return snapshot.ConfigDigest(cfg) }

// RenderOptions configure the graphics pipeline (resolution, batch size,
// LoD, filtering).
type RenderOptions = render.Options

// DefaultRenderOptions is a 2K-class render with LoD enabled.
func DefaultRenderOptions() RenderOptions { return render.DefaultOptions() }

// FrameResult is a functionally rendered frame plus its recorded traces.
type FrameResult = render.Result

// PolicyKind selects a GPU partitioning policy.
type PolicyKind = core.PolicyKind

// The supported partitioning policies.
const (
	PolicySerial       = core.PolicySerial
	PolicyMPS          = core.PolicyMPS
	PolicyMiG          = core.PolicyMiG
	PolicyEven         = core.PolicyEven
	PolicyWarpedSlicer = core.PolicyWarpedSlicer
	PolicyTAP          = core.PolicyTAP
	PolicyPriority     = core.PolicyPriority
)

// Policies lists every supported policy.
func Policies() []PolicyKind { return core.PolicyKinds() }

// Job is one configured simulation (graphics and/or compute under a
// policy on a GPU).
type Job = core.Job

// Result is a completed simulation with per-stream and per-task
// statistics and the L2 composition snapshot.
type Result = core.Result

// ComputeWorkload is an in-order stream of compute kernels.
type ComputeWorkload = compute.Workload

// SceneNames lists the built-in rendering workloads (paper abbreviations:
// SPL, SPH, PT, IT, PL, MT).
func SceneNames() []string { return scene.Names() }

// ComputeNames lists the built-in compute workloads (VIO, HOLO, NN).
func ComputeNames() []string { return compute.Names() }

// RenderScene renders a built-in scene, producing a frame and its traces.
// Panics inside the renderer are recovered and returned as errors.
func RenderScene(name string, opts RenderOptions) (res *FrameResult, err error) {
	defer robust.RecoverAsError(&err, "crisp.RenderScene")
	return core.RenderScene(name, opts)
}

// BuildCompute builds a built-in compute workload. Panics inside the
// generator are recovered and returned as errors.
func BuildCompute(name string) (w *ComputeWorkload, err error) {
	defer robust.RecoverAsError(&err, "crisp.BuildCompute")
	return compute.ByName(name, core.ComputeStreamBase)
}

// Tracer receives cycle-stamped structured events from the timing model.
type Tracer = obs.Tracer

// TraceEvent is one cycle-stamped simulation event.
type TraceEvent = obs.Event

// TraceRecorder is a Tracer that appends every event to memory.
type TraceRecorder = obs.Recorder

// NewTraceRecorder returns an empty in-memory trace sink.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// IntervalSeries is a per-task interval metrics time series (IPC,
// occupancy, cache hit rates, DRAM bandwidth).
type IntervalSeries = obs.IntervalSeries

// StallCause classifies why a warp scheduler slot failed to issue.
type StallCause = obs.StallCause

// The stall causes, re-exported for result inspection.
const (
	StallScoreboard = obs.StallScoreboard
	StallMemPending = obs.StallMemPending
	StallPipeBusy   = obs.StallPipeBusy
	StallBarrier    = obs.StallBarrier
	StallEmptySlot  = obs.StallEmptySlot
)

// StallCauses lists the attributable stall causes.
func StallCauses() []StallCause { return obs.StallCauses() }

// RunOption tweaks a RunSpec simulation (observability knobs).
type RunOption = core.RunOption

// WithTracer routes the run's structured trace events to t.
func WithTracer(t Tracer) RunOption { return core.WithTracer(t) }

// WithMetrics samples the interval metrics time series every interval
// cycles into Result.Metrics.
func WithMetrics(interval int64) RunOption { return core.WithMetrics(interval) }

// MetricsSample is one interval's per-task metrics points.
type MetricsSample = obs.Sample

// WithMetricsSink streams each interval metrics sample to fn as it is
// taken (combine with WithMetrics, which sets the cadence) — live
// progress for long-running simulations. fn runs on the simulation
// goroutine and must be cheap and internally synchronized.
func WithMetricsSink(fn func(MetricsSample)) RunOption { return core.WithMetricsSink(fn) }

// WithWatchdog sets the forward-progress watchdog window in cycles: the
// run fails with a watchdog SimError when no instruction issues for that
// long while warps are resident (0 = default window, negative disables).
func WithWatchdog(window int64) RunOption { return core.WithWatchdog(window) }

// Deprecated: WithWorkers selected the removed two-phase parallel stepper
// and now does nothing; it stays only so the frozen bench/ compiles, and
// goes with the [benchmark] PR that drops the jN sub-pass.
func WithWorkers(int) RunOption { return func(*core.Job) {} }

// WithNoSkip disables event-driven core sleeping: every busy SM is
// stepped at every visited cycle (the legacy oracle the fast path is
// diffed against). Results are bit-identical with or without it.
func WithNoSkip() RunOption { return core.WithNoSkip() }

// Frontend is a bounded, content-addressed memo of front-end products:
// rendered frames keyed by (scene, RenderOptions) and compute workloads
// keyed by name. Runs that share one (crispd's jobs, sweep tasks and
// checkpoint retries do) build each trace once and replay it read-only.
type Frontend = core.Frontend

// NewFrontend returns an empty Frontend with the fixed 64 MiB budget.
func NewFrontend() *Frontend { return core.NewFrontend() }

// WithFrontend makes RunSpec (so RunPair, RunMix and Resume) build its
// named scene and compute workloads through f. Results are bit-identical
// with or without it. RenderScene and BuildCompute stay uncached: what
// they return belongs to the caller.
func WithFrontend(f *Frontend) RunOption { return core.WithFrontend(f) }

// WithCycleBudget caps the run at n simulated cycles; crossing the budget
// fails the run with a budget SimError carrying a crash dump (0 = off).
func WithCycleBudget(n int64) RunOption { return core.WithCycleBudget(n) }

// WriteChromeTrace renders recorded events (and an optional interval
// series) as a Chrome trace-event JSON file loadable in Perfetto or
// chrome://tracing. streamLabel may be nil.
func WriteChromeTrace(w io.Writer, events []TraceEvent, series *IntervalSeries, streamLabel func(stream int) string) error {
	return obs.WriteChromeTrace(w, events, series, streamLabel)
}

// RunPair renders sceneName (may be empty), builds computeName (may be
// empty), and simulates them concurrently under policy on cfg. Optional
// RunOptions attach observability sinks and hardening limits. Panics
// inside the pipeline are recovered and returned as errors.
func RunPair(cfg GPUConfig, sceneName, computeName string, policy PolicyKind, opts RenderOptions, runOpts ...RunOption) (res *Result, err error) {
	defer robust.RecoverAsError(&err, "crisp.RunPair")
	return core.RunPair(cfg, sceneName, computeName, policy, opts, runOpts...)
}

// RunPairContext is RunPair with cooperative cancellation: when ctx is
// canceled or its deadline passes, the simulation stops and returns a
// canceled SimError whose crash dump records where the run stood.
func RunPairContext(ctx context.Context, cfg GPUConfig, sceneName, computeName string, policy PolicyKind, opts RenderOptions, runOpts ...RunOption) (res *Result, err error) {
	defer robust.RecoverAsError(&err, "crisp.RunPairContext")
	return core.RunPairContext(ctx, cfg, sceneName, computeName, policy, opts, runOpts...)
}

// Spec is the one by-name description of a job: what SpecForPair and
// SpecForMix make, RunSpec runs, every snapshot carries, and — through its
// JobDigest — crispd's result cache is keyed by.
type Spec = snapshot.Spec

// SpecForPair describes RunPair's job without running it.
func SpecForPair(cfg GPUConfig, sceneName, computeName string, policy PolicyKind, opts RenderOptions) Spec {
	return core.SpecForPair(cfg, sceneName, computeName, policy, opts)
}

// SpecForMix describes RunMix's job — the mix validated and normalized —
// without running it.
func SpecForMix(cfg GPUConfig, mix MixSpec, policy PolicyKind, opts RenderOptions) (Spec, error) {
	return core.SpecForMix(cfg, mix, policy, opts)
}

// RunSpec builds the job spec describes and runs it: from cycle 0 when
// restore is nil, otherwise from restore, which must be a snapshot of the
// same job (an ErrSnapshot error if not). RunPair, RunMix and Resume are
// this call. Panics are recovered and returned as errors.
func RunSpec(ctx context.Context, spec Spec, restore *Snapshot, runOpts ...RunOption) (res *Result, err error) {
	defer robust.RecoverAsError(&err, "crisp.RunSpec")
	return core.RunSpec(ctx, spec, restore, runOpts...)
}

// MixSpec describes an N-tenant scenario: up to eight tenants (render
// frames and compute requests) with placement priorities, arrival
// schedules, and optional per-instance deadlines. See RunMix.
type MixSpec = scenario.MixSpec

// MixTenant is one tenant of a MixSpec: exactly one of Scene/Compute
// names its workload.
type MixTenant = scenario.Tenant

// Arrival schedules a tenant's instances: immediate, fixed-offset,
// periodic (a frame cadence), or seeded-bursty — always deterministic,
// never wall-clock.
type Arrival = scenario.Arrival

// The arrival schedule kinds.
const (
	ArriveImmediate = scenario.ArriveImmediate
	ArriveOffset    = scenario.ArriveOffset
	ArrivePeriodic  = scenario.ArrivePeriodic
	ArriveBursty    = scenario.ArriveBursty
)

// QoSReport is the per-tenant deadline/turnaround accounting of a mix run
// (Result.QoS).
type QoSReport = scenario.QoSReport

// TenantReport is one tenant's QoS accounting within a QoSReport.
type TenantReport = scenario.TenantReport

// MixPresetNames lists the named scenario presets (e.g.
// "vr-frame-deadline", "n-way-fair").
func MixPresetNames() []string { return scenario.PresetNames() }

// MixPreset returns a fresh, validated copy of a named preset mix.
func MixPreset(name string) (MixSpec, error) { return scenario.Preset(name) }

// RunMix simulates an N-tenant scenario under policy on cfg: every tenant
// becomes one GPU task with its own stream range, arrivals gate work
// admission at the scheduled cycles, and Result.QoS reports deadline and
// turnaround accounting per tenant. A two-tenant mix with immediate
// arrivals reproduces RunPair bit-identically. opts applies to every
// render tenant. Panics are recovered and returned as errors.
func RunMix(cfg GPUConfig, mix MixSpec, policy PolicyKind, opts RenderOptions, runOpts ...RunOption) (res *Result, err error) {
	defer robust.RecoverAsError(&err, "crisp.RunMix")
	return core.RunMix(cfg, mix, policy, opts, runOpts...)
}

// RunMixContext is RunMix with cooperative cancellation.
func RunMixContext(ctx context.Context, cfg GPUConfig, mix MixSpec, policy PolicyKind, opts RenderOptions, runOpts ...RunOption) (res *Result, err error) {
	defer robust.RecoverAsError(&err, "crisp.RunMixContext")
	return core.RunMixContext(ctx, cfg, mix, policy, opts, runOpts...)
}

// SimError is a structured simulation failure (validation, deadlock,
// watchdog, budget, cancellation, or recovered panic), usually carrying a
// CrashDump of simulator state at the failure cycle.
type SimError = robust.SimError

// CrashDump is the JSON-serializable simulator state snapshot attached to
// a SimError: per-SM occupancy, per-stream kernel progress, per-task
// stall attribution, and the partition policy's last decision.
type CrashDump = robust.CrashDump

// The SimError kinds.
const (
	ErrValidation = robust.KindValidation
	ErrDeadlock   = robust.KindDeadlock
	ErrWatchdog   = robust.KindWatchdog
	ErrBudget     = robust.KindBudget
	ErrCanceled   = robust.KindCanceled
	ErrPanic      = robust.KindPanic
	ErrSnapshot   = robust.KindSnapshot
)

// AsSimError extracts a *SimError from an error chain, reporting whether
// one was found.
func AsSimError(err error) (*SimError, bool) { return robust.AsSimError(err) }

// Snapshot is one versioned checkpoint file's content: the spec that
// rebuilds the job plus the complete captured simulator state.
type Snapshot = snapshot.Envelope

// DigestEntry is one sampled architectural-state digest from the
// determinism auditor (Result.Digests).
type DigestEntry = snapshot.DigestEntry

// FirstDivergence compares two digest series over their overlapping cycle
// range and returns the first cycle at which they disagree; ok=false means
// the series are consistent.
func FirstDivergence(a, b []DigestEntry) (cycle int64, ok bool) {
	return snapshot.FirstDivergence(a, b)
}

// WithCheckpointDir enables periodic checkpointing into dir: snapshots are
// written atomically (temp file + rename), old ones pruned beyond the
// retention bound, and a final snapshot is saved next to the crash dump
// when the run fails.
func WithCheckpointDir(dir string) RunOption { return core.WithCheckpointDir(dir) }

// WithCheckpointEvery sets the checkpoint cadence in cycles (0 = the
// default, 100k cycles).
func WithCheckpointEvery(n int64) RunOption { return core.WithCheckpointEvery(n) }

// WithCheckpointRetain bounds how many periodic checkpoints are kept
// (0 = default 3; the failure-time final snapshot is exempt).
func WithCheckpointRetain(n int) RunOption { return core.WithCheckpointRetain(n) }

// WithStateDigest arms the determinism auditor: every n cycles the run
// hashes its architectural state into Result.Digests, so two runs — or an
// interrupted-and-resumed run against an uninterrupted one — can be
// compared cycle-by-cycle with FirstDivergence.
func WithStateDigest(n int64) RunOption { return core.WithStateDigest(n) }

// LoadSnapshot reads a snapshot from a file path or checkpoint directory
// (a directory resolves to its latest snapshot). Corrupt, truncated, or
// version-mismatched files fail with an ErrSnapshot SimError, never a
// panic.
func LoadSnapshot(arg string) (env *Snapshot, err error) {
	defer robust.RecoverAsError(&err, "crisp.LoadSnapshot")
	return core.LoadSnapshot(arg)
}

// Resume rebuilds the job described by the snapshot's spec, restores the
// captured state, and runs to completion. runOpts apply on top — e.g. to
// keep checkpointing into the same directory. Panics are recovered and
// returned as errors.
func Resume(ctx context.Context, env *Snapshot, runOpts ...RunOption) (res *Result, err error) {
	defer robust.RecoverAsError(&err, "crisp.Resume")
	return core.ResumeContext(ctx, env, runOpts...)
}

// ResumeFile is Resume on a snapshot path or checkpoint directory.
func ResumeFile(ctx context.Context, arg string, runOpts ...RunOption) (res *Result, err error) {
	defer robust.RecoverAsError(&err, "crisp.ResumeFile")
	return core.ResumeFile(ctx, arg, runOpts...)
}
