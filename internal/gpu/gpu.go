// Package gpu assembles the whole simulated GPU: the SM array, the shared
// memory system, the global CTA scheduler with pluggable partitioning
// policies, and multi-stream execution with per-stream statistics.
//
// Streams are in-order command queues (each rendering batch is a stream;
// compute kernels carry their program's stream). Kernels from different
// streams execute concurrently subject to the installed partition policy;
// within a stream kernels are serialized. By default the CTA scheduler
// behaves like stock Accel-Sim: it drains CTAs from one kernel exhaustively
// before moving to the next, so concurrency only arises when a kernel
// cannot fill the machine or a policy reserves resources.
//
// The CTA scheduler is event-driven: stream activation, kernel launch and
// CTA placement each end at a fixpoint, and the run loop reruns one only
// after an event that could move it (a warp retired, a kernel launched or
// finished, the policy ticked, a tenant arrived), and placement after a
// retire probes only the SMs that retired one — see dispatch. NoSkip
// reruns all three over every SM every iteration, which is the oracle the
// event-driven path is diffed against.
package gpu

import (
	"context"
	"fmt"
	"sort"

	"crisp/internal/band"
	"crisp/internal/config"
	"crisp/internal/isa"
	"crisp/internal/mem"
	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/sm"
	"crisp/internal/snapshot"
	"crisp/internal/stats"
	"crisp/internal/trace"
)

// Prioritizer is an optional Policy extension: when implemented, pending
// CTAs are placed in descending task priority (ties by launch order),
// giving latency-critical tasks (rendering with a frame deadline) first
// claim on freed resources — the QoS dimension the paper's future work
// calls out.
type Prioritizer interface {
	Priority(task int) int
}

// StateDescriber is an optional Policy extension: a one-line description
// of the policy's current state (its last decision), embedded in crash
// dumps so postmortems can see what the policy had just done.
type StateDescriber interface {
	DescribeState() string
}

// StateSnapshotter is an optional Policy extension for policies with
// dynamic state (WarpedSlicer's sampling phase, TAP's set split and
// utility monitors): a serialized blob carried in checkpoints and restored
// on resume. Policies without it are treated as stateless — their behavior
// is fully determined by name and configuration.
type StateSnapshotter interface {
	CaptureState() ([]byte, error)
	RestoreState(blob []byte) error
}

// Policy is a GPU partitioning scheme. Implementations live in
// internal/partition; the zero policy (nil) shares everything.
//
// AllowSM and Limit must be pure functions of state the policy writes only
// in OnLaunch and Tick: they may not read the cycle, SM counters or
// anything else that moves between those calls. The CTA dispatcher relies
// on it — after a sweep it re-asks about every SM only after an OnLaunch, a
// Tick or a new launch, and about an SM only after a warp retires there —
// and a policy that breaks it diverges from the -no-skip oracle, which
// re-asks about every SM every iteration.
type Policy interface {
	Name() string
	// AllowSM reports whether the task may place CTAs on the SM. Its
	// answer may change only in OnLaunch/Tick (see above).
	AllowSM(smID, task int) bool
	// Limit returns the intra-SM resource envelope for the task on the
	// SM; ok=false means "no intra-SM limit" (whole SM). Like AllowSM, its
	// answer may change only in OnLaunch/Tick.
	Limit(smID, task int) (res sm.Resources, ok bool)
	// OnLaunch runs when a kernel begins issuing CTAs (kernel launches
	// and, for graphics, new drawcall batches) so dynamic policies can
	// re-evaluate.
	OnLaunch(now int64, k *trace.Kernel, task int)
	// Tick runs periodically with the current cycle.
	Tick(now int64)
}

// StreamDef declares one in-order stream of kernels belonging to a task.
type StreamDef struct {
	ID      int
	Task    int
	Label   string
	Kernels []*trace.Kernel
	// NotBefore gates the stream's activation: it may not start before
	// this cycle (a tenant arrival in a scenario mix). Zero — the default —
	// is eligible immediately. Arrivals are wake events: an otherwise-idle
	// machine jumps straight to the next arrival cycle.
	NotBefore int64
}

// maxTasks bounds the number of distinct tasks a run may contain. The
// paper studies pairs; the framework extends to more (its stated
// extension), and eight is far beyond any experiment here.
const maxTasks = 8

// streamBand bounds the dense band of the stream-stats table: the facade's
// compute-stream spacing (core.ComputeStreamBase), above every graphics
// batch id.
const streamBand = 1 << 20

// KernelStat records one kernel launch's timing; it is its own checkpoint
// record.
type KernelStat = snapshot.KernelStatState

// launch tracks a kernel that is currently issuing or executing CTAs.
type launch struct {
	k        *trace.Kernel
	task     int
	stream   *streamRT
	nextCTA  int
	doneCTAs int
	started  int64
	lastDone int64
}

type streamRT struct {
	def     StreamDef
	idx     int // next kernel to launch
	active  bool
	stat    *stats.Stream
	start   int64
	started bool
}

// GPU is one simulated GPU instance, configured for a single Run.
type GPU struct {
	cfg    config.GPU
	memsys *mem.System
	cores  []*sm.Core
	policy Policy

	streams []*streamRT
	running []*launch

	// streamStats finds a stream's counters for OnIssue/OnStall, called
	// once per scheduler slot: graphics batch ids index a slice, the few
	// compute ids sit in a short list.
	streamStats band.Table[stats.Stream]

	// instsBySMTask[sm][task] counts warp instructions, for policies that
	// sample per-SM progress (warped-slicer).
	instsBySMTask [][]int64

	// TaskWindows limits how many streams of a task may be active at
	// once (the rendering pipeline's in-flight batch window). Zero means
	// unlimited.
	TaskWindows map[int]int

	// Metrics, when non-nil, receives per-task interval metrics (IPC,
	// occupancy, cache hit rates, DRAM bandwidth) every Metrics.Interval
	// cycles. A non-positive Interval is treated as the default cadence
	// without modifying the caller's struct.
	Metrics *obs.IntervalSeries

	// WatchdogWindow configures the forward-progress watchdog: the run
	// fails with a watchdog SimError when no warp instruction issues for
	// this many cycles while warps are resident. Zero selects
	// DefaultWatchdogWindow; negative disables the watchdog.
	WatchdogWindow int64

	// CycleBudget, when positive, bounds the run: crossing it fails the
	// run with a budget SimError carrying a crash dump.
	CycleBudget int64

	// CheckpointEvery and CheckpointSink arm periodic checkpointing: every
	// CheckpointEvery cycles the run loop invokes the sink at an iteration
	// boundary (post policy-tick), where the captured state resumes
	// bit-identically. Sink errors abort the run with a snapshot SimError.
	CheckpointEvery int64
	CheckpointSink  func() error

	// Deprecated: Workers selected the removed two-phase parallel stepper.
	// Nothing reads it; it stays only so the frozen bench/ compiles, and goes
	// with the [benchmark] PR that drops the jN sub-pass, sim_kips_jn and
	// engine.jn_over_j1.
	Workers int

	// NoSkip disables event-driven core sleeping: every busy core is
	// stepped at every visited cycle (the legacy oracle path). Results are
	// bit-identical with skipping on or off — wakeAt bookkeeping, stall
	// attribution, digests, and checkpoints all match — so this knob only
	// trades wall-clock time for a reference to diff against.
	NoSkip bool

	// DigestEvery arms the determinism auditor: every DigestEvery cycles
	// the run loop hashes the architectural state and appends the digest
	// to the series returned by Digests. The digest covers only
	// architectural state, so tracing/metrics/checkpointing never perturb
	// it.
	DigestEvery int64

	tracer     obs.Tracer
	taskLabels map[int]string
	// mPrev is the metrics series' previous cumulative per-task counters, in
	// the snapshot's own type so a checkpoint carries it whole; mCur is
	// sampleMetrics' scratch, swapped with it after every sample.
	mPrev, mCur []snapshot.TaskSnapState
	mPrevCycle  int64

	// taskPrio holds explicit per-task CTA placement priorities
	// (SetTaskPriorities); nil means launch order / policy Prioritizer.
	taskPrio []int

	// Tenant QoS runtime (SetQoS): instance declarations, live completion
	// state, the stream-range index, and the arrival trace-event schedule.
	// Derived bookkeeping only — never part of the state digest.
	qos          []QoSTenant
	qosRT        [][]qosInstRT
	qosRanges    []qosRange
	qosArrEvents []qosArrEvent
	qosArrCursor int

	// nextArrival is the earliest NotBefore among streams that have not
	// yet arrived, recomputed by activateStreams; the run loop clamps its
	// time jumps to it so arrivals behave as wake events.
	nextArrival int64

	// Event marks of the CTA scheduler (see dispatch): which of its passes
	// has an input that moved since the pass last ran, and on which SMs.
	// Derived state — never serialized or digested — and set at the top of
	// RunContext, so a resumed run's first iteration runs every pass over
	// every SM.
	streamsDirty bool       // a stream advanced: rerun activateStreams and launchReady
	placeAll     bool       // a launch or a policy tick moved placement: probe every SM
	freed        []*sm.Core // SMs that retired a warp since the last sweep, ascending id
	// dispatchSweeps/dispatchSkipped count run-loop iterations whose CTA
	// placement sweep ran / was skipped at a fixpoint. Observability only.
	dispatchSweeps  int64
	dispatchSkipped int64
	// Scratch reused across calls: activateStreams' per-task active-stream
	// counts and issueCTAs' priority-ordered copy of running.
	activeByTask []int
	order        []*launch

	// loop holds the run loop's cursor state; a field (not locals), in the
	// snapshot's own type, so checkpoints carry it as is and a resumed run
	// keeps its sampling cadences aligned with the uninterrupted run's.
	loop    snapshot.LoopState
	resumed bool
	digests []snapshot.DigestEntry

	now         int64
	epoch       int64 // policy tick interval
	maxTask     int
	totalIssued int64 // warp instructions issued, the watchdog's progress signal
	kernelStats []KernelStat
}

// DefaultWatchdogWindow is the forward-progress window used when
// WatchdogWindow is zero: generous enough that no legitimate workload
// spends this long issuing nothing while warps are resident (memory and
// pipeline waits resolve within thousands of cycles), small enough that a
// livelocked multi-hour sweep run dies in well under a second of host time.
const DefaultWatchdogWindow = 4 << 20

// New builds a GPU for cfg. The configuration is validated.
func New(cfg config.GPU) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	memsys, err := mem.NewSystem(&cfg)
	if err != nil {
		return nil, err
	}
	g := &GPU{
		cfg:         cfg,
		memsys:      memsys,
		TaskWindows: make(map[int]int),
		taskLabels:  make(map[int]string),
		epoch:       2048,
		streamStats: band.New[stats.Stream](streamBand),
	}
	g.cores = make([]*sm.Core, cfg.NumSMs)
	g.instsBySMTask = make([][]int64, cfg.NumSMs)
	for i := range g.cores {
		g.cores[i] = sm.NewCore(i, &g.cfg, memsys, g)
		g.instsBySMTask[i] = make([]int64, maxTasks)
	}
	return g, nil
}

// Config returns the GPU's configuration.
func (g *GPU) Config() *config.GPU { return &g.cfg }

// Mem exposes the memory system (for composition snapshots and mapper
// installation by policies).
func (g *GPU) Mem() *mem.System { return g.memsys }

// Cores exposes the SM array (read-mostly; policies use it for occupancy).
func (g *GPU) Cores() []*sm.Core { return g.cores }

// Now reports the current simulation cycle.
func (g *GPU) Now() int64 { return g.now }

// SetTracer installs a trace-event sink on the GPU and its memory
// system. A nil tracer (the default) disables tracing; every emission
// site then costs a single branch.
func (g *GPU) SetTracer(t obs.Tracer) {
	g.tracer = t
	g.memsys.SetTracer(t)
}

// Tracer reports the installed tracer (nil when tracing is disabled);
// policies use it to emit repartition events.
func (g *GPU) Tracer() obs.Tracer { return g.tracer }

// SchedSlots reports the total warp-scheduler issue slots examined
// across all SMs.
func (g *GPU) SchedSlots() int64 {
	var n int64
	for _, c := range g.cores {
		n += c.SchedSlots()
	}
	return n
}

// EmptySlots reports the issue slots in which a scheduler had no
// resident warps.
func (g *GPU) EmptySlots() int64 {
	var n int64
	for _, c := range g.cores {
		n += c.EmptySlots()
	}
	return n
}

// InstsOnSM reports warp instructions issued on an SM for a task since the
// last ResetSMCounters (warped-slicer's sampling input).
func (g *GPU) InstsOnSM(smID, task int) int64 {
	if task < len(g.instsBySMTask[smID]) {
		return g.instsBySMTask[smID][task]
	}
	return 0
}

// ResetSMCounters zeroes the per-SM instruction counters.
func (g *GPU) ResetSMCounters() {
	for i := range g.instsBySMTask {
		for j := range g.instsBySMTask[i] {
			g.instsBySMTask[i][j] = 0
		}
	}
}

// SetWarpScheduler selects the warp-scheduling discipline on every SM
// (the GTO-vs-LRR ablation).
func (g *GPU) SetWarpScheduler(p sm.SchedPolicy) {
	for _, core := range g.cores {
		core.Sched = p
	}
}

// SetPolicy installs the partition policy and wires intra-SM limits.
func (g *GPU) SetPolicy(p Policy) {
	g.policy = p
	for _, core := range g.cores {
		core := core
		if p == nil {
			core.LimitFor = nil
			continue
		}
		core.LimitFor = func(task int) sm.Resources {
			if res, ok := p.Limit(core.ID, task); ok {
				return res
			}
			return sm.Full(&g.cfg)
		}
	}
}

// AddStream queues a stream definition. Kernels are validated
// structurally (trace.Kernel.Check: a warp Builder or Load already
// validated is not walked again) and for placeability: a CTA whose
// resource footprint exceeds a whole SM can never be scheduled under any
// policy, so such streams fail fast here with a deadlock SimError instead
// of misbehaving mid-run.
func (g *GPU) AddStream(def StreamDef) error {
	full := sm.Full(&g.cfg)
	for _, k := range def.Kernels {
		if err := k.Check(); err != nil {
			return &robust.SimError{Kind: robust.KindValidation,
				Msg: fmt.Sprintf("gpu: stream %d: malformed kernel trace", def.ID), Err: err}
		}
		if k.Stream != def.ID {
			return &robust.SimError{Kind: robust.KindValidation,
				Msg: fmt.Sprintf("gpu: stream %d: kernel %q carries stream %d", def.ID, k.Name, k.Stream)}
		}
		need := sm.Need(k)
		if need.Threads > full.Threads || need.Regs > full.Regs ||
			need.Shared > full.Shared || k.WarpsPerCTA() > g.cfg.MaxWarpsPerSM {
			return &robust.SimError{Kind: robust.KindDeadlock,
				Msg: fmt.Sprintf("gpu: stream %d: kernel %q CTA (threads=%d regs=%d shared=%dB) exceeds an entire SM (threads=%d regs=%d shared=%dB) on %s — unplaceable under every policy",
					def.ID, k.Name, need.Threads, need.Regs, need.Shared,
					full.Threads, full.Regs, full.Shared, g.cfg.Name),
				Dump: g.buildDump(k.Name, "CTA exceeds whole-SM capacity")}
		}
	}
	st := &streamRT{def: def, stat: &stats.Stream{Stream: def.ID, Label: def.Label}}
	g.streams = append(g.streams, st)
	g.streamStats.Put(def.ID, st.stat)
	if def.Task > g.maxTask {
		g.maxTask = def.Task
	}
	// Label the task for the metrics series: a single-stream task keeps
	// its stream's label; multi-stream tasks (graphics batches) fall back
	// to a generic task name.
	if old, ok := g.taskLabels[def.Task]; !ok {
		g.taskLabels[def.Task] = def.Label
	} else if old != def.Label {
		if def.Task == 0 {
			// Task 0 is the rendering task; its many batch streams all
			// carry distinct labels.
			g.taskLabels[def.Task] = "graphics"
		} else {
			g.taskLabels[def.Task] = fmt.Sprintf("task%d", def.Task)
		}
	}
	return nil
}

// OnIssue implements sm.InstStats.
func (g *GPU) OnIssue(smID, stream, task int, op isa.Opcode, lanes int) {
	g.totalIssued++
	st := g.streamStats.Peek(stream)
	if st == nil {
		return
	}
	st.WarpInsts++
	st.ThreadInsts += int64(lanes)
	if op == isa.OpTEX {
		st.TexAccesses++
	}
	if task < len(g.instsBySMTask[smID]) {
		g.instsBySMTask[smID][task]++
	}
}

// OnStall implements sm.InstStats: one scheduler issue slot in which the
// stream's earliest-ready warp could not issue.
func (g *GPU) OnStall(smID, stream, task int, cause obs.StallCause) {
	st := g.streamStats.Peek(stream)
	if st == nil {
		return
	}
	st.Stalls[cause]++
}

// OnStallN implements sm.InstStats: n identical stall slots bulk-accounted
// by a waking core's FlushSkipDebt. Pure counter increments, so the effect
// equals n OnStall calls.
func (g *GPU) OnStallN(smID, stream, task int, cause obs.StallCause, n int64) {
	st := g.streamStats.Peek(stream)
	if st == nil {
		return
	}
	st.Stalls[cause] += n
}

// activateStreams opens stream slots respecting per-task windows and
// tenant arrival cycles. It also recomputes nextArrival — the earliest
// NotBefore still in the future — which the run loop uses as a wake event.
func (g *GPU) activateStreams() {
	g.nextArrival = sm.Never
	if len(g.activeByTask) <= g.maxTask {
		g.activeByTask = make([]int, g.maxTask+1)
	}
	activeByTask := g.activeByTask
	clear(activeByTask)
	for _, st := range g.streams {
		if st.active && st.idx < len(st.def.Kernels) {
			activeByTask[st.def.Task]++
		}
	}
	for _, st := range g.streams {
		if st.active || st.idx >= len(st.def.Kernels) {
			continue
		}
		if g.now < st.def.NotBefore {
			if st.def.NotBefore < g.nextArrival {
				g.nextArrival = st.def.NotBefore
			}
			continue
		}
		w := g.TaskWindows[st.def.Task]
		if w > 0 && activeByTask[st.def.Task] >= w {
			continue
		}
		st.active = true
		activeByTask[st.def.Task]++
	}
}

// launchReady moves stream-head kernels into the running set.
func (g *GPU) launchReady() {
	for _, st := range g.streams {
		if !st.active || st.idx >= len(st.def.Kernels) {
			continue
		}
		// Is this stream's head kernel already running?
		alreadyRunning := false
		for _, l := range g.running {
			if l.stream == st {
				alreadyRunning = true
				break
			}
		}
		if alreadyRunning {
			continue
		}
		k := st.def.Kernels[st.idx]
		l := &launch{k: k, task: st.def.Task, stream: st, started: g.now}
		g.running = append(g.running, l)
		g.placeAll = true
		if t := g.tracer; t != nil {
			if !st.started && k.Kind.IsGraphics() {
				t.Emit(obs.Event{Cycle: g.now, Kind: obs.EvBatchStart, Stream: st.def.ID,
					Task: st.def.Task, SM: -1, CTA: -1, Name: st.def.Label})
			}
			t.Emit(obs.Event{Cycle: g.now, Kind: obs.EvKernelLaunch, Stream: st.def.ID,
				Task: st.def.Task, SM: -1, CTA: -1, Name: k.Name, Arg: int64(len(k.CTAs))})
		}
		if !st.started {
			st.started = true
			st.start = g.now
		}
		st.stat.KernelsLaunched++
		if g.policy != nil {
			g.policy.OnLaunch(g.now, k, st.def.Task)
		}
	}
}

// dispatch is the global CTA scheduler's turn in one run-loop iteration:
// open stream slots, launch stream-head kernels, place pending CTAs. Each
// pass runs to a fixpoint of its inputs, so running it again before one
// of them moves would change nothing, and it is skipped until then:
//
//   - activateStreams and launchReady read stream progress (written by
//     reapFinished and by themselves), the running set, and whether now
//     has reached a NotBefore — the earliest pending one is nextArrival.
//   - issueCTAs reads the running launches' pending CTAs, the policy's
//     AllowSM/Limit — pure functions of state the policy writes only in
//     OnLaunch and Tick — and Fits, which reads one SM's own resource
//     usage and resident-warp count: raised only by issueCTAs itself,
//     lowered only by a warp's retire on that SM. Placing one launch's
//     CTAs can only take resources from the others, so when the sweep
//     stops, no pending CTA fits anywhere until a launch is added or the
//     policy ticks — then every SM is probed — or a warp retires, and
//     then only the SMs that retired one can have room.
//
// The SMs probed are probed in ascending id, as a sweep over all of them
// would reach them, so breadth-first placement comes out the same. NoSkip
// reruns every pass over every SM every iteration, as the loop always
// used to.
func (g *GPU) dispatch() {
	streams := g.NoSkip || g.streamsDirty || g.now >= g.nextArrival
	if streams {
		g.streamsDirty = false
		g.activateStreams()
	}
	g.emitArrivals() // between the two passes: the trace's event order
	if streams {
		g.launchReady()
	}
	switch {
	case g.NoSkip || g.placeAll:
		g.placeAll = false
		g.dispatchSweeps++
		g.issueCTAs(g.cores)
	case len(g.freed) > 0:
		g.dispatchSweeps++
		g.issueCTAs(g.freed)
	default:
		g.dispatchSkipped++
	}
	g.freed = g.freed[:0]
}

// DispatchCounters reports how many run-loop iterations ran the CTA
// placement sweep, over every SM or only those that freed room, and how
// many skipped it because placement was at a fixpoint (always zero under
// NoSkip). Observability only, like SkipCounters: never serialized,
// digested, or carried across a resume.
func (g *GPU) DispatchCounters() (sweeps, skipped int64) {
	return g.dispatchSweeps, g.dispatchSkipped
}

// issueCTAs places as many pending CTAs as fit on cores (in ascending id),
// in launch order, spreading each kernel breadth-first across its allowed
// SMs (one CTA per SM per sweep, as hardware CTA schedulers do) before
// stacking SMs deeper.
func (g *GPU) issueCTAs(cores []*sm.Core) {
	for _, l := range g.placementOrder() {
		if l.nextCTA >= len(l.k.CTAs) {
			continue
		}
		l := l
		st := l.stream
		need, warps := sm.Need(l.k), l.k.WarpsPerCTA()
		placed := true
		for placed && l.nextCTA < len(l.k.CTAs) {
			placed = false
			for _, core := range cores {
				if l.nextCTA >= len(l.k.CTAs) {
					break
				}
				if g.policy != nil && !g.policy.AllowSM(core.ID, l.task) {
					continue
				}
				if !core.Fits(need, warps, l.task) {
					continue
				}
				ctaIdx, smID := l.nextCTA, core.ID
				if t := g.tracer; t != nil {
					t.Emit(obs.Event{Cycle: g.now, Kind: obs.EvCTAIssue, Stream: l.k.Stream,
						Task: l.task, SM: smID, CTA: ctaIdx, Name: l.k.Name})
				}
				core.IssueCTA(g.now, l.k, l.nextCTA, l.task, g.completionFn(l, smID, ctaIdx))
				l.nextCTA++
				st.stat.CTAsLaunched++
				placed = true
			}
		}
	}
}

// completionFn builds the CTA-completion closure for one placed CTA. It is
// a named constructor (rather than an inline literal in issueCTAs) so that
// checkpoint restore can rebuild the identical closure for CTAs that were
// resident at capture time.
func (g *GPU) completionFn(l *launch, smID, ctaIdx int) func(doneAt int64) {
	st := l.stream
	return func(doneAt int64) {
		l.doneCTAs++
		if doneAt > l.lastDone {
			l.lastDone = doneAt
		}
		st.stat.Cycles = doneAt - st.start
		if t := g.tracer; t != nil {
			t.Emit(obs.Event{Cycle: doneAt, Kind: obs.EvCTACommit, Stream: l.k.Stream,
				Task: l.task, SM: smID, CTA: ctaIdx, Name: l.k.Name})
		}
	}
}

// reapFinished retires completed kernels and advances their streams.
func (g *GPU) reapFinished() {
	kept := g.running[:0]
	for _, l := range g.running {
		if l.doneCTAs == len(l.k.CTAs) {
			g.kernelStats = append(g.kernelStats, KernelStat{
				Name:     l.k.Name,
				Stream:   l.k.Stream,
				Task:     l.task,
				Launched: l.started,
				Done:     l.lastDone,
				CTAs:     len(l.k.CTAs),
			})
			l.stream.idx++
			g.streamsDirty = true
			if l.stream.idx >= len(l.stream.def.Kernels) {
				l.stream.active = false
				if g.qos != nil {
					g.qosStreamDone(l.stream.def.ID, l.lastDone)
				}
			}
			if t := g.tracer; t != nil {
				t.Emit(obs.Event{Cycle: l.lastDone, Kind: obs.EvKernelDone, Stream: l.k.Stream,
					Task: l.task, SM: -1, CTA: -1, Name: l.k.Name, Arg: int64(len(l.k.CTAs))})
				if l.stream.idx >= len(l.stream.def.Kernels) && l.k.Kind.IsGraphics() {
					t.Emit(obs.Event{Cycle: l.lastDone, Kind: obs.EvBatchDone, Stream: l.k.Stream,
						Task: l.task, SM: -1, CTA: -1, Name: l.stream.def.Label})
				}
			}
			continue
		}
		kept = append(kept, l)
	}
	g.running = kept
}

// KernelStats lists every completed kernel launch in completion order.
func (g *GPU) KernelStats() []KernelStat { return g.kernelStats }

// Run executes all queued streams to completion and returns the makespan
// in cycles. It is RunContext with a background (never-canceled) context.
func (g *GPU) Run() (int64, error) { return g.RunContext(context.Background()) }

// stepCores advances the SM array one time step: the busy cores in
// ascending id, every cross-SM effect applied as it happens. A busy core
// whose wakeAt is still ahead is not stepped: its state is frozen and its
// stall disposition does not depend on the cycle, so it is charged one unit
// of skip debt, which FlushSkipDebt settles into the counters the skipped
// steps would have written when the core wakes. NoSkip steps every busy
// core but maintains wakeAt identically, so the two modes digest alike. A
// core whose step retires a warp — which frees a warp slot and, with its
// CTA's last warp, threads, registers and shared memory — joins freed,
// still in ascending id, for the next dispatch to probe. It returns the
// earliest cycle at which any busy core could do useful work (>= sm.Never
// when all are blocked for good: the livelock signal) and whether any core
// is busy.
func (g *GPU) stepCores() (next int64, anyBusy bool) {
	next = sm.Never
	for _, c := range g.cores {
		if !c.Busy() {
			continue
		}
		anyBusy = true
		w := c.WakeAt()
		if g.NoSkip || g.now >= w {
			c.FlushSkipDebt()
			r := c.RetiredWarps()
			w = c.Step(g.now)
			c.SetWakeAt(w)
			if c.RetiredWarps() != r {
				g.freed = append(g.freed, c)
			}
		} else {
			c.Skip()
		}
		if w < next {
			next = w
		}
	}
	return next, anyBusy
}

// ctxCheckMask gates how often the run loop polls ctx.Err(): every
// (mask+1) iterations, so the happy path pays one counter increment and
// mask per iteration instead of an atomic load.
const ctxCheckMask = 255

// RunContext executes all queued streams to completion, subject to the
// hardening envelope: the forward-progress watchdog (WatchdogWindow), the
// hard cycle budget (CycleBudget), and cancellation of ctx, any of which
// terminates the run with a *robust.SimError carrying a crash dump of
// per-SM and per-stream state. The existing all-idle deadlock check
// likewise now reports a structured SimError instead of a bare error.
func (g *GPU) RunContext(ctx context.Context) (int64, error) {
	// Default the sampling cadence locally: the Metrics struct is
	// caller-owned and must not be written back.
	var metricsInterval int64
	if g.Metrics != nil {
		metricsInterval = g.Metrics.Interval
		if metricsInterval <= 0 {
			metricsInterval = 2048
		}
		if !g.resumed {
			// Rates are deltas, so the first sample is only meaningful one
			// full interval in.
			g.loop.NextMetrics = metricsInterval
		}
	}
	if g.DigestEvery > 0 && g.loop.NextDigest <= g.now {
		// Fresh run, or the auditor was newly enabled on a resumed run: a
		// run that carried the cursor through a checkpoint always captures
		// it already advanced past the capture cycle.
		g.loop.NextDigest = g.now + g.DigestEvery
	}
	if g.CheckpointSink != nil && g.CheckpointEvery > 0 && g.loop.NextCheckpoint <= g.now {
		g.loop.NextCheckpoint = g.now + g.CheckpointEvery
	}
	window := g.WatchdogWindow
	if window == 0 {
		window = DefaultWatchdogWindow
	}
	ctxDone := ctx.Done() // nil for background contexts: check skipped entirely
	if g.qos != nil && g.tracer != nil {
		g.buildArrivalEvents()
	}
	// The oracle also drops the per-warp earliest memo and the stall replay,
	// so an invalidation bug diverges from it instead of being shared.
	for _, c := range g.cores {
		c.SetLegacyStep(g.NoSkip)
	}
	g.streamsDirty, g.placeAll = true, true
	ls := &g.loop
	for {
		ls.Iter++
		g.dispatch()
		g.reapFinished()

		if len(g.running) == 0 {
			done := true
			for _, st := range g.streams {
				if st.idx < len(st.def.Kernels) {
					done = false
					break
				}
			}
			if done {
				break
			}
		}

		next, anyBusy := g.stepCores()
		if !anyBusy {
			// CTAs are pending but none was placeable and nothing is
			// executing: the partition is infeasible.
			if len(g.running) > 0 {
				return g.now, g.fail(robust.KindDeadlock, g.running[0].k.Name,
					"cannot place CTAs under the installed partition",
					"gpu: deadlock at cycle %d: kernel %q cannot place CTAs under policy %s",
					g.now, g.running[0].k.Name, g.policyName())
			}
			// Nothing resident and nothing placeable: the only pending work
			// is future tenant arrivals, so jump straight to the earliest
			// one (an arrival is a wake event, in both skip modes).
			if g.nextArrival > g.now && g.nextArrival < sm.Never {
				g.now = g.nextArrival
			} else {
				g.now++
			}
			continue
		}
		if next >= sm.Never {
			// Every resident warp is permanently blocked (a CTA barrier
			// whose remaining arrivals can never happen): the run would
			// otherwise spin to the end of time. This is the livelock the
			// all-idle check above cannot see, caught immediately rather
			// than after a watchdog window.
			k := g.stuckKernel()
			return g.now, g.fail(robust.KindWatchdog, k,
				"all resident warps permanently blocked (barrier livelock)",
				"gpu: livelock at cycle %d: all resident warps blocked at barriers (kernel %q)", g.now, k)
		}
		// A pending arrival bounds the time jump: the machine must be at
		// the arrival cycle to admit the tenant's streams on time.
		if g.nextArrival > g.now && g.nextArrival < next {
			next = g.nextArrival
		}
		if next <= g.now {
			next = g.now + 1
		}
		g.now = next

		// Observability and policy phases run first so that a checkpoint
		// taken at this boundary captures post-tick state: a resumed run
		// re-enters the loop at the top of the next iteration and repeats
		// nothing.
		if g.Metrics != nil && g.now >= ls.NextMetrics {
			g.sampleMetrics()
			ls.NextMetrics = g.now + metricsInterval
		}
		if g.policy != nil && g.now-ls.LastTick >= g.epoch {
			g.policy.Tick(g.now)
			ls.LastTick = g.now
			g.placeAll = true
			// A repartition can change what a sleeping core could do (CTA
			// placement limits), so force every core awake for the next
			// step. Unconditional in both skip modes — the digest below
			// hashes wakeAt, and this keeps the two modes' values aligned
			// on tick boundaries.
			for _, c := range g.cores {
				c.SetWakeAt(g.now)
			}
		}
		// Watchdog bookkeeping precedes the checkpoint so the captured
		// progress window matches the uninterrupted run's; the digest
		// precedes it so the cursor is captured already advanced (the
		// digest at this cycle belongs to the pre-checkpoint series).
		progressed := g.totalIssued != ls.LastIssued
		if progressed {
			ls.LastIssued = g.totalIssued
			ls.LastProgress = g.now
		}
		if g.DigestEvery > 0 && g.now >= ls.NextDigest {
			ls.NextDigest = g.now + g.DigestEvery
			d, err := g.StateDigest()
			if err != nil {
				return g.now, g.fail(robust.KindSnapshot, "",
					"state digest failed", "gpu: state digest at cycle %d: %v", g.now, err)
			}
			g.digests = append(g.digests, d)
		}
		if g.CheckpointSink != nil && g.CheckpointEvery > 0 && g.now >= ls.NextCheckpoint {
			ls.NextCheckpoint = g.now + g.CheckpointEvery
			if err := g.CheckpointSink(); err != nil {
				return g.now, g.fail(robust.KindSnapshot, "",
					"checkpoint write failed", "gpu: checkpoint at cycle %d: %v", g.now, err)
			}
		}

		// Hardening checks. The watchdog's progress signal is the
		// warp-instruction counter: any issue anywhere resets the window.
		if !progressed && window > 0 && g.now-ls.LastProgress > window {
			k := g.stuckKernel()
			se := g.fail(robust.KindWatchdog, k,
				fmt.Sprintf("no instruction issued for %d cycles", g.now-ls.LastProgress),
				"gpu: watchdog at cycle %d: no instruction issued since cycle %d (window %d, kernel %q)",
				g.now, ls.LastProgress, window, k)
			se.Dump.WatchdogWindow = window
			se.Dump.LastProgress = ls.LastProgress
			return g.now, se
		}
		if g.CycleBudget > 0 && g.now > g.CycleBudget {
			return g.now, g.fail(robust.KindBudget, g.stuckKernel(),
				fmt.Sprintf("cycle budget %d exceeded", g.CycleBudget),
				"gpu: cycle budget exceeded at cycle %d (budget %d)", g.now, g.CycleBudget)
		}
		if ctxDone != nil && ls.Iter&ctxCheckMask == 0 {
			select {
			case <-ctxDone:
				return g.now, g.fail(robust.KindCanceled, "",
					"context canceled", "gpu: run canceled at cycle %d: %v", g.now, ctx.Err())
			default:
			}
		}
	}
	if g.Metrics != nil && g.now > g.mPrevCycle {
		// Close the series with the tail interval.
		g.sampleMetrics()
	}
	g.foldMemCounters()
	if g.DigestEvery > 0 {
		// Close the series with a final digest at the makespan cycle, so
		// two complete runs can be compared end to end even when neither
		// crossed another digest boundary.
		d, err := g.StateDigest()
		if err != nil {
			return g.now, g.fail(robust.KindSnapshot, "",
				"state digest failed", "gpu: final state digest: %v", err)
		}
		g.digests = append(g.digests, d)
	}
	return g.now, nil
}

// fail builds the structured error for an abnormal run termination: it
// folds counters so the dump's stall snapshot is current, emits a trace
// event for the abort, and attaches the crash dump.
func (g *GPU) fail(kind robust.Kind, kernel, reason, format string, args ...any) *robust.SimError {
	g.settleCores()
	g.foldMemCounters()
	if t := g.tracer; t != nil {
		t.Emit(obs.Event{Cycle: g.now, Kind: obs.EvWatchdog, Stream: -1, Task: -1,
			SM: -1, CTA: -1, Name: fmt.Sprintf("%s: %s", kind, reason)})
	}
	return &robust.SimError{
		Kind:  kind,
		Cycle: g.now,
		Msg:   fmt.Sprintf(format, args...),
		Dump:  g.buildDump(kernel, reason),
	}
}

// stuckKernel names the kernel most plausibly implicated in a stall: the
// oldest running kernel with unfinished CTAs.
func (g *GPU) stuckKernel() string {
	for _, l := range g.running {
		if l.doneCTAs < len(l.k.CTAs) {
			return l.k.Name
		}
	}
	return ""
}

// buildDump snapshots per-SM occupancy, per-stream kernel/CTA progress,
// and the stall-attribution breakdown into a crash dump.
func (g *GPU) buildDump(kernel, reason string) *robust.CrashDump {
	d := &robust.CrashDump{
		Cycle:  g.now,
		Config: g.cfg.Name,
		Policy: g.policyName(),
		Kernel: kernel,
		Reason: reason,
	}
	if sd, ok := g.policy.(StateDescriber); ok {
		d.PolicyState = sd.DescribeState()
	}
	d.SMs = make([]robust.SMState, len(g.cores))
	for i, core := range g.cores {
		s := robust.SMState{ID: core.ID, ResidentWarps: core.TotalResidentWarps(),
			BarrierBlocked: core.BarrierBlocked()}
		u := core.TotalUsage()
		s.UsedThreads, s.UsedRegs, s.UsedShared, s.UsedCTAs = u.Threads, u.Regs, u.Shared, u.CTAs
		for task := 0; task <= g.maxTask; task++ {
			if w := core.ResidentWarps(task); w > 0 {
				if s.WarpsByTask == nil {
					s.WarpsByTask = make(map[int]int)
				}
				s.WarpsByTask[task] = w
			}
		}
		d.SMs[i] = s
	}
	runningBy := make(map[*streamRT]*launch, len(g.running))
	for _, l := range g.running {
		runningBy[l.stream] = l
	}
	for _, st := range g.streams {
		if st.idx >= len(st.def.Kernels) {
			d.StreamsCompleted++
			continue
		}
		ss := robust.StreamState{
			ID: st.def.ID, Label: st.def.Label, Task: st.def.Task,
			KernelsDone: st.idx, KernelsTotal: len(st.def.Kernels), Active: st.active,
		}
		if l := runningBy[st]; l != nil {
			ss.Running = &robust.KernelProgress{
				Name: l.k.Name, CTAsIssued: l.nextCTA, CTAsDone: l.doneCTAs,
				CTAsTotal: len(l.k.CTAs), LaunchedAt: l.started,
			}
		}
		d.Streams = append(d.Streams, ss)
	}
	// Iterate tasks in sorted order: TaskStats returns a map, and the dump
	// must be byte-identical across runs for the determinism auditor's sake.
	byTask := g.TaskStats()
	tasks := make([]int, 0, len(byTask))
	for task := range byTask {
		tasks = append(tasks, task)
	}
	sort.Ints(tasks)
	for _, task := range tasks {
		st := byTask[task]
		ts := robust.TaskStalls{Task: task, Label: st.Label, Issues: st.WarpInsts}
		for _, c := range obs.StallCauses() {
			if n := st.Stalls[c]; n > 0 {
				if ts.Stalls == nil {
					ts.Stalls = make(map[string]int64)
				}
				ts.Stalls[c.String()] = n
			}
		}
		d.Stalls = append(d.Stalls, ts)
	}
	return d
}

func (g *GPU) policyName() string {
	if g.policy == nil {
		return "none"
	}
	return g.policy.Name()
}

// settleCores flushes every core's accumulated sleep debt so any
// observer (metrics sample, crash dump, state capture, stats fold) sees
// the same counters a cycle-by-cycle run would show at this cycle. It
// does not wake anybody: sleeping cores keep their wakeAt and simply
// start a fresh debt window.
func (g *GPU) settleCores() {
	for _, c := range g.cores {
		c.FlushSkipDebt()
	}
}

// SkipCounters aggregates the cores' event-skipping counters: real Step
// calls executed, engine steps slept through, and stall slots
// synthesized by bulk accounting.
func (g *GPU) SkipCounters() (executed, skipped, bulkStalls int64) {
	for _, c := range g.cores {
		e, s, b := c.SkipCounters()
		executed += e
		skipped += s
		bulkStalls += b
	}
	return executed, skipped, bulkStalls
}

// StallReplays sums the scheduler slots the cores answered from a stall
// record instead of a scan.
func (g *GPU) StallReplays() int64 {
	var n int64
	for _, c := range g.cores {
		n += c.StallReplays()
	}
	return n
}

// SleepHist sums the cores' log2 sleep-length histograms (bucket i
// counts flushed sleeps of 2^i..2^(i+1)-1 skipped steps).
func (g *GPU) SleepHist() []int64 {
	var agg []int64
	for _, c := range g.cores {
		h := c.SleepHist()
		if agg == nil {
			agg = make([]int64, len(h))
		}
		for i, v := range h {
			agg[i] += v
		}
	}
	return agg
}

// sampleMetrics appends one interval metrics sample: per-task rates
// derived from cumulative counter deltas since the previous sample.
func (g *GPU) sampleMetrics() {
	g.settleCores()
	nt := g.maxTask + 1
	g.mPrev = growTaskSnaps(g.mPrev, nt)
	cur := growTaskSnaps(g.mCur, nt)
	for i := range cur {
		stalls := cur[i].Stalls
		clear(stalls)
		cur[i] = snapshot.TaskSnapState{Stalls: stalls}
	}
	for _, st := range g.streams {
		c := &cur[st.def.Task]
		c.HasStreams = true
		c.WarpInsts += st.stat.WarpInsts
		for i, n := range st.stat.Stalls {
			c.Stalls[i] += n
		}
		if mc := g.memsys.PeekCounters(st.def.ID); mc != nil {
			c.L1A += mc.L1Accesses
			c.L1M += mc.L1Misses
			c.L2A += mc.L2Accesses
			c.L2M += mc.L2Misses
			c.DRAMBytes += mc.DRAMReadB + mc.DRAMWriteB
		}
	}
	dt := g.now - g.mPrevCycle
	if dt <= 0 {
		dt = 1
	}
	hit := func(acc, miss int64) float64 {
		if acc == 0 {
			return 0
		}
		return 1 - float64(miss)/float64(acc)
	}
	sample := obs.Sample{Cycle: g.now, CyclesSimulated: g.now}
	sample.StepsExecuted, sample.StepsSkipped, sample.BulkStallSlots = g.SkipCounters()
	sample.DispatchSweeps, sample.DispatchSkipped = g.DispatchCounters()
	sample.StallReplays = g.StallReplays()
	for task := 0; task < nt; task++ {
		d, p := &cur[task], &g.mPrev[task]
		if !d.HasStreams {
			continue
		}
		warps := 0
		for _, core := range g.cores {
			warps += core.ResidentWarps(task)
		}
		pt := obs.SeriesPoint{
			Stream:            task,
			Label:             g.taskLabels[task],
			IPC:               float64(d.WarpInsts-p.WarpInsts) / float64(dt),
			Warps:             warps,
			L1Hit:             hit(d.L1A-p.L1A, d.L1M-p.L1M),
			L2Hit:             hit(d.L2A-p.L2A, d.L2M-p.L2M),
			DRAMBytesPerCycle: float64(d.DRAMBytes-p.DRAMBytes) / float64(dt),
		}
		for i := range pt.Stalls {
			pt.Stalls[i] = d.Stalls[i] - p.Stalls[i]
		}
		g.fillQoSPoint(task, &pt)
		sample.Points = append(sample.Points, pt)
	}
	g.Metrics.Append(sample)
	g.mPrev, g.mCur = cur, g.mPrev
	g.mPrevCycle = g.now
}

// growTaskSnaps extends a metrics baseline to n tasks, each new entry with
// a zeroed stall vector.
func growTaskSnaps(s []snapshot.TaskSnapState, n int) []snapshot.TaskSnapState {
	for len(s) < n {
		s = append(s, snapshot.TaskSnapState{Stalls: make([]int64, obs.NumStallCauses)})
	}
	return s
}

// fillQoSPoint folds the task's live tenant-QoS progress into a metrics
// point: instances arrived/completed so far, and deadline outcomes —
// counting an overdue-but-incomplete instance as missed already, so SSE
// consumers see violations as they happen, not at run end.
func (g *GPU) fillQoSPoint(task int, pt *obs.SeriesPoint) {
	if g.qos == nil {
		return
	}
	for ti, qt := range g.qos {
		if qt.Task != task {
			continue
		}
		for ii, inst := range qt.Instances {
			if inst.Arrival <= g.now {
				pt.QoSArrived++
			}
			rt := g.qosRT[ti][ii]
			switch {
			case rt.left == 0:
				pt.QoSDone++
				if inst.Deadline > 0 {
					if rt.done <= inst.Deadline {
						pt.DeadlinesMet++
					} else {
						pt.DeadlinesMissed++
					}
				}
			case inst.Deadline > 0 && g.now > inst.Deadline:
				pt.DeadlinesMissed++
			}
		}
	}
}

// foldMemCounters copies the memory system's per-stream counters into the
// stream stats.
func (g *GPU) foldMemCounters() {
	for _, id := range g.memsys.Streams() {
		st := g.streamStats.Peek(id)
		if st == nil {
			continue
		}
		c := g.memsys.Counters(id)
		st.L1Accesses = c.L1Accesses
		st.L1Misses = c.L1Misses
		st.L2Accesses = c.L2Accesses
		st.L2Misses = c.L2Misses
		st.DRAMReads = c.DRAMReadB
		st.DRAMWrites = c.DRAMWriteB
	}
}

// StreamStats returns per-stream statistics sorted by stream id.
func (g *GPU) StreamStats() []*stats.Stream {
	out := make([]*stats.Stream, 0, len(g.streams))
	for _, st := range g.streams {
		out = append(out, st.stat)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// TaskStats aggregates stream statistics by task, labeled as the metrics
// series and crash dump label the task.
func (g *GPU) TaskStats() map[int]*stats.Stream {
	agg := make(map[int]*stats.Stream)
	for _, st := range g.streams {
		a := agg[st.def.Task]
		if a == nil {
			a = &stats.Stream{Stream: st.def.Task, Label: g.taskLabels[st.def.Task]}
			agg[st.def.Task] = a
		}
		a.Add(st.stat)
	}
	return agg
}
