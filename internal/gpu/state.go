package gpu

import (
	"fmt"
	"slices"

	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/sm"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

// This file implements whole-GPU checkpoint capture and restore. Capture
// walks every slice in its natural order (streams in AddStream order,
// launches in launch order, SMs by id), so the serialized state — and the
// determinism digest over it — is identical across processes for identical
// machine state. Restore requires a freshly built GPU with the same
// streams added and the same policy installed; everything else (resident
// CTAs, warps, caches, counters, policy state) comes from the snapshot.

func gpuStateErr(format string, args ...any) error {
	return &robust.SimError{Kind: robust.KindSnapshot, Msg: fmt.Sprintf(format, args...)}
}

// CaptureState snapshots the complete simulator state at the current
// cycle. It is safe at any run-loop iteration boundary (the built-in
// checkpoint hook only calls it there).
func (g *GPU) CaptureState() (*snapshot.GPUState, error) {
	// Settle sleep debt before anything is captured: the flush credits
	// stall slots into the per-stream stats, which are serialized below
	// before the cores are, so settling inside each core's own capture
	// would be too late for digest parity with a cycle-by-cycle run.
	g.settleCores()
	st := &snapshot.GPUState{}
	a := &st.Arch
	a.Cycle = g.now
	a.TotalIssued = g.totalIssued
	a.MaxTask = g.maxTask
	a.PolicyName = g.policyName()
	if ps, ok := g.policy.(StateSnapshotter); ok {
		blob, err := ps.CaptureState()
		if err != nil {
			return nil, gpuStateErr("capturing %s policy state: %v", a.PolicyName, err)
		}
		a.PolicyBlob = blob
	}

	byID := make(map[int]*streamRT, len(g.streams))
	a.Streams = make([]snapshot.StreamState, len(g.streams))
	for i, s := range g.streams {
		byID[s.def.ID] = s
		a.Streams[i] = snapshot.StreamState{
			ID:         s.def.ID,
			NextKernel: s.idx,
			Active:     s.active,
			Started:    s.started,
			StartCycle: s.start,
			Stat:       captureStreamStat(s),
		}
	}

	a.Running = make([]snapshot.LaunchState, len(g.running))
	for i, l := range g.running {
		ki, err := kernelIndexIn(l.stream, l.k)
		if err != nil {
			return nil, err
		}
		a.Running[i] = snapshot.LaunchState{
			StreamID:  l.stream.def.ID,
			KernelIdx: ki,
			Task:      l.task,
			NextCTA:   l.nextCTA,
			DoneCTAs:  l.doneCTAs,
			Started:   l.started,
			LastDone:  l.lastDone,
		}
	}

	a.Kernels = append(make([]KernelStat, 0, len(g.kernelStats)), g.kernelStats...)

	a.InstsBySMTask = make([][]int64, len(g.instsBySMTask))
	for i, row := range g.instsBySMTask {
		a.InstsBySMTask[i] = append([]int64(nil), row...)
	}

	kernelIdx := func(stream int, k *trace.Kernel) (int, error) {
		s := byID[stream]
		if s == nil {
			return 0, gpuStateErr("resident CTA references unknown stream %d", stream)
		}
		return kernelIndexIn(s, k)
	}
	a.Cores = make([]snapshot.CoreState, len(g.cores))
	for i, core := range g.cores {
		cs, err := core.CaptureState(g.now, kernelIdx)
		if err != nil {
			return nil, err
		}
		a.Cores[i] = cs
	}
	a.Mem = g.memsys.CaptureState()

	st.Obs = snapshot.ObsState{Loop: g.loop, MPrev: cloneTaskSnaps(g.mPrev), MPrevCycle: g.mPrevCycle}
	return st, nil
}

// cloneTaskSnaps deep-copies a metrics baseline: a capture or restore never
// aliases the live one, whose stall vectors sampleMetrics rewrites.
func cloneTaskSnaps(s []snapshot.TaskSnapState) []snapshot.TaskSnapState {
	out := make([]snapshot.TaskSnapState, len(s))
	for i, p := range s {
		p.Stalls = slices.Clone(p.Stalls)
		out[i] = p
	}
	return out
}

// kernelIndexIn locates k in a stream's kernel list by identity.
func kernelIndexIn(s *streamRT, k *trace.Kernel) (int, error) {
	for i, sk := range s.def.Kernels {
		if sk == k {
			return i, nil
		}
	}
	return 0, gpuStateErr("kernel %q not found in stream %d", k.Name, s.def.ID)
}

func captureStreamStat(s *streamRT) snapshot.StreamCounters {
	st := s.stat
	return snapshot.StreamCounters{
		Cycles:          st.Cycles,
		WarpInsts:       st.WarpInsts,
		ThreadInsts:     st.ThreadInsts,
		TexAccesses:     st.TexAccesses,
		KernelsLaunched: st.KernelsLaunched,
		CTAsLaunched:    st.CTAsLaunched,
		Stalls:          append([]int64(nil), st.Stalls[:]...),
	}
}

// RestoreState loads a capture into this GPU. The GPU must be freshly
// built for the same config, with the same streams added (AddStream) and
// the same policy installed (SetPolicy) as the captured run — the snapshot
// carries progress and machine state, not workload definitions.
func (g *GPU) RestoreState(st *snapshot.GPUState) error {
	a := &st.Arch
	if a.PolicyName != g.policyName() {
		return gpuStateErr("snapshot was taken under policy %q, this GPU runs %q", a.PolicyName, g.policyName())
	}
	ps, isSnapshotter := g.policy.(StateSnapshotter)
	if isSnapshotter != (a.PolicyBlob != nil) {
		return gpuStateErr("policy %q state mismatch: snapshot blob present=%v, policy snapshots state=%v",
			a.PolicyName, a.PolicyBlob != nil, isSnapshotter)
	}
	if len(a.Streams) != len(g.streams) {
		return gpuStateErr("snapshot has %d streams, GPU has %d — not the same job", len(a.Streams), len(g.streams))
	}
	if len(a.Cores) != len(g.cores) || len(a.InstsBySMTask) != len(g.instsBySMTask) {
		return gpuStateErr("snapshot has %d SMs, GPU has %d — not the same config", len(a.Cores), len(g.cores))
	}
	if a.MaxTask != g.maxTask {
		return gpuStateErr("snapshot max task %d disagrees with GPU's %d", a.MaxTask, g.maxTask)
	}

	byID := make(map[int]*streamRT, len(g.streams))
	for i, s := range g.streams {
		ss := a.Streams[i]
		if ss.ID != s.def.ID {
			return gpuStateErr("stream %d in snapshot is id %d, GPU has id %d — stream order differs", i, ss.ID, s.def.ID)
		}
		if ss.NextKernel < 0 || ss.NextKernel > len(s.def.Kernels) {
			return gpuStateErr("stream %d progress %d outside its %d kernels", ss.ID, ss.NextKernel, len(s.def.Kernels))
		}
		if len(ss.Stat.Stalls) != len(s.stat.Stalls) {
			return gpuStateErr("stream %d snapshot carries %d stall causes, this build has %d", ss.ID, len(ss.Stat.Stalls), len(s.stat.Stalls))
		}
		byID[s.def.ID] = s
	}
	for task, p := range st.Obs.MPrev {
		if len(p.Stalls) != obs.NumStallCauses {
			return gpuStateErr("task %d metrics baseline carries %d stall causes, this build has %d", task, len(p.Stalls), obs.NumStallCauses)
		}
	}

	// Structure validated; now mutate. Streams first.
	for i, s := range g.streams {
		ss := a.Streams[i]
		s.idx = ss.NextKernel
		s.active = ss.Active
		s.started = ss.Started
		s.start = ss.StartCycle
		restoreStreamStat(s, ss.Stat)
	}

	g.running = g.running[:0]
	launchByStream := make(map[int]*launch, len(a.Running))
	for _, ls := range a.Running {
		s := byID[ls.StreamID]
		if s == nil {
			return gpuStateErr("running launch references unknown stream %d", ls.StreamID)
		}
		if ls.KernelIdx < 0 || ls.KernelIdx >= len(s.def.Kernels) {
			return gpuStateErr("running launch kernel index %d outside stream %d's %d kernels", ls.KernelIdx, ls.StreamID, len(s.def.Kernels))
		}
		k := s.def.Kernels[ls.KernelIdx]
		if ls.NextCTA < 0 || ls.NextCTA > len(k.CTAs) || ls.DoneCTAs < 0 || ls.DoneCTAs > ls.NextCTA {
			return gpuStateErr("running launch of %q has impossible CTA progress issued=%d done=%d of %d", k.Name, ls.NextCTA, ls.DoneCTAs, len(k.CTAs))
		}
		l := &launch{
			k: k, task: ls.Task, stream: s,
			nextCTA: ls.NextCTA, doneCTAs: ls.DoneCTAs,
			started: ls.Started, lastDone: ls.LastDone,
		}
		g.running = append(g.running, l)
		launchByStream[ls.StreamID] = l
	}

	g.kernelStats = append(make([]KernelStat, 0, len(a.Kernels)), a.Kernels...)

	for i, row := range a.InstsBySMTask {
		if len(row) != len(g.instsBySMTask[i]) {
			return gpuStateErr("per-SM instruction counter width mismatch on SM %d", i)
		}
		copy(g.instsBySMTask[i], row)
	}

	env := sm.RestoreEnv{
		Kernel: func(stream, kernelIdx int) (*trace.Kernel, error) {
			s := byID[stream]
			if s == nil {
				return nil, gpuStateErr("resident CTA references unknown stream %d", stream)
			}
			if kernelIdx < 0 || kernelIdx >= len(s.def.Kernels) {
				return nil, gpuStateErr("resident CTA references kernel %d outside stream %d's %d kernels", kernelIdx, stream, len(s.def.Kernels))
			}
			return s.def.Kernels[kernelIdx], nil
		},
		OnComplete: func(stream, kernelIdx, ctaIdx, smID int) func(now int64) {
			l := launchByStream[stream]
			if l == nil {
				return nil
			}
			return g.completionFn(l, smID, ctaIdx)
		},
	}
	for i, core := range g.cores {
		if err := core.RestoreState(a.Cores[i], env); err != nil {
			return err
		}
		// A resident CTA whose stream has no running launch would complete
		// into the void; reject the snapshot as inconsistent.
		for _, cs := range a.Cores[i].CTAs {
			if launchByStream[cs.StreamID] == nil {
				return gpuStateErr("SM %d holds a CTA of stream %d, which has no running launch", i, cs.StreamID)
			}
		}
	}

	if err := g.memsys.RestoreState(a.Mem); err != nil {
		return err
	}

	if a.PolicyBlob != nil {
		if err := ps.RestoreState(a.PolicyBlob); err != nil {
			return err
		}
	}

	g.now = a.Cycle
	g.totalIssued = a.TotalIssued

	g.loop = st.Obs.Loop
	g.mPrev = cloneTaskSnaps(st.Obs.MPrev)
	g.mPrevCycle = st.Obs.MPrevCycle
	g.resumed = true
	// Tenant QoS state is derived bookkeeping: rebuild it from the
	// restored stream progress and kernel timings rather than carrying it
	// in the snapshot.
	g.recomputeQoS()
	return nil
}

func restoreStreamStat(s *streamRT, c snapshot.StreamCounters) {
	st := s.stat
	st.Cycles = c.Cycles
	st.WarpInsts = c.WarpInsts
	st.ThreadInsts = c.ThreadInsts
	st.TexAccesses = c.TexAccesses
	// The memory-system mirrors (L1/L2/DRAM) are deliberately not restored
	// here: the run-end fold rewrites them from the restored MemState
	// counters.
	st.KernelsLaunched = c.KernelsLaunched
	st.CTAsLaunched = c.CTAsLaunched
	copy(st.Stalls[:], c.Stalls)
}

// StateDigest hashes the current architectural state into one determinism
// digest entry.
func (g *GPU) StateDigest() (snapshot.DigestEntry, error) {
	st, err := g.CaptureState()
	if err != nil {
		return snapshot.DigestEntry{}, err
	}
	h, err := snapshot.ArchDigest(&st.Arch)
	if err != nil {
		return snapshot.DigestEntry{}, err
	}
	return snapshot.DigestEntry{Cycle: g.now, Digest: h}, nil
}

// Digests returns the determinism-auditor series collected so far (one
// entry per DigestEvery boundary, plus the final entry at completion).
func (g *GPU) Digests() []snapshot.DigestEntry { return g.digests }

// Resumed reports whether this GPU's state was loaded from a snapshot.
func (g *GPU) Resumed() bool { return g.resumed }
