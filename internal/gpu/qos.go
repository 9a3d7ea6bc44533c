package gpu

import (
	"cmp"
	"slices"
	"sort"

	"crisp/internal/obs"
)

// This file is the GPU's tenant QoS runtime: per-instance completion
// tracking for scenario mixes. A tenant instance (a rendered frame, one
// compute request) owns a contiguous stream-id range; the runtime counts
// the instance done when its last stream exhausts, records the completion
// cycle, and emits deadline met/missed trace events. All of it is derived
// bookkeeping over architectural events — none of it feeds the state
// digest, and a restore recomputes it from stream progress — so enabling
// QoS tracking never perturbs simulation results.

// QoSInstance is one schedulable unit of a tenant: a frame or a request.
// Its streams are exactly the GPU streams whose ids fall in
// [FirstStream, LastStream].
type QoSInstance struct {
	Arrival                 int64 // absolute arrival cycle (== the streams' NotBefore)
	Deadline                int64 // absolute deadline cycle; 0 = none
	FirstStream, LastStream int
}

// QoSTenant is one tenant's QoS tracking declaration.
type QoSTenant struct {
	Task      int
	Label     string
	Priority  int
	Instances []QoSInstance
}

// qosInstRT is the live state of one instance.
type qosInstRT struct {
	left int   // streams in range not yet exhausted
	done int64 // completion cycle, valid once left == 0
}

// qosRange indexes an instance by its stream-id range for lookup.
type qosRange struct {
	first, last int
	ti, ii      int
}

// SetQoS installs tenant QoS tracking. Call after every AddStream: the
// per-instance stream counts are derived from the streams present now.
func (g *GPU) SetQoS(tenants []QoSTenant) {
	g.qos = tenants
	g.qosRT = make([][]qosInstRT, len(tenants))
	g.qosRanges = g.qosRanges[:0]
	for ti, qt := range tenants {
		g.qosRT[ti] = make([]qosInstRT, len(qt.Instances))
		for ii, inst := range qt.Instances {
			g.qosRanges = append(g.qosRanges, qosRange{first: inst.FirstStream, last: inst.LastStream, ti: ti, ii: ii})
		}
	}
	sort.Slice(g.qosRanges, func(i, j int) bool { return g.qosRanges[i].first < g.qosRanges[j].first })
	for _, st := range g.streams {
		if r := g.qosLookup(st.def.ID); r != nil {
			rt := &g.qosRT[r.ti][r.ii]
			if st.idx < len(st.def.Kernels) {
				rt.left++
			}
		}
	}
}

// qosLookup finds the instance range owning a stream id (nil if none).
func (g *GPU) qosLookup(stream int) *qosRange {
	i := sort.Search(len(g.qosRanges), func(i int) bool { return g.qosRanges[i].last >= stream })
	if i < len(g.qosRanges) && g.qosRanges[i].first <= stream {
		return &g.qosRanges[i]
	}
	return nil
}

// qosStreamDone records one stream's exhaustion at cycle doneAt and, when
// it completes its instance, settles the instance's deadline accounting.
func (g *GPU) qosStreamDone(stream int, doneAt int64) {
	r := g.qosLookup(stream)
	if r == nil {
		return
	}
	rt := &g.qosRT[r.ti][r.ii]
	if rt.left == 0 {
		return
	}
	rt.left--
	if doneAt > rt.done {
		rt.done = doneAt
	}
	if rt.left != 0 {
		return
	}
	inst := g.qos[r.ti].Instances[r.ii]
	if t := g.tracer; t != nil && inst.Deadline > 0 {
		kind := obs.EvDeadlineMet
		if rt.done > inst.Deadline {
			kind = obs.EvDeadlineMiss
		}
		t.Emit(obs.Event{Cycle: rt.done, Kind: kind, Stream: inst.FirstStream,
			Task: g.qos[r.ti].Task, SM: -1, CTA: -1, Name: g.qos[r.ti].Label,
			Arg: rt.done - inst.Deadline})
	}
}

// emitArrivals emits tenant-arrival trace events for instances whose
// arrival cycle has been reached. Pure observability: gated on the tracer
// and driven by a monotone cursor, it costs nothing when tracing is off.
func (g *GPU) emitArrivals() {
	t := g.tracer
	if t == nil || g.qosArrCursor >= len(g.qosArrEvents) {
		return
	}
	for g.qosArrCursor < len(g.qosArrEvents) {
		ev := g.qosArrEvents[g.qosArrCursor]
		if ev.at > g.now {
			break
		}
		g.qosArrCursor++
		if ev.at == 0 {
			// Immediate arrivals are not events worth a timeline lane.
			continue
		}
		qt := g.qos[ev.ti]
		inst := qt.Instances[ev.ii]
		t.Emit(obs.Event{Cycle: g.now, Kind: obs.EvTenantArrive, Stream: inst.FirstStream,
			Task: qt.Task, SM: -1, CTA: -1, Name: qt.Label, Arg: int64(ev.ii)})
	}
}

// qosArrEvent is one pending arrival emission.
type qosArrEvent struct {
	at     int64
	ti, ii int
}

// buildArrivalEvents precomputes the sorted arrival-event schedule for
// emitArrivals. Called lazily on the first run-loop entry with a tracer.
func (g *GPU) buildArrivalEvents() {
	g.qosArrEvents = g.qosArrEvents[:0]
	for ti, qt := range g.qos {
		for ii, inst := range qt.Instances {
			g.qosArrEvents = append(g.qosArrEvents, qosArrEvent{at: inst.Arrival, ti: ti, ii: ii})
		}
	}
	sort.SliceStable(g.qosArrEvents, func(i, j int) bool { return g.qosArrEvents[i].at < g.qosArrEvents[j].at })
	// A resumed run re-enters mid-schedule: skip events already in the past.
	g.qosArrCursor = 0
	for g.qosArrCursor < len(g.qosArrEvents) && g.qosArrEvents[g.qosArrCursor].at <= g.now {
		g.qosArrCursor++
	}
}

// QoSTenants reports the installed tenant declarations (nil when the run
// has no QoS tracking).
func (g *GPU) QoSTenants() []QoSTenant { return g.qos }

// QoSDone reports each instance's completion cycle (0 while incomplete),
// indexed [tenant][instance].
func (g *GPU) QoSDone() [][]int64 {
	out := make([][]int64, len(g.qosRT))
	for ti, rts := range g.qosRT {
		out[ti] = make([]int64, len(rts))
		for ii, rt := range rts {
			if rt.left == 0 {
				out[ti][ii] = rt.done
			}
		}
	}
	return out
}

// recomputeQoS rebuilds the live instance state from restored stream
// progress and kernel timings. Within one stream kernels serialize and
// completion cycles are monotone, so the max Done over an exhausted
// stream's kernels equals its final kernel's completion — the same value
// the incremental path accumulates.
func (g *GPU) recomputeQoS() {
	if g.qos == nil {
		return
	}
	for ti := range g.qosRT {
		for ii := range g.qosRT[ti] {
			g.qosRT[ti][ii] = qosInstRT{}
		}
	}
	exhausted := make(map[int]bool, len(g.streams))
	for _, st := range g.streams {
		done := st.idx >= len(st.def.Kernels)
		exhausted[st.def.ID] = done
		if r := g.qosLookup(st.def.ID); r != nil && !done {
			g.qosRT[r.ti][r.ii].left++
		}
	}
	for _, ks := range g.kernelStats {
		if !exhausted[ks.Stream] {
			continue
		}
		if r := g.qosLookup(ks.Stream); r != nil {
			rt := &g.qosRT[r.ti][r.ii]
			if ks.Done > rt.done {
				rt.done = ks.Done
			}
		}
	}
}

// SetTaskPriorities installs explicit per-task CTA placement priorities
// (dense by task id, higher first). A nil or all-equal slice keeps plain
// launch order; explicit priorities take precedence over a policy's own
// Prioritizer.
func (g *GPU) SetTaskPriorities(prios []int) {
	uniform := true
	for _, p := range prios {
		if p != prios[0] {
			uniform = false
			break
		}
	}
	if len(prios) == 0 || uniform {
		g.taskPrio = nil
		return
	}
	g.taskPrio = append([]int(nil), prios...)
}

// placementOrder returns the running launches in CTA placement order:
// descending task priority — explicit task priorities (scenario mixes)
// win over the policy's Prioritizer — with ties in launch order, or plain
// launch order when neither defines one. The ordered copy lives in a
// reused scratch slice.
func (g *GPU) placementOrder() []*launch {
	pr, _ := g.policy.(Prioritizer)
	tp := g.taskPrio
	if tp == nil && pr == nil {
		return g.running
	}
	prio := func(task int) int {
		if tp == nil {
			return pr.Priority(task)
		}
		if task >= 0 && task < len(tp) {
			return tp[task]
		}
		return 0
	}
	g.order = append(g.order[:0], g.running...)
	slices.SortStableFunc(g.order, func(a, b *launch) int {
		return cmp.Compare(prio(b.task), prio(a.task))
	})
	return g.order
}
