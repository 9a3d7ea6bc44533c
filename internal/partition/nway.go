package partition

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"crisp/internal/gpu"
	"crisp/internal/mem"
	"crisp/internal/obs"
	"crisp/internal/sm"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

// This file holds the four policies built on the SMGroups/FGN primitives
// in ntask.go: MiGN, PriorityEvenN, TAPN and WarpedSlicerN.

// MiGN is MiG: contiguous SM groups per task plus a contiguous L2 bank
// range per task, which also confines each task to the matching DRAM
// channels (at two tasks, half the bandwidth each — the bank-level
// partitioning the TAP study compares against).
type MiGN struct {
	SMGroups
}

// NewMiGN builds n-way MiG for g. It needs at least one L2 bank per task.
func NewMiGN(g *gpu.GPU, taskOf func(stream int) int, tasks int) (*MiGN, error) {
	cfg := g.Config()
	if tasks < 1 || tasks > cfg.L2Banks {
		return nil, fmt.Errorf("partition: cannot split %d L2 banks into %d MiG slices", cfg.L2Banks, tasks)
	}
	groups, err := NewSMGroups(cfg.NumSMs, tasks)
	if err != nil {
		return nil, err
	}
	p := &MiGN{SMGroups: *groups}
	banks := make(map[int][]int, tasks)
	for b := 0; b < cfg.L2Banks; b++ {
		t := b * tasks / cfg.L2Banks
		banks[t] = append(banks[t], b)
	}
	g.Mem().SetMapper(&mem.BankMapper{TaskOf: taskOf, Banks: banks})
	return p, nil
}

// Name implements gpu.Policy.
func (p *MiGN) Name() string { return policyName("MiG", p.tasks) }

// PriorityEvenN is the QoS-aware variant of intra-SM sharing the paper's
// future work points toward: every task runs on every SM within a 1/n
// envelope, and pending CTAs of lower-numbered tasks claim freed resources
// first — at two tasks the rendering task's, protecting the frame deadline
// while compute soaks up the remainder. Tenant-declared priorities
// (gpu.SetTaskPriorities) override this default ordering.
type PriorityEvenN struct {
	FGN
}

// NewPriorityEvenN builds the QoS policy for g.
func NewPriorityEvenN(g *gpu.GPU, tasks int) (*PriorityEvenN, error) {
	f, err := NewFGN(g, tasks)
	if err != nil {
		return nil, err
	}
	return &PriorityEvenN{FGN: *f}, nil
}

// Name implements gpu.Policy.
func (p *PriorityEvenN) Name() string { return policyName("PriorityEven", p.tasks) }

// Priority implements gpu.Prioritizer: lower task ids first.
func (p *PriorityEvenN) Priority(task int) int { return -task }

// TAPN applies TLP-aware utility-based cache partitioning to the shared L2
// on top of MPS inter-SM sharing (Lee & Kim, adapted to GPU tasks as the
// paper does): contiguous SM groups, one utility monitor per task sampling
// its L2 access stream, and an n-region L2 set split re-decided at long
// epochs by marginal utility with the TLP-aware correction — a task whose
// access stream shows no cache sensitivity (compute-bound, e.g. HOLO) is
// clamped to the minimum allocation so the cache-sensitive tasks keep the
// capacity (paper Figs. 14-15).
type TAPN struct {
	SMGroups
	g      *gpu.GPU
	taskOf func(stream int) int
	mapper *mem.SetMapper
	umons  []*mem.UMON

	setsPerBank int
	minSets     int
	epochs      int
}

// NewTAPN builds TAP for g: SM groups, shared banks, a set-partitioned
// mapper, and observers wired into the memory system.
func NewTAPN(g *gpu.GPU, taskOf func(stream int) int, tasks int) (*TAPN, error) {
	cfg := g.Config()
	groups, err := NewSMGroups(cfg.NumSMs, tasks)
	if err != nil {
		return nil, err
	}
	t := &TAPN{
		SMGroups:    *groups,
		g:           g,
		taskOf:      taskOf,
		setsPerBank: g.Mem().SetsPerBank(),
		minSets:     1,
	}
	if t.setsPerBank < tasks*t.minSets {
		return nil, fmt.Errorf("partition: cannot split %d L2 sets into %d TAP regions", t.setsPerBank, tasks)
	}
	t.mapper = &mem.SetMapper{TaskOf: taskOf, Regions: regionsFor(evenSets(t.setsPerBank, tasks))}
	t.umons = make([]*mem.UMON, tasks)
	for i := range t.umons {
		t.umons[i] = mem.NewUMON(cfg.L2Assoc, 4)
	}
	g.Mem().SetMapper(t.mapper)
	g.Mem().SetObserver(t)
	return t, nil
}

// Name implements gpu.Policy.
func (t *TAPN) Name() string { return policyName("TAP", t.tasks) }

// Regions reports the current set split (for the composition study).
func (t *TAPN) Regions() map[int]mem.SetRegion { return t.mapper.Regions }

// ObserveL2 implements mem.Observer, feeding the task's utility monitor.
func (t *TAPN) ObserveL2(stream int, lineAddr uint64, hit bool) {
	// One unsigned compare is the range check and the bounds check.
	if task := t.taskOf(stream); uint(task) < uint(len(t.umons)) {
		t.umons[task].Observe(lineAddr)
	}
}

// evenSets splits total sets evenly over n tasks; the remainder goes to
// the lowest task ids so the split is a pure function of (total, n).
func evenSets(total, n int) []int {
	sets := make([]int, n)
	base, rem := total/n, total%n
	for i := range sets {
		sets[i] = base
		if i < rem {
			sets[i]++
		}
	}
	return sets
}

// regionsFor lays the per-task set counts out contiguously in task order.
func regionsFor(sets []int) map[int]mem.SetRegion {
	regions := make(map[int]mem.SetRegion, len(sets))
	start := 0
	for t, n := range sets {
		regions[t] = mem.SetRegion{Start: start, Count: n}
		start += n
	}
	return regions
}

// Tick implements gpu.Policy: repartition by marginal utility with the
// TLP-aware insensitivity clamp. Because reassigning sets remaps resident
// lines (an effective flush), the split is decided once after a warmup
// sampling window and then re-evaluated only at long intervals — frequent
// re-partitioning costs more in remap misses than any allocation gain.
func (t *TAPN) Tick(now int64) {
	t.epochs++
	if t.epochs > 1 && t.epochs < 32 {
		return
	}
	if t.epochs >= 32 {
		t.epochs = 1
	}
	var total int64
	for _, u := range t.umons {
		total += u.Accesses
	}
	if total < 1024 {
		return
	}
	assoc := len(t.umons[0].WayHits)

	// TLP-aware classification. "Active" means the task contributes a
	// non-negligible share of L2 accesses; "sensitive" means its shadow
	// tags show real reuse (cache capacity would convert misses to hits).
	active := make([]bool, t.tasks)
	sensitive := make([]bool, t.tasks)
	activeCount, sensCount := 0, 0
	for i, u := range t.umons {
		active[i] = u.Accesses*50 >= total
		if active[i] {
			activeCount++
			sensitive[i] = u.Utility(assoc) > u.Accesses/16
			if sensitive[i] {
				sensCount++
			}
		}
	}
	if activeCount == 0 {
		return
	}

	// Inactive tasks (barely touching memory, e.g. HOLO) hold the minimum;
	// actives share the remainder.
	sets := make([]int, t.tasks)
	avail := t.setsPerBank
	for i := range sets {
		if !active[i] {
			sets[i] = t.minSets
			avail -= t.minSets
		}
	}
	if avail < activeCount*t.minSets {
		sets = evenSets(t.setsPerBank, t.tasks)
	} else if sensCount >= 2 {
		t.sensitiveSplit(sets, t.grantWays(active, assoc), active, avail, assoc, activeCount)
	} else {
		// At most one task shows capacity sensitivity: these mixes are
		// bandwidth-, not capacity-bound, so TAP matches shared-LRU
		// behavior with an even split over the active tasks rather than
		// squeezing the streaming task into conflict misses — the
		// paper's finding that TAP shows no speedup over MPS because
		// "the baseline cache replacement policy, LRU, is efficient
		// enough".
		share := evenSets(avail, activeCount)
		j := 0
		for i := range sets {
			if active[i] {
				sets[i] = share[j]
				j++
			}
		}
	}

	// Hysteresis: ignore small deltas — a remap is never worth a few sets.
	maxDelta := 0
	for i, n := range sets {
		d := n - t.mapper.Regions[i].Count
		if d < 0 {
			d = -d
		}
		if d > maxDelta {
			maxDelta = d
		}
	}
	if maxDelta >= 8 {
		t.mapper.Regions = regionsFor(sets)
	}
	for _, u := range t.umons {
		u.Reset()
	}
}

// grantWays hands out assoc ways greedily by access-rate-normalized
// marginal utility across the active tasks (TAP's hit-rate comparison, not
// raw hit counts; ties: lowest task).
func (t *TAPN) grantWays(active []bool, assoc int) []int {
	ways := make([]int, t.tasks)
	for w := 0; w < assoc; w++ {
		best, bestScore := -1, -1.0
		for i, u := range t.umons {
			if !active[i] {
				continue
			}
			mu := float64(u.MarginalUtility(ways[i]+1)) / float64(max(u.Accesses, 1))
			if mu > bestScore {
				bestScore, best = mu, i
			}
		}
		ways[best]++
	}
	return ways
}

// sensitiveSplit is the rule for two or more sensitive tasks: each active
// task's share of the available sets is its share of the granted ways in
// 1/256ths, the integer remainder going to the highest-id active task; then
// every active task is raised to a floor of half an even share (at two
// tasks a quarter of the bank, the clamp the paper's Figs. 14–15 were
// reproduced with).
func (t *TAPN) sensitiveSplit(sets, ways []int, active []bool, avail, assoc, activeCount int) {
	assigned, last := 0, -1
	for i := range sets {
		if active[i] {
			sets[i] = avail * (ways[i] * 256 / assoc) / 256
			assigned += sets[i]
			last = i
		}
	}
	sets[last] += avail - assigned
	// Per-active floor: raise the squeezed, take from the largest.
	floor := max(avail/(2*activeCount), t.minSets)
	for i := range sets {
		if !active[i] {
			continue
		}
		for sets[i] < floor {
			donor := -1
			for j := range sets {
				if active[j] && sets[j] > floor && (donor < 0 || sets[j] > sets[donor]) {
					donor = j
				}
			}
			if donor < 0 {
				break
			}
			give := sets[donor] - floor
			if need := floor - sets[i]; give > need {
				give = need
			}
			sets[donor] -= give
			sets[i] += give
		}
	}
}

// tapNBlob is TAPN's serialized dynamic state. At two tasks it marshals to
// the bytes the pairwise policy's fixed-size blob did (same field names and
// order; a 2-array and a 2-slice are the same JSON), so checkpoints written
// before the policies were unified restore.
type tapNBlob struct {
	Epochs  int
	Regions []tapRegion // sorted by task
	UMons   []snapshot.UMONState
}

// CaptureState implements gpu.StateSnapshotter.
func (t *TAPN) CaptureState() ([]byte, error) {
	b := tapNBlob{Epochs: t.epochs}
	for task, r := range t.mapper.Regions {
		b.Regions = append(b.Regions, tapRegion{Task: task, Start: r.Start, Count: r.Count})
	}
	sort.Slice(b.Regions, func(i, j int) bool { return b.Regions[i].Task < b.Regions[j].Task })
	for _, u := range t.umons {
		b.UMons = append(b.UMons, u.CaptureState())
	}
	return json.Marshal(b)
}

// RestoreState implements gpu.StateSnapshotter.
func (t *TAPN) RestoreState(blob []byte) error {
	var b tapNBlob
	if err := json.Unmarshal(blob, &b); err != nil {
		return policyErr("TAPN state blob: %v", err)
	}
	if len(b.Regions) != t.tasks || len(b.UMons) != t.tasks {
		return policyErr("TAPN state blob: %d regions / %d umons for %d tasks", len(b.Regions), len(b.UMons), t.tasks)
	}
	regions := make(map[int]mem.SetRegion, len(b.Regions))
	for _, r := range b.Regions {
		if r.Start < 0 || r.Count < 0 || r.Start+r.Count > t.setsPerBank {
			return policyErr("TAPN state blob: region task=%d [%d,+%d) outside bank of %d sets", r.Task, r.Start, r.Count, t.setsPerBank)
		}
		if _, dup := regions[r.Task]; dup || r.Task < 0 || r.Task >= t.tasks {
			return policyErr("TAPN state blob: region task=%d repeated or outside 0..%d", r.Task, t.tasks-1)
		}
		regions[r.Task] = mem.SetRegion{Start: r.Start, Count: r.Count}
	}
	t.epochs = b.Epochs
	t.mapper.Regions = regions
	for i := range t.umons {
		if err := t.umons[i].RestoreState(b.UMons[i]); err != nil {
			return err
		}
	}
	return nil
}

// WarpedSlicerN implements dynamic intra-SM partitioning (Xu et al.): at
// every kernel launch (and every new drawcall batch) the partition is
// reset; during the sampling phase SM smID runs only task smID%n at CTA cap
// sampleCaps[(smID/n)%len(sampleCaps)], so all n IPC-vs-CTA-count curves
// are read from per-SM progress counters in parallel with no cross-task
// contention. The steady split is then chosen from the curves — by
// search while the sampled caps' cross product is at most searchLimit, by
// waterFill beyond — and the machine switches to fine-grained intra-SM
// sharing at that ratio.
//
// The sampling cost is re-paid on every launch, which is why workloads
// composed of many small kernels (VIO) lose to the static EVEN split in
// paper Fig. 12.
type WarpedSlicerN struct {
	g     *gpu.GPU
	tasks int
	cfg   wsConfig

	state     wsState
	sampleEnd int64

	// component-wise maximum kernel resource shape per task (for envelope
	// math).
	kernelNeed  []sm.Resources
	haveKernel  []bool
	limits      []sm.Resources
	sampleCaps  []int
	resampleCnt int
}

// NewWarpedSlicerN builds the policy attached to g.
func NewWarpedSlicerN(g *gpu.GPU, tasks int) (*WarpedSlicerN, error) {
	if tasks < 1 {
		return nil, fmt.Errorf("partition: WarpedSlicerN needs at least one task")
	}
	full := sm.Full(g.Config())
	w := &WarpedSlicerN{
		g:          g,
		tasks:      tasks,
		cfg:        wsConfig{sampleCycles: 4096},
		state:      wsSampling,
		sampleCaps: []int{1, 2, 4, 6, 8, 12, 16, 24},
		kernelNeed: make([]sm.Resources, tasks),
		haveKernel: make([]bool, tasks),
		limits:     make([]sm.Resources, tasks),
	}
	for i := range w.limits {
		w.limits[i] = sm.Fraction(full, 1, tasks)
	}
	g.ResetSMCounters()
	return w, nil
}

// Name implements gpu.Policy.
func (w *WarpedSlicerN) Name() string { return policyName("WarpedSlicer", w.tasks) }

// DescribeState implements gpu.StateDescriber: the policy's last decision
// for crash dumps — sampling vs steady, the active envelopes, and how many
// repartitions have run.
func (w *WarpedSlicerN) DescribeState() string {
	phase := "steady"
	if w.state == wsSampling {
		phase = "sampling"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s after %d resamples; envelopes", phase, w.resampleCnt)
	for t, l := range w.limits {
		fmt.Fprintf(&b, " task%d={threads:%d regs:%d shared:%d ctas:%d}", t, l.Threads, l.Regs, l.Shared, l.CTAs)
	}
	return b.String()
}

// Resamples reports how many sampling phases have run (one per launch).
func (w *WarpedSlicerN) Resamples() int { return w.resampleCnt }

// capOfSamplingSMN gives each sampling SM its CTA cap point.
func (w *WarpedSlicerN) capOfSamplingSMN(smID int) int {
	return w.sampleCaps[(smID/w.tasks)%len(w.sampleCaps)]
}

// AllowSM implements gpu.Policy.
func (w *WarpedSlicerN) AllowSM(smID, task int) bool {
	if task < 0 || task >= w.tasks {
		return false
	}
	if w.state == wsSampling {
		return smID%w.tasks == task
	}
	return true
}

// Limit implements gpu.Policy.
func (w *WarpedSlicerN) Limit(smID, task int) (sm.Resources, bool) {
	if task < 0 || task >= w.tasks {
		return sm.Resources{}, false
	}
	if w.state == wsSampling {
		full := sm.Full(w.g.Config())
		full.CTAs = w.capOfSamplingSMN(smID)
		return full, true
	}
	return w.limits[task], true
}

// OnLaunch implements gpu.Policy: every kernel launch or new rendering
// batch resets the dynamic partition and re-samples. The envelope shape
// tracks the component-wise maximum CTA footprint seen for the task:
// rendering streams interleave small vertex kernels with large fragment
// kernels, and an envelope sized only for the most recent launch could
// never place the bigger kernel's CTAs.
func (w *WarpedSlicerN) OnLaunch(now int64, k *trace.Kernel, task int) {
	if task >= 0 && task < w.tasks {
		need := sm.Need(k)
		cur := &w.kernelNeed[task]
		if need.Threads > cur.Threads {
			cur.Threads = need.Threads
		}
		if need.Regs > cur.Regs {
			cur.Regs = need.Regs
		}
		if need.Shared > cur.Shared {
			cur.Shared = need.Shared
		}
		if need.CTAs > cur.CTAs {
			cur.CTAs = need.CTAs
		}
		w.haveKernel[task] = true
	}
	w.state = wsSampling
	w.sampleEnd = now + w.cfg.sampleCycles
	w.resampleCnt++
	if t := w.g.Tracer(); t != nil {
		t.Emit(obs.Event{Cycle: now, Kind: obs.EvRepartition, Stream: -1,
			Task: task, SM: -1, CTA: -1, Name: "resample", Arg: int64(w.resampleCnt)})
	}
	w.g.ResetSMCounters()
}

// Tick implements gpu.Policy: when the sampling window closes, read the
// per-SM progress counters into the performance curves and choose the
// split.
func (w *WarpedSlicerN) Tick(now int64) {
	if w.state != wsSampling || now < w.sampleEnd {
		return
	}
	cfg := w.g.Config()
	c := wsCurves{
		perf:    make([][]float64, w.tasks),
		sampled: make([][]int, w.tasks),
		maxPerf: make([]float64, w.tasks),
	}
	counts := make([]int, len(w.sampleCaps))
	for t := range c.perf {
		c.perf[t] = make([]float64, len(w.sampleCaps))
		clear(counts)
		for smID := t; smID < cfg.NumSMs; smID += w.tasks {
			ci := (smID / w.tasks) % len(w.sampleCaps)
			c.perf[t][ci] += float64(w.g.InstsOnSM(smID, t))
			counts[ci]++
		}
		for ci, n := range counts {
			if n == 0 {
				continue
			}
			c.perf[t][ci] /= float64(n)
			c.sampled[t] = append(c.sampled[t], ci)
			c.maxPerf[t] = max(c.maxPerf[t], c.perf[t][ci])
		}
		if c.maxPerf[t] == 0 {
			c.maxPerf[t] = 1
		}
	}
	var caps []int
	if searchable(c) {
		caps = w.search(c)
	} else {
		caps = w.waterFill(c)
	}
	full := sm.Full(cfg)
	for t := range w.limits {
		w.limits[t] = envelopeFor(w.kernelNeed[t], caps[t], full, w.tasks)
	}
	w.state = wsSteady
	if tr := w.g.Tracer(); tr != nil {
		// "split 4:8 CTAs", and the caps packed 16 bits each (task 0
		// highest; exact up to four tasks, the name carries them all).
		split := strings.Trim(strings.ReplaceAll(fmt.Sprint(caps), " ", ":"), "[]")
		var arg int64
		for _, cp := range caps {
			arg = arg<<16 | int64(cp)
		}
		tr.Emit(obs.Event{Cycle: now, Kind: obs.EvRepartition, Stream: -1,
			Task: -1, SM: -1, CTA: -1, Name: "split " + split + " CTAs", Arg: arg})
	}
	w.g.ResetSMCounters()
}

// fits reports whether the envelopes for the given per-task CTA caps fit
// in one SM together.
func (w *WarpedSlicerN) fits(caps []int) bool {
	full := sm.Full(w.g.Config())
	var sum sm.Resources
	for t, c := range caps {
		e := envelopeFor(w.kernelNeed[t], c, full, w.tasks)
		sum.Threads += e.Threads
		sum.Regs += e.Regs
		sum.Shared += e.Shared
		sum.CTAs += e.CTAs
	}
	return sum.Threads <= full.Threads && sum.Regs <= full.Regs &&
		sum.Shared <= full.Shared && sum.CTAs <= full.CTAs
}

// waterFill is the rule for spaces too large to search: start every task
// at its smallest sampled cap, then repeatedly raise the task whose next
// cap yields the best normalized throughput gain while the combined
// envelopes still fit in one SM (ties: lowest task id). If even the floor
// does not fit, every task falls back to the 1/n static split.
func (w *WarpedSlicerN) waterFill(c wsCurves) []int {
	caps := make([]int, w.tasks)
	idx := make([]int, w.tasks)
	for t := range caps {
		if len(c.sampled[t]) == 0 {
			// No SM sampled this task (more tasks than SMs per cap
			// point): hold the smallest cap.
			caps[t] = w.sampleCaps[0]
			idx[t] = -1
			continue
		}
		caps[t] = w.sampleCaps[c.sampled[t][0]]
	}
	if !w.fits(caps) {
		clear(caps) // envelopeFor maps 0 to the 1/n fallback
		return caps
	}
	trial := make([]int, len(caps))
	for {
		best, bestGain := -1, 0.0
		for t := range caps {
			if idx[t] < 0 || idx[t]+1 >= len(c.sampled[t]) {
				continue
			}
			cur, next := c.sampled[t][idx[t]], c.sampled[t][idx[t]+1]
			gain := (c.perf[t][next] - c.perf[t][cur]) / c.maxPerf[t]
			if gain <= bestGain {
				continue
			}
			copy(trial, caps)
			trial[t] = w.sampleCaps[next]
			if w.fits(trial) {
				best, bestGain = t, gain
			}
		}
		if best < 0 {
			return caps
		}
		idx[best]++
		caps[best] = w.sampleCaps[c.sampled[best][idx[best]]]
	}
}

// wsNBlob is WarpedSlicerN's serialized dynamic state; like tapNBlob, the
// same bytes at two tasks as the pairwise policy's [2]-array blob.
type wsNBlob struct {
	State       uint8
	SampleEnd   int64
	KernelNeed  []sm.Resources
	HaveKernel  []bool
	Limits      []sm.Resources
	ResampleCnt int
}

// CaptureState implements gpu.StateSnapshotter.
func (w *WarpedSlicerN) CaptureState() ([]byte, error) {
	return json.Marshal(wsNBlob{
		State:       uint8(w.state),
		SampleEnd:   w.sampleEnd,
		KernelNeed:  w.kernelNeed,
		HaveKernel:  w.haveKernel,
		Limits:      w.limits,
		ResampleCnt: w.resampleCnt,
	})
}

// RestoreState implements gpu.StateSnapshotter.
func (w *WarpedSlicerN) RestoreState(blob []byte) error {
	var b wsNBlob
	if err := json.Unmarshal(blob, &b); err != nil {
		return policyErr("WarpedSlicerN state blob: %v", err)
	}
	if b.State > uint8(wsSteady) {
		return policyErr("WarpedSlicerN state blob: unknown phase %d", b.State)
	}
	if len(b.KernelNeed) != w.tasks || len(b.HaveKernel) != w.tasks || len(b.Limits) != w.tasks {
		return policyErr("WarpedSlicerN state blob: sized for %d tasks, policy runs %d", len(b.Limits), w.tasks)
	}
	w.state = wsState(b.State)
	w.sampleEnd = b.SampleEnd
	w.kernelNeed = b.KernelNeed
	w.haveKernel = b.HaveKernel
	w.limits = b.Limits
	w.resampleCnt = b.ResampleCnt
	return nil
}

var _ gpu.Policy = (*MiGN)(nil)
var _ gpu.Policy = (*PriorityEvenN)(nil)
var _ gpu.Prioritizer = (*PriorityEvenN)(nil)
var _ gpu.Policy = (*TAPN)(nil)
var _ mem.Observer = (*TAPN)(nil)
var _ gpu.StateSnapshotter = (*TAPN)(nil)
var _ gpu.Policy = (*WarpedSlicerN)(nil)
var _ gpu.StateSnapshotter = (*WarpedSlicerN)(nil)
var _ gpu.StateDescriber = (*WarpedSlicerN)(nil)
