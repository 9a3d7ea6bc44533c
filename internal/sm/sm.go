// Package sm models one Streaming Multiprocessor at cycle level: warp
// slots, greedy-then-oldest warp schedulers with scoreboarded register
// dependences, per-scheduler execution pipelines (FP32, INT, SFU, Tensor,
// LDST), a coalescing LDST path into the unified L1, CTA-wide barriers,
// and CTA issue/commit with full resource accounting (threads, registers,
// shared memory, CTA slots).
//
// The model is trace-driven: warps replay trace.Inst streams. Timing
// advances with an event-accelerated cycle loop — a scheduler that cannot
// issue reports the earliest cycle at which it could, so the GPU driver can
// skip idle spans without losing cycle accuracy of issue ordering.
package sm

import (
	"math"

	"crisp/internal/config"
	"crisp/internal/isa"
	"crisp/internal/mem"
	"crisp/internal/obs"
	"crisp/internal/trace"
)

// Resources is a bundle of the per-SM resources a CTA occupies.
type Resources struct {
	Threads int
	Regs    int
	Shared  int
	CTAs    int
}

// fits reports whether need fits within limit minus used.
func fits(used, need, limit Resources) bool {
	return used.Threads+need.Threads <= limit.Threads &&
		used.Regs+need.Regs <= limit.Regs &&
		used.Shared+need.Shared <= limit.Shared &&
		used.CTAs+need.CTAs <= limit.CTAs
}

func (r *Resources) add(o Resources) {
	r.Threads += o.Threads
	r.Regs += o.Regs
	r.Shared += o.Shared
	r.CTAs += o.CTAs
}

func (r *Resources) sub(o Resources) {
	r.Threads -= o.Threads
	r.Regs -= o.Regs
	r.Shared -= o.Shared
	r.CTAs -= o.CTAs
}

// Need computes the resource footprint of one CTA of k.
func Need(k *trace.Kernel) Resources {
	return Resources{
		Threads: k.ThreadsPerCTA,
		Regs:    k.ThreadsPerCTA * k.RegsPerThread,
		Shared:  k.SharedMem,
		CTAs:    1,
	}
}

// Full returns the whole-SM resource envelope for cfg.
func Full(cfg *config.GPU) Resources {
	return Resources{
		Threads: cfg.MaxWarpsPerSM * isa.WarpSize,
		Regs:    cfg.RegistersPerSM,
		Shared:  cfg.SharedMemPerSM,
		CTAs:    cfg.MaxCTAsPerSM,
	}
}

// Fraction scales an envelope by num/den (used for intra-SM partitions).
func Fraction(r Resources, num, den int) Resources {
	if den <= 0 {
		return Resources{}
	}
	return Resources{
		Threads: r.Threads * num / den,
		Regs:    r.Regs * num / den,
		Shared:  r.Shared * num / den,
		CTAs:    r.CTAs * num / den,
	}
}

const never = int64(math.MaxInt64 / 4)

// Never is the "no useful work, ever" sentinel a Core's Step returns when
// every resident warp is permanently blocked (or the SM is empty). The GPU
// driver compares against it to distinguish a quiescent machine from a
// livelocked one.
const Never = never

// InstStats receives per-instruction accounting, keyed by the issuing SM
// and the owning stream.
type InstStats interface {
	OnIssue(smID, stream, task int, op isa.Opcode, lanes int)
	// OnStall reports one scheduler issue slot in which no resident warp
	// could issue; stream/task identify the earliest-ready warp (the one
	// whose binding constraint is actually delaying progress). Empty
	// schedulers are accounted locally (see Core.EmptySlots) and do not
	// reach this method.
	OnStall(smID, stream, task int, cause obs.StallCause)
	// OnStallN reports n identical stall slots at once. A sleeping core's
	// binding stall cause and warp are constant over the sleep window (no
	// per-core state changes while it sleeps), so the engine bulk-accounts
	// the skipped slots in one call when the core wakes. Always invoked
	// from a serial context; counters are commutative, so bulk accounting
	// is indistinguishable from n OnStall calls.
	OnStallN(smID, stream, task int, cause obs.StallCause, n int64)
}

// ctaRT is the runtime state of one resident CTA.
type ctaRT struct {
	kernel     *trace.Kernel
	ctaIdx     int
	task       int
	stream     int
	res        Resources
	warpsLeft  int
	barArrived int
	barWaiting []*warpRT
	onComplete func(now int64)
}

// warpRT is the runtime state of one resident warp. The hot per-warp
// state the scheduler sweeps every issue slot — the register scoreboard
// and the from-memory marks — does not live here: it is laid out in
// dense per-scheduler SoA blocks (scheduler.sb / scheduler.memBits)
// indexed by the warp's slot, so the ready-warp sweep walks contiguous
// memory instead of pointer-chasing ~2.3KB warp structs.
type warpRT struct {
	insts        []trace.Inst
	warpIdx      int // index within the CTA's warp list (trace identity)
	pc           int
	blockedUntil int64
	done         bool
	stream       int
	task         int
	cta          *ctaRT
	arrival      int64
	// sched/slot locate this warp's scoreboard block inside its
	// scheduler's SoA arrays. slot tracks the warp's index in
	// scheduler.warps (retire compacts both in lockstep).
	sched *scheduler
	slot  int
}

// SchedPolicy selects the warp-scheduling discipline.
type SchedPolicy uint8

const (
	// SchedGTO is greedy-then-oldest (the Accel-Sim default): stick with
	// the last issued warp until it stalls, then take the oldest ready.
	SchedGTO SchedPolicy = iota
	// SchedLRR is loose round-robin: rotate the starting warp each
	// cycle, issuing from the first ready one.
	SchedLRR
)

// regsPerWarp is the scoreboard width of one warp slot in the SoA block.
const regsPerWarp = 256

// memWords is the number of uint64 words in one warp slot's from-memory
// bitmap (256 registers / 64 bits).
const memWords = regsPerWarp / 64

// scheduler is one of the SM's warp schedulers with its private pipelines.
//
// The per-warp hot state is structure-of-arrays: sb holds regsPerWarp
// scoreboard entries per warp slot and memBits holds the matching
// from-memory bitmaps, both indexed by warpRT.slot. memo holds each
// slot's warp-private issue constraint (see warpMemo), which only that
// warp's own state can change; an issue by another warp moves nothing but
// unitFree, which earliestOf reads fresh at every query.
type scheduler struct {
	core     *Core
	warps    []*warpRT
	last     *warpRT
	rr       int // round-robin cursor (SchedLRR)
	unitFree [isa.UnitCount]int64

	sb      []int64    // regsPerWarp per slot: cycle each register is ready
	memBits []uint64   // memWords per slot: pending write is from memory
	memo    []warpMemo // one per slot

	// legacy disables the memo (every step recomputes from the
	// scoreboard), making the -no-skip oracle independent of the memo
	// invalidation logic it is used to verify.
	legacy bool
}

// warpMemo is the part of a warp's earliest-issue answer that depends on
// the warp alone: the latest of its barrier release and the scoreboard
// entries of its current instruction's registers, which of them binds,
// and the pipeline the instruction needs. It stays valid until the warp
// issues (pc and blockedUntil move), one of its registers is written
// (setReg, including phase-B fill commits) or a barrier releases it.
type warpMemo struct {
	e     int64
	cause obs.StallCause
	unit  isa.Unit // UnitNone when the instruction waits for no pipeline
	ok    bool
}

// regReady reads one scoreboard entry.
func (s *scheduler) regReady(slot int, r isa.Reg) int64 {
	return s.sb[slot*regsPerWarp+int(r)]
}

// regFromMem reads one from-memory mark.
func (s *scheduler) regFromMem(slot int, r isa.Reg) bool {
	return s.memBits[slot*memWords+int(r)/64]&(1<<(uint(r)%64)) != 0
}

// setReg writes one scoreboard entry plus its from-memory mark and
// invalidates the slot's memo (the write may shorten it).
func (s *scheduler) setReg(slot int, r isa.Reg, ready int64, fromMem bool) {
	s.sb[slot*regsPerWarp+int(r)] = ready
	w := slot*memWords + int(r)/64
	bit := uint64(1) << (uint(r) % 64)
	if fromMem {
		s.memBits[w] |= bit
	} else {
		s.memBits[w] &^= bit
	}
	s.memo[slot].ok = false
}

// growSlot appends one zeroed warp slot (all registers ready, nothing
// from memory, memo invalid) and returns its index.
func (s *scheduler) growSlot() int {
	slot := len(s.warps)
	var zero [regsPerWarp]int64
	s.sb = append(s.sb, zero[:]...)
	var noBits [memWords]uint64
	s.memBits = append(s.memBits, noBits[:]...)
	s.memo = append(s.memo, warpMemo{})
	return slot
}

// dropSlot removes warp slot i, shifting later slots down one (retire
// preserves arrival order, so the SoA blocks and the memos shift in
// lockstep with the warps slice). Callers must re-number the shifted
// warps' slot fields.
func (s *scheduler) dropSlot(i int) {
	n := len(s.memo)
	copy(s.sb[i*regsPerWarp:], s.sb[(i+1)*regsPerWarp:])
	s.sb = s.sb[:(n-1)*regsPerWarp]
	copy(s.memBits[i*memWords:], s.memBits[(i+1)*memWords:])
	s.memBits = s.memBits[:(n-1)*memWords]
	copy(s.memo[i:], s.memo[i+1:])
	s.memo = s.memo[:n-1]
}

// Core is one SM.
type Core struct {
	ID  int
	cfg *config.GPU

	memsys *mem.System
	stats  InstStats

	scheds []scheduler

	// tasks tracks per-task resource usage and resident-warp counts in a
	// dense lo-band array (task ids are small) with a sorted hi-band
	// fallback, keeping map ops off the CTA issue/retire path.
	tasks      taskAccounts
	usageTotal Resources
	// LimitFor returns the resource envelope available to a task on this
	// SM. Policies install it; nil means the full SM for every task.
	LimitFor func(task int) Resources

	resident   int // total resident warps, so Busy is O(1)
	arrivalSeq int64
	// retired counts warps that have exited, since construction. It exists
	// for the GPU's CTA dispatcher: every retire frees something CanAccept
	// reads. Written only by this core's own Step (so phase A may bump it),
	// derived bookkeeping that is never serialized.
	retired int64

	// wakeAt is the earliest cycle this core could do useful work, as
	// reported by its last Step. The engine skips stepping a busy core
	// while now < wakeAt; each skipped step accrues one unit of debt in
	// pendingSkipped, bulk-accounted by FlushSkipDebt before the next
	// step, observation, or resident-set mutation. wakeAt is maintained
	// identically with skipping disabled (the -no-skip oracle) so state
	// digests match bit-for-bit across modes.
	wakeAt         int64
	pendingSkipped int64

	// Observability-only skip counters (never serialized or digested):
	// stepsExecuted counts real Step calls, stepsSkipped counts engine
	// steps this core slept through, bulkStallSlots counts stall slots
	// synthesized by FlushSkipDebt, and sleepHist buckets flushed sleep
	// lengths by log2.
	stepsExecuted  int64
	stepsSkipped   int64
	bulkStallSlots int64
	sleepHist      [sleepHistBuckets]int64

	// log, when non-nil, switches the core into buffered (two-phase) mode:
	// issue slots record their cross-SM effects here instead of applying
	// them, and the engine drains the log serially via CommitStep. See
	// log.go for the protocol and its determinism argument.
	log *IssueLog

	// TexFilterLatency is added to TEX data-return latency to model the
	// texture unit's filtering pipeline.
	TexFilterLatency int64
	// Sched selects the warp-scheduling discipline (default GTO).
	Sched SchedPolicy

	// schedSlots counts scheduler issue slots examined (one per scheduler
	// per Step); emptySlots counts the subset in which the scheduler had
	// no resident warps. Every slot resolves to exactly one of: an issue
	// (InstStats.OnIssue), a per-stream stall (InstStats.OnStall), or an
	// empty slot — the conservation law the obs layer's tests check.
	schedSlots int64
	emptySlots int64
}

// NewCore builds one SM attached to the shared memory system.
func NewCore(id int, cfg *config.GPU, memsys *mem.System, stats InstStats) *Core {
	c := &Core{
		ID:               id,
		cfg:              cfg,
		memsys:           memsys,
		stats:            stats,
		scheds:           make([]scheduler, cfg.SchedulersPerSM),
		TexFilterLatency: 24,
	}
	for i := range c.scheds {
		c.scheds[i].core = c
	}
	return c
}

// SchedSlots reports the total scheduler issue slots examined on this SM.
func (c *Core) SchedSlots() int64 { return c.schedSlots }

// EmptySlots reports the issue slots in which a scheduler had no warps.
func (c *Core) EmptySlots() int64 { return c.emptySlots }

// ResidentWarps reports the warps currently resident for a task.
func (c *Core) ResidentWarps(task int) int {
	if a := c.tasks.peek(task); a != nil {
		return a.warps
	}
	return 0
}

// TotalResidentWarps reports all resident warps.
func (c *Core) TotalResidentWarps() int { return c.resident }

// RetiredWarps reports how many warps have exited on this SM so far.
func (c *Core) RetiredWarps() int64 { return c.retired }

// Usage reports the resources currently used by a task.
func (c *Core) Usage(task int) Resources {
	if a := c.tasks.peek(task); a != nil {
		return a.usage
	}
	return Resources{}
}

// TotalUsage reports the combined resources in use across all tasks
// (crash-dump snapshots).
func (c *Core) TotalUsage() Resources { return c.usageTotal }

// BarrierBlocked counts resident warps parked indefinitely at a CTA
// barrier (waiting for arrivals that have not happened). Every resident
// warp blocked this way is the signature of a barrier livelock, which the
// GPU's forward-progress watchdog converts into a structured error.
func (c *Core) BarrierBlocked() int {
	n := 0
	for i := range c.scheds {
		for _, w := range c.scheds[i].warps {
			if !w.done && w.blockedUntil >= never {
				n++
			}
		}
	}
	return n
}

func (c *Core) limitFor(task int) Resources {
	if c.LimitFor != nil {
		return c.LimitFor(task)
	}
	return Full(c.cfg)
}

// CanAccept reports whether a CTA of k (for the given task) fits right now
// under both the task's partition limit and the SM's physical capacity.
func (c *Core) CanAccept(k *trace.Kernel, task int) bool {
	need := Need(k)
	if c.TotalResidentWarps()+k.WarpsPerCTA() > c.cfg.MaxWarpsPerSM {
		return false
	}
	taskUsage := Resources{}
	if a := c.tasks.peek(task); a != nil {
		taskUsage = a.usage
	}
	return fits(taskUsage, need, c.limitFor(task)) && fits(c.usageTotal, need, Full(c.cfg))
}

// IssueCTA places CTA ctaIdx of kernel k on this SM. onComplete runs when
// the CTA's last warp exits. The caller must have checked CanAccept.
func (c *Core) IssueCTA(now int64, k *trace.Kernel, ctaIdx, task int, onComplete func(now int64)) {
	// A new CTA changes what the schedulers can do, so any sleep debt must
	// be settled against the pre-arrival state (the stall disposition over
	// the slept window), and the core must wake for the upcoming step.
	c.FlushSkipDebt()
	c.wakeAt = 0

	need := Need(k)
	cta := &ctaRT{
		kernel:     k,
		ctaIdx:     ctaIdx,
		task:       task,
		stream:     k.Stream,
		res:        need,
		warpsLeft:  len(k.CTAs[ctaIdx].Warps),
		onComplete: onComplete,
	}
	a := c.tasks.get(task)
	a.usage.add(need)
	c.usageTotal.add(need)

	for wi := range k.CTAs[ctaIdx].Warps {
		w := &warpRT{
			insts:   k.CTAs[ctaIdx].Warps[wi].Insts,
			warpIdx: wi,
			stream:  k.Stream,
			task:    task,
			cta:     cta,
			arrival: c.arrivalSeq,
		}
		c.arrivalSeq++
		s := &c.scheds[wi%len(c.scheds)]
		w.sched = s
		w.slot = s.growSlot()
		s.warps = append(s.warps, w)
		a.warps++
		c.resident++
	}
}

// Step runs every scheduler for cycle now and returns the earliest future
// cycle at which this SM could do useful work (never if it is empty).
func (c *Core) Step(now int64) int64 {
	c.stepsExecuted++
	next := never
	for i := range c.scheds {
		if n := c.scheds[i].step(now); n < next {
			next = n
		}
	}
	return next
}

// WakeAt reports the core's current wake cycle (see the field comment).
func (c *Core) WakeAt() int64 { return c.wakeAt }

// SetWakeAt records the core's wake cycle. The engine calls it with
// Step's return value after every real step; the driver calls it to
// force a wake when a cross-core event (policy repartition) could let
// the core make progress earlier than it predicted.
func (c *Core) SetWakeAt(v int64) { c.wakeAt = v }

// SetLegacyStep switches the schedulers onto the legacy stepping path:
// the per-slot earliest memo is bypassed and every step recomputes from
// the scoreboard. The -no-skip oracle runs this way so its digests are
// produced without trusting the memo invalidation it verifies.
func (c *Core) SetLegacyStep(v bool) {
	for i := range c.scheds {
		c.scheds[i].legacy = v
	}
}

// Skip records one engine step this core slept through. The debt is
// bulk-accounted by FlushSkipDebt before anything can observe or change
// the core's state.
func (c *Core) Skip() { c.pendingSkipped++ }

// sleepHistBuckets is the number of log2 buckets in the sleep-length
// histogram: bucket i counts flushed sleeps of 2^i..2^(i+1)-1 skipped
// steps (the last bucket is open-ended).
const sleepHistBuckets = 16

func histBucket(n int64) int {
	b := 0
	for n > 1 && b < sleepHistBuckets-1 {
		n >>= 1
		b++
	}
	return b
}

// FlushSkipDebt settles the core's accumulated sleep debt: for each
// skipped engine step it synthesizes the scheduler slots the skipped
// Step calls would have produced. While the core sleeps no per-core
// state changes — warps, scoreboards, pipelines, and cursors are all
// frozen, and the stall disposition is independent of the cycle number —
// so every skipped step would have charged the same (warp, cause) stall
// on every scheduler. Bulk accounting therefore reproduces the
// cycle-by-cycle counters exactly (the -no-skip oracle digests
// identically). Always called from a serial context.
func (c *Core) FlushSkipDebt() {
	n := c.pendingSkipped
	if n == 0 {
		return
	}
	c.pendingSkipped = 0
	c.stepsSkipped += n
	c.sleepHist[histBucket(n)]++
	for i := range c.scheds {
		s := &c.scheds[i]
		c.schedSlots += n
		if len(s.warps) == 0 {
			c.emptySlots += n
			continue
		}
		w, cause := s.stallDisposition()
		if w == nil {
			c.emptySlots += n
			continue
		}
		c.bulkStallSlots += n
		if c.stats != nil {
			c.stats.OnStallN(c.ID, w.stream, w.task, cause, n)
		}
	}
}

// SkipCounters reports the core's event-skipping counters: real Step
// calls executed, engine steps slept through, and stall slots
// synthesized by bulk accounting.
func (c *Core) SkipCounters() (executed, skipped, bulkStalls int64) {
	return c.stepsExecuted, c.stepsSkipped, c.bulkStallSlots
}

// SleepHist returns the log2 histogram of flushed sleep lengths.
func (c *Core) SleepHist() [sleepHistBuckets]int64 { return c.sleepHist }

// stallDisposition recomputes which (warp, cause) a non-issuing step
// would charge, mirroring step/stepLRR's selection exactly: the
// strict-< minimum of earliestOf over live warps in sweep order (GTO
// visits non-last warps in arrival order, then the last-issued warp;
// LRR sweeps from one past the cursor). nil means every slot would have
// been empty (no live warps). The result is valid for the whole sleep
// window because nothing the selection reads changes while the core
// sleeps.
func (s *scheduler) stallDisposition() (*warpRT, obs.StallCause) {
	best := never
	var bestWarp *warpRT
	var bestCause obs.StallCause
	if s.core.Sched == SchedLRR {
		n := len(s.warps)
		for i := 0; i < n; i++ {
			w := s.warps[(s.rr+1+i)%n]
			if w.done {
				continue
			}
			if e, cause := s.earliestOf(w); e < best {
				best, bestWarp, bestCause = e, w, cause
			}
		}
		return bestWarp, bestCause
	}
	for _, w := range s.warps {
		if w.done || w == s.last {
			continue
		}
		if e, cause := s.earliestOf(w); e < best {
			best, bestWarp, bestCause = e, w, cause
		}
	}
	if s.last != nil && !s.last.done {
		if e, cause := s.earliestOf(s.last); e < best {
			best, bestWarp, bestCause = e, s.last, cause
		}
	}
	return bestWarp, bestCause
}

// Busy reports whether any warps are resident. It is O(1) so the engine's
// per-step busy scan stays cheap even on a mostly idle machine.
func (c *Core) Busy() bool { return c.resident > 0 }

// step attempts one issue for cycle now; it returns the next cycle this
// scheduler wants to run (now+1 after an issue, the stall-resolution cycle
// otherwise, never when it has no warps). Every invocation is one issue
// slot, accounted as exactly one of issue / stall / empty.
func (s *scheduler) step(now int64) int64 {
	core := s.core
	core.schedSlots++
	if len(s.warps) == 0 {
		core.emptySlots++
		return never
	}
	if core.Sched == SchedLRR {
		return s.stepLRR(now)
	}
	// Greedy: stick with the last issued warp while it can issue.
	if s.last != nil && !s.last.done {
		if ok, _, _ := s.tryIssue(s.last, now); ok {
			return now + 1
		}
	}
	// Then oldest-first among the rest; the warps slice preserves
	// arrival order, so a single in-order pass realizes GTO.
	best := never
	var bestWarp *warpRT
	var bestCause obs.StallCause
	for _, w := range s.warps {
		if w.done || w == s.last {
			continue
		}
		ok, earliest, cause := s.tryIssue(w, now)
		if ok {
			s.last = w
			return now + 1
		}
		if earliest < best {
			best, bestWarp, bestCause = earliest, w, cause
		}
	}
	if s.last != nil && !s.last.done {
		if _, e, cause := s.earliestFor(s.last, now); e < best {
			best, bestWarp, bestCause = e, s.last, cause
		}
	}
	s.noteStall(bestWarp, bestCause)
	if best <= now {
		best = now + 1
	}
	return best
}

// stepLRR rotates the starting warp each invocation and issues from the
// first ready warp after the cursor.
func (s *scheduler) stepLRR(now int64) int64 {
	n := len(s.warps)
	best := never
	var bestWarp *warpRT
	var bestCause obs.StallCause
	for i := 0; i < n; i++ {
		idx := (s.rr + 1 + i) % n
		w := s.warps[idx]
		if w.done {
			continue
		}
		ok, earliest, cause := s.tryIssue(w, now)
		if ok {
			// Advance the cursor to the issued warp. idx is its position
			// unless the issue was an EXIT, whose retire compacts the slice;
			// the cursor then stays where it is (the successor slides into
			// idx, and the next sweep starts one past it, as LRR should).
			if idx < len(s.warps) && s.warps[idx] == w {
				s.rr = idx
			}
			return now + 1
		}
		if earliest < best {
			best, bestWarp, bestCause = earliest, w, cause
		}
	}
	s.noteStall(bestWarp, bestCause)
	if best <= now {
		best = now + 1
	}
	return best
}

// noteStall attributes a non-issuing slot to the earliest-ready warp's
// stream (stall-cause attribution).
func (s *scheduler) noteStall(w *warpRT, cause obs.StallCause) {
	if w == nil {
		// All resident warps raced to done within this slot; count the
		// slot as empty rather than losing it.
		s.core.emptySlots++
		return
	}
	if st := s.core.stats; st != nil {
		if lg := s.core.log; lg != nil {
			lg.addStall(w, cause)
			return
		}
		st.OnStall(s.core.ID, w.stream, w.task, cause)
	}
}

// earliestFor computes when w could issue its current instruction and,
// when it cannot issue now, which constraint binds (the stall cause).
func (s *scheduler) earliestFor(w *warpRT, now int64) (canNow bool, earliest int64, cause obs.StallCause) {
	e, cause := s.earliestOf(w)
	return e <= now, e, cause
}

// earliestOf computes the earliest cycle w could issue and the binding
// constraint. Both are independent of the current cycle (all inputs are
// absolute cycle numbers). The warp-private part is memoized per slot;
// the pipeline's next free cycle is the one input another warp's issue
// moves, so it is combined in here, last and with the same strict >, as
// a from-scratch evaluation orders it: the answer is StallPipeBusy iff
// unitFree[unit] exceeds every register and barrier constraint. In legacy
// (-no-skip oracle) mode the memo is bypassed entirely — every step
// recomputes from the scoreboard — so a memo invalidation bug shows up as
// a digest divergence against the oracle instead of being shared by both
// sides of the comparison.
func (s *scheduler) earliestOf(w *warpRT) (earliest int64, cause obs.StallCause) {
	var m warpMemo
	if s.legacy {
		m = s.warpEarliest(w)
	} else {
		p := &s.memo[w.slot]
		if !p.ok {
			*p = s.warpEarliest(w)
		}
		m = *p
	}
	if m.unit != isa.UnitNone {
		if f := s.unitFree[m.unit]; f > m.e {
			return f, obs.StallPipeBusy
		}
	}
	return m.e, m.cause
}

// warpEarliest evaluates w's warp-private issue constraint from scratch.
func (s *scheduler) warpEarliest(w *warpRT) warpMemo {
	in := &w.insts[w.pc]
	// blockedUntil is only ever set by barriers, so it is the barrier
	// cause whenever it binds.
	m := warpMemo{e: w.blockedUntil, cause: obs.StallBarrier, ok: true}
	for _, r := range [4]isa.Reg{in.Dst, in.SrcA, in.SrcB, in.SrcC} {
		if r == isa.RegNone {
			continue
		}
		if ready := s.regReady(w.slot, r); ready > m.e {
			m.e = ready
			m.cause = s.regCause(w.slot, r)
		}
	}
	if unit := isa.UnitOf(in.Op); unit != isa.UnitCTRL {
		m.unit = unit
	}
	return m
}

// regCause distinguishes waiting on memory from a plain scoreboard
// dependence for a pending register.
func (s *scheduler) regCause(slot int, r isa.Reg) obs.StallCause {
	if s.regFromMem(slot, r) {
		return obs.StallMemPending
	}
	return obs.StallScoreboard
}

// tryIssue issues w's current instruction at cycle now if possible.
// On failure it returns the earliest cycle issue could succeed and the
// binding stall cause.
func (s *scheduler) tryIssue(w *warpRT, now int64) (bool, int64, obs.StallCause) {
	ok, earliest, cause := s.earliestFor(w, now)
	if !ok {
		return false, earliest, cause
	}
	in := &w.insts[w.pc]
	core := s.core
	// The issue moves w's pc (and, at a barrier, its blockedUntil), so its
	// memo dies here — before an EXIT's retire can re-number the slot.
	s.memo[w.slot].ok = false

	unit := isa.UnitOf(in.Op)
	switch in.Op {
	case isa.OpEXIT:
		w.done = true
		s.retire(w, now)
	case isa.OpBAR:
		cta := w.cta
		cta.barArrived++
		if cta.barArrived == cta.warpsLeft {
			// Last arrival releases everyone, on whichever scheduler of
			// this core each waiter lives.
			for _, bw := range cta.barWaiting {
				bw.blockedUntil = now + 1
				bw.sched.memo[bw.slot].ok = false
			}
			cta.barWaiting = cta.barWaiting[:0]
			cta.barArrived = 0
			w.blockedUntil = now + 1
		} else {
			cta.barWaiting = append(cta.barWaiting, w)
			w.blockedUntil = never
		}
	case isa.OpBRA:
		// Traces are post-branch: BRA only costs its pipeline slot.
	case isa.OpLDG, isa.OpTEX:
		var lineBuf [isa.WarpSize]uint64
		lines := coalesce(lineBuf[:0], in.Addrs, uint64(core.cfg.LineSize))
		s.unitFree[isa.UnitLDST] = now + int64(len(lines))
		if lg := core.log; lg != nil {
			// Request half: the data-ready cycle (the response) is written
			// into the scoreboard by CommitStep, before any scheduler can
			// look at it again.
			lg.addLoad(w, in.Op, in.Class, in.Dst, lines, now+int64(isa.Latency(in.Op)))
			break
		}
		ready := now + int64(isa.Latency(in.Op))
		for _, la := range lines {
			r := core.memsys.Load(now, core.ID, w.stream, in.Class, la*uint64(core.cfg.LineSize))
			if r > ready {
				ready = r
			}
		}
		if in.Op == isa.OpTEX {
			ready += core.TexFilterLatency
		}
		if in.Dst != isa.RegNone {
			s.setReg(w.slot, in.Dst, ready, true)
		}
	case isa.OpSTG:
		var lineBuf [isa.WarpSize]uint64
		lines := coalesce(lineBuf[:0], in.Addrs, uint64(core.cfg.LineSize))
		s.unitFree[isa.UnitLDST] = now + int64(len(lines))
		if lg := core.log; lg != nil {
			lg.addStore(w, in.Class, lines)
			break
		}
		for _, la := range lines {
			core.memsys.Store(now, core.ID, w.stream, in.Class, la*uint64(core.cfg.LineSize))
		}
	case isa.OpLDS:
		conflicts := sharedConflictDegree(in)
		s.unitFree[isa.UnitLDST] = now + int64(conflicts)
		if in.Dst != isa.RegNone {
			s.setReg(w.slot, in.Dst, now+int64(isa.Latency(in.Op))+int64(conflicts-1)*2, true)
		}
	case isa.OpSTS:
		s.unitFree[isa.UnitLDST] = now + int64(sharedConflictDegree(in))
	case isa.OpLDC:
		// Constant cache: modeled as a fixed-latency hit.
		s.unitFree[isa.UnitLDST] = now + int64(isa.InitiationInterval(in.Op))
		if in.Dst != isa.RegNone {
			s.setReg(w.slot, in.Dst, now+int64(isa.Latency(in.Op)), true)
		}
	default:
		s.unitFree[unit] = now + int64(isa.InitiationInterval(in.Op))
		if in.Dst != isa.RegNone {
			s.setReg(w.slot, in.Dst, now+int64(isa.Latency(in.Op)), false)
		}
	}

	if core.stats != nil {
		if lg := core.log; lg != nil {
			lg.addIssue(w, in.Op, in.ActiveLanes())
		} else {
			core.stats.OnIssue(core.ID, w.stream, w.task, in.Op, in.ActiveLanes())
		}
	}
	w.pc++
	return true, now, 0
}

// retire removes a finished warp and commits its CTA when it was the last.
func (s *scheduler) retire(w *warpRT, now int64) {
	for i, x := range s.warps {
		if x == w {
			s.warps = append(s.warps[:i], s.warps[i+1:]...)
			s.dropSlot(i)
			for j := i; j < len(s.warps); j++ {
				s.warps[j].slot = j
			}
			break
		}
	}
	if s.last == w {
		s.last = nil
	}
	core := s.core
	if a := core.tasks.peek(w.task); a != nil {
		a.warps--
	}
	core.resident--
	core.retired++
	cta := w.cta
	cta.warpsLeft--
	if cta.warpsLeft == 0 {
		if a := core.tasks.peek(cta.task); a != nil {
			a.usage.sub(cta.res)
		}
		core.usageTotal.sub(cta.res)
		if cta.onComplete != nil {
			// The completion callback mutates launch/stream state shared
			// across SMs, so in buffered mode it is deferred to phase B.
			if lg := core.log; lg != nil {
				lg.addComplete(cta.onComplete)
			} else {
				cta.onComplete(now)
			}
		}
	}
}

// sharedConflictDegree computes the bank-conflict serialization of a
// shared-memory access: 32 banks of 4-byte words; lanes touching distinct
// words in the same bank serialize, lanes touching the same word
// broadcast. Accesses without offsets are modeled conflict-free. A warp
// has at most WarpSize lanes (trace.Kernel.Validate holds Addrs to the
// active-lane count), so the distinct words fit a stack array, chained
// per bank so that a lane is compared only against its own bank's words.
func sharedConflictDegree(in *trace.Inst) int {
	const banks = 32
	addrs := in.Addrs
	if len(addrs) > isa.WarpSize {
		addrs = addrs[:isa.WarpSize]
	}
	var (
		words [isa.WarpSize]uint64 // distinct words, in first-touch order
		prev  [isa.WarpSize]uint8  // 1-based index of the bank's previous word, 0 = none
		head  [banks]uint8         // 1-based index of the bank's latest word, 0 = none
		count [banks]uint8         // distinct words per bank
	)
	n, degree := 0, 1
next:
	for _, off := range addrs {
		word := off / 4
		b := word % banks
		for i := head[b]; i != 0; i = prev[i-1] {
			if words[i-1] == word {
				continue next
			}
		}
		words[n], prev[n] = word, head[b]
		n++
		head[b] = uint8(n)
		count[b]++
		if int(count[b]) > degree {
			degree = int(count[b])
		}
	}
	return degree
}

// coalesce reduces per-lane byte addresses to unique line addresses,
// appended to lines (callers pass a WarpSize-capacity stack buffer). It
// preserves first-touch order; memory traces have ≤32 lanes, so a linear
// scan beats a map.
func coalesce(lines, addrs []uint64, lineSize uint64) []uint64 {
	for _, a := range addrs {
		la := a / lineSize
		found := false
		for _, l := range lines {
			if l == la {
				found = true
				break
			}
		}
		if !found {
			lines = append(lines, la)
		}
	}
	return lines
}
