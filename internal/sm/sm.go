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

	"crisp/internal/band"
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
	// per-core state changes while it sleeps), so the run loop bulk-accounts
	// the skipped slots in one call when the core wakes. Counters are
	// commutative, so bulk accounting is indistinguishable from n OnStall
	// calls.
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
// state the scheduler scans every issue slot does not live here: the
// issue-constraint memos are a dense per-scheduler array indexed by the
// warp's slot, and the register scoreboard and from-memory marks are
// per-scheduler SoA blocks indexed by the warp's block, so the scan walks
// contiguous memory and touches a warpRT only to refill a memo or to issue.
type warpRT struct {
	// What a memo refill and an ALU issue read, in the record's first
	// cache line (the record is 128 bytes, so it is aligned to its lines).
	insts        []trace.Inst
	pc           int
	blockedUntil int64
	// sched owns the warp; slot is its index in sched.warps and sched.memo
	// (retire compacts both, re-numbering later warps); blk is its
	// scoreboard block, which stays put for the warp's lifetime.
	slot int
	blk  int
	// tabled: the trace carries a line table derived at this core's line
	// size (see trace/linetable.go).
	tabled  bool
	warpIdx int32 // index within the CTA's warp list (trace identity)

	// tw is the warp's trace, whose streams hold what a memory instruction
	// touches, and cur where the instruction at pc finds it there: its
	// line-table entry always, its address record while the warp derives
	// from records (see fromTable).
	tw      *trace.Warp
	cur     trace.Cursor
	stream  int
	task    int
	cta     *ctaRT
	sched   *scheduler
	arrival int64
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

// regsPerWarp is the scoreboard width of one warp's block.
const regsPerWarp = 256

// memWords is the number of uint64 words in one block's from-memory
// bitmap (256 registers / 64 bits).
const memWords = regsPerWarp / 64

// scheduler is one of the SM's warp schedulers with its private pipelines.
//
// memo holds each slot's warp-private issue constraint (see warpMemo),
// which only that warp's own state can change; an issue by another warp
// moves nothing but unitFree, which the scan reads fresh at every query.
// sb holds regsPerWarp scoreboard entries per block and memBits the
// matching from-memory bitmaps, both indexed by warpRT.blk; a retiring
// warp's block goes on freeBlocks for the next arrival, so no block ever
// moves.
type scheduler struct {
	core     *Core
	warps    []*warpRT
	last     *warpRT
	rr       int // round-robin cursor (SchedLRR)
	unitFree [isa.UnitCount]int64

	memo       []warpMemo // one per slot
	sb         []int64    // regsPerWarp per block: cycle each register is ready
	memBits    []uint64   // memWords per block: pending write is from memory
	freeBlocks []int

	// The stall record: the answer of the scheduler's last non-issuing
	// scan. While now < stallUntil a slot is that stall again — nothing the
	// scan reads has changed, because every write that could change it goes
	// through touch, which clears the record (stallUntil 0 = none).
	// Derived state, never serialized or digested; never set in legacy mode.
	stallUntil int64
	stallWarp  *warpRT // nil: every warp is parked forever, the slot counts as empty
	stallCause obs.StallCause

	// legacy makes the -no-skip oracle independent of what it verifies:
	// memos are recomputed from the scoreboard at every visit, no stall is
	// replayed, and lines and bank conflicts are derived from the addresses
	// at issue instead of read from the trace's line table.
	legacy bool
}

// warpMemo is the part of a warp's earliest-issue answer that depends on
// the warp alone: the latest of its barrier release and the scoreboard
// entries of its current instruction's registers, which of them binds,
// and the pipeline the instruction needs. It stays valid until the warp
// issues (pc and blockedUntil move), one of its registers is written
// (setReg) or a barrier releases it.
type warpMemo struct {
	e     int64
	cause obs.StallCause
	unit  isa.Unit // UnitNone when the instruction waits for no pipeline
	ok    bool
}

// touch is the one place a slot's memo is cleared: the slot's warp issued,
// one of its registers was written, a barrier released it, or the slot is
// new. Whatever changed the slot's answer may change the scan's, so the
// scheduler's stall record dies with it.
func (s *scheduler) touch(slot int) {
	s.memo[slot].ok = false
	s.stallUntil = 0
}

// regReady reads one scoreboard entry.
func (s *scheduler) regReady(blk int, r isa.Reg) int64 {
	return s.sb[blk*regsPerWarp+int(r)]
}

// regFromMem reads one from-memory mark.
func (s *scheduler) regFromMem(blk int, r isa.Reg) bool {
	return s.memBits[blk*memWords+int(r)/64]&(1<<(uint(r)%64)) != 0
}

// setReg writes one of w's scoreboard entries plus its from-memory mark
// (the write may shorten the warp's memo).
func (s *scheduler) setReg(w *warpRT, r isa.Reg, ready int64, fromMem bool) {
	s.sb[w.blk*regsPerWarp+int(r)] = ready
	word := w.blk*memWords + int(r)/64
	bit := uint64(1) << (uint(r) % 64)
	if fromMem {
		s.memBits[word] |= bit
	} else {
		s.memBits[word] &^= bit
	}
	s.touch(w.slot)
}

// admit appends w as the scheduler's youngest warp on a zeroed scoreboard
// block (all registers ready, nothing from memory): a retired warp's
// block when one is free, else a new one.
func (s *scheduler) admit(w *warpRT) {
	w.sched = s
	if n := len(s.freeBlocks); n > 0 {
		w.blk = s.freeBlocks[n-1]
		s.freeBlocks = s.freeBlocks[:n-1]
		clear(s.sb[w.blk*regsPerWarp : (w.blk+1)*regsPerWarp])
		clear(s.memBits[w.blk*memWords : (w.blk+1)*memWords])
	} else {
		w.blk = len(s.memBits) / memWords
		var zero [regsPerWarp]int64
		s.sb = append(s.sb, zero[:]...)
		var noBits [memWords]uint64
		s.memBits = append(s.memBits, noBits[:]...)
	}
	w.slot = len(s.warps)
	s.warps = append(s.warps, w)
	s.memo = append(s.memo, warpMemo{})
	s.touch(w.slot)
}

// drop removes w from the scheduler. Retire preserves arrival order, so
// later warps and their memos shift down one slot; the scoreboard block
// is only handed back.
func (s *scheduler) drop(w *warpRT) {
	i, n := w.slot, len(s.warps)
	copy(s.warps[i:], s.warps[i+1:])
	s.warps[n-1] = nil
	s.warps = s.warps[:n-1]
	copy(s.memo[i:], s.memo[i+1:])
	s.memo = s.memo[:n-1]
	for j := i; j < n-1; j++ {
		s.warps[j].slot = j
	}
	s.freeBlocks = append(s.freeBlocks, w.blk)
	if s.last == w {
		s.last = nil
	}
}

// Core is one SM.
type Core struct {
	ID   int
	cfg  *config.GPU
	full Resources // Full(cfg): the config does not change under a core

	memsys *mem.System
	stats  InstStats

	scheds []scheduler

	// tasks tracks per-task resource usage and resident-warp counts,
	// keeping map ops off the CTA issue/retire path.
	tasks      band.Table[taskAccount]
	usageTotal Resources
	// LimitFor returns the resource envelope available to a task on this
	// SM. Policies install it; nil means the full SM for every task.
	LimitFor func(task int) Resources

	resident int // total resident warps, so Busy is O(1)
	// freeWarps and freeCTAs recycle the runtime records of retired warps
	// and completed CTAs (see retire).
	freeWarps  []*warpRT
	freeCTAs   []*ctaRT
	arrivalSeq int64
	// retired counts warps that have exited, since construction. It exists
	// for the GPU's CTA dispatcher: every retire frees something CanAccept
	// reads. Derived bookkeeping that is never serialized.
	retired int64

	// wakeAt is the earliest cycle this core could do useful work, as
	// reported by its last Step. The run loop skips stepping a busy core
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
	// synthesized by FlushSkipDebt, stallReplays counts scheduler slots
	// answered from a stall record instead of a scan, and sleepHist buckets
	// flushed sleep lengths by log2.
	stepsExecuted  int64
	stepsSkipped   int64
	bulkStallSlots int64
	stallReplays   int64
	sleepHist      [sleepHistBuckets]int64

	// replayCheck, when set (tests only), sees every use of a stall record
	// before it is trusted.
	replayCheck func(s *scheduler)

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
		full:             Full(cfg),
		memsys:           memsys,
		stats:            stats,
		scheds:           make([]scheduler, cfg.SchedulersPerSM),
		tasks:            band.New[taskAccount](taskBand),
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
	if a := c.tasks.Peek(task); a != nil {
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
	if a := c.tasks.Peek(task); a != nil {
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
			if w.blockedUntil >= never {
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
	return c.full
}

// CanAccept reports whether a CTA of k (for the given task) fits right now
// under both the task's partition limit and the SM's physical capacity.
func (c *Core) CanAccept(k *trace.Kernel, task int) bool {
	return c.Fits(Need(k), k.WarpsPerCTA(), task)
}

// Fits is CanAccept for a caller that probes many SMs with one kernel and
// has computed the CTA's footprint (Need) and warp count once.
func (c *Core) Fits(need Resources, warps, task int) bool {
	if c.resident+warps > c.cfg.MaxWarpsPerSM {
		return false
	}
	taskUsage := Resources{}
	if a := c.tasks.Peek(task); a != nil {
		taskUsage = a.usage
	}
	return fits(taskUsage, need, c.limitFor(task)) && fits(c.usageTotal, need, c.full)
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
	var cta *ctaRT
	if n := len(c.freeCTAs); n > 0 {
		cta, c.freeCTAs = c.freeCTAs[n-1], c.freeCTAs[:n-1]
	} else {
		cta = new(ctaRT)
	}
	*cta = ctaRT{
		kernel:     k,
		ctaIdx:     ctaIdx,
		task:       task,
		stream:     k.Stream,
		res:        need,
		warpsLeft:  len(k.CTAs[ctaIdx].Warps),
		barWaiting: cta.barWaiting[:0],
		onComplete: onComplete,
	}
	a := c.tasks.Get(task)
	a.usage.add(need)
	c.usageTotal.add(need)

	for wi := range k.CTAs[ctaIdx].Warps {
		tw := &k.CTAs[ctaIdx].Warps[wi]
		var w *warpRT
		if n := len(c.freeWarps); n > 0 {
			w, c.freeWarps = c.freeWarps[n-1], c.freeWarps[:n-1]
		} else {
			w = new(warpRT)
		}
		*w = warpRT{
			insts:   tw.Insts,
			tabled:  tw.HasLineTable(c.cfg.LineSize),
			warpIdx: int32(wi),
			tw:      tw,
			stream:  k.Stream,
			task:    task,
			cta:     cta,
			arrival: c.arrivalSeq,
		}
		c.arrivalSeq++
		c.scheds[wi%len(c.scheds)].admit(w)
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

// SetWakeAt records the core's wake cycle. The run loop calls it with
// Step's return value after every real step, and to force a wake when a
// cross-core event (policy repartition) could let the core make progress
// earlier than it predicted.
func (c *Core) SetWakeAt(v int64) { c.wakeAt = v }

// SetLegacyStep switches the schedulers onto the legacy stepping path:
// the per-slot earliest memo is bypassed and every step recomputes from
// the scoreboard. The -no-skip oracle runs this way so its digests are
// produced without trusting the memo invalidation it verifies.
func (c *Core) SetLegacyStep(v bool) {
	for i := range c.scheds {
		s := &c.scheds[i]
		if v && !s.legacy {
			// Warps that issued from the line table let their cursors'
			// places in the address arena lag; the legacy path reads it.
			for _, w := range s.warps {
				w.cur = w.tw.CursorAt(w.pc)
			}
		}
		s.legacy = v
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
		w, cause := s.stallWarp, s.stallCause
		if s.stallUntil == 0 {
			var slot int
			slot, _, cause = s.scan(-1)
			w = s.warpAt(slot)
		} else if c.replayCheck != nil {
			c.replayCheck(s)
		}
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

// StallReplays reports how many scheduler slots were answered from a stall
// record instead of a scan (zero in legacy mode). Host-side bookkeeping
// like SkipCounters: never serialized or digested.
func (c *Core) StallReplays() int64 { return c.stallReplays }

// SleepHist returns the log2 histogram of flushed sleep lengths.
func (c *Core) SleepHist() [sleepHistBuckets]int64 { return c.sleepHist }

// Busy reports whether any warps are resident. It is O(1) so the run loop's
// per-step busy scan stays cheap even on a mostly idle machine.
func (c *Core) Busy() bool { return c.resident > 0 }

// step attempts one issue for cycle now; it returns the next cycle this
// scheduler wants to run (now+1 after an issue, the stall-resolution cycle
// otherwise, never when it has no warps). Every invocation is one issue
// slot, accounted as exactly one of issue / stall / empty.
func (s *scheduler) step(now int64) int64 {
	core := s.core
	core.schedSlots++
	if now < s.stallUntil {
		// Stall replay. A core steps all its schedulers whenever one of them
		// can issue, so most stall slots follow a stall of the same
		// scheduler with nothing in between that touched it.
		if core.replayCheck != nil {
			core.replayCheck(s)
		}
		core.stallReplays++
		s.noteStall(s.stallWarp, s.stallCause)
		return s.stallUntil
	}
	if len(s.warps) == 0 {
		core.emptySlots++
		return never
	}
	slot, e, cause := s.scan(now)
	if e <= now {
		w := s.warps[slot]
		if core.Sched == SchedGTO {
			s.last = w // before the issue: an EXIT's retire clears it again
		}
		s.issue(w, now)
		// LRR advances its cursor to the issued warp. slot is its position
		// unless the issue was an EXIT, whose retire compacts the slice; the
		// cursor then stays where it is (the successor slides into slot, and
		// the next scan starts one past it, as LRR should).
		if core.Sched == SchedLRR && slot < len(s.warps) && s.warps[slot] == w {
			s.rr = slot
		}
		return now + 1
	}
	// Nothing can issue: every warp's earliest is past now, so e is too.
	w := s.warpAt(slot)
	if !s.legacy {
		s.stallUntil, s.stallWarp, s.stallCause = e, w, cause
	}
	s.noteStall(w, cause)
	return e
}

// scan is the one pass over the scheduler's slots, shared by GTO, LRR and
// FlushSkipDebt. It visits the slots in the discipline's order and returns
// the first whose warp can issue at now. GTO is greedy-then-oldest: the
// last-issued warp first, then the rest in arrival order (the warps slice
// preserves it); LRR starts one past its cursor and wraps. When no warp can
// issue, scan returns the strict-< earliest with its binding cause — the
// warp a non-issuing slot is charged to — where the last-issued warp
// competes last, so it loses ties to every other. slot is -1 when there is
// no such warp (all parked at a barrier forever). Neither answer depends on
// now beyond the comparison: every input is an absolute cycle number.
func (s *scheduler) scan(now int64) (slot int, e int64, cause obs.StallCause) {
	n := len(s.warps)
	start, hold := 0, -1
	holdE, holdCause := never, obs.StallCause(0)
	if s.core.Sched == SchedLRR {
		start = (s.rr + 1) % n
	} else if s.last != nil {
		hold = s.last.slot
		if holdE, holdCause = s.at(hold).bind(&s.unitFree); holdE <= now {
			return hold, holdE, holdCause
		}
	}
	slot, e = -1, never
	lo, hi := start, n
	for range 2 {
		for i := lo; i < hi; i++ {
			if i == hold {
				continue
			}
			ei, ci := s.at(i).bind(&s.unitFree)
			if ei <= now {
				return i, ei, ci
			}
			if ei < e {
				slot, e, cause = i, ei, ci
			}
		}
		lo, hi = 0, start
	}
	if holdE < e {
		slot, e, cause = hold, holdE, holdCause
	}
	return slot, e, cause
}

// warpAt maps scan's slot to its warp: nil for -1.
func (s *scheduler) warpAt(slot int) *warpRT {
	if slot < 0 {
		return nil
	}
	return s.warps[slot]
}

// noteStall attributes a non-issuing slot to the earliest-ready warp's
// stream (stall-cause attribution).
func (s *scheduler) noteStall(w *warpRT, cause obs.StallCause) {
	if w == nil {
		// No warp will ever be ready; count the slot as empty rather than
		// losing it.
		s.core.emptySlots++
		return
	}
	if st := s.core.stats; st != nil {
		st.OnStall(s.core.ID, w.stream, w.task, cause)
	}
}

// at returns slot's memo, refilled when it is stale. In legacy (-no-skip
// oracle) mode it is refilled from the scoreboard at every visit, so a
// memo invalidation bug shows up as a digest divergence against the oracle
// instead of being shared by both sides of the comparison.
func (s *scheduler) at(slot int) *warpMemo {
	m := &s.memo[slot]
	if !m.ok || s.legacy {
		s.refill(slot)
	}
	return m
}

// refill is the slow half of at, kept out of line so that at itself
// inlines into the scan loop.
//
//go:noinline
func (s *scheduler) refill(slot int) { s.memo[slot] = s.warpEarliest(s.warps[slot]) }

// bind completes a memo into the earliest cycle its warp could issue and
// the binding constraint. Both are independent of the current cycle (all
// inputs are absolute cycle numbers). The pipeline's next free cycle is the
// one input another warp's issue moves, so it is combined in here, last and
// with the same strict >, as a from-scratch evaluation orders it: the
// answer is StallPipeBusy iff unitFree[unit] exceeds every register and
// barrier constraint.
func (m *warpMemo) bind(unitFree *[isa.UnitCount]int64) (int64, obs.StallCause) {
	if m.unit != isa.UnitNone {
		if f := unitFree[m.unit]; f > m.e {
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
		if ready := s.regReady(w.blk, r); ready > m.e {
			m.e = ready
			m.cause = s.regCause(w.blk, r)
		}
	}
	if unit := isa.UnitOf(in.Op); unit != isa.UnitCTRL {
		m.unit = unit
	}
	return m
}

// regCause distinguishes waiting on memory from a plain scoreboard
// dependence for a pending register.
func (s *scheduler) regCause(blk int, r isa.Reg) obs.StallCause {
	if s.regFromMem(blk, r) {
		return obs.StallMemPending
	}
	return obs.StallScoreboard
}

// fromTable reports whether w's memory instructions issue from the trace's
// line table (see memLines); the ones that do not derive what they touch
// from their address records.
func (s *scheduler) fromTable(w *warpRT) bool { return w.tabled && !s.legacy }

// memLines returns the unique cache lines in touches, in first-touch
// order: the trace's line table when w has one for this core's line size,
// else coalesced from the expanded lane addresses into buf (a WarpSize
// stack buffer).
func (s *scheduler) memLines(w *warpRT, in *trace.Inst, buf []uint64) []uint64 {
	if s.fromTable(w) {
		return w.tw.Lines(w.cur)
	}
	var lanes [isa.WarpSize]uint64
	return trace.Coalesce(buf, w.tw.Addrs(w.cur, in, &lanes), uint64(s.core.cfg.LineSize))
}

// bankConflicts returns a shared-memory access's bank-conflict degree, by
// the same rule.
func (s *scheduler) bankConflicts(w *warpRT, in *trace.Inst) int {
	if s.fromTable(w) {
		return w.tw.ConflictDegree(w.cur)
	}
	var lanes [isa.WarpSize]uint64
	return trace.BankConflictDegree(w.tw.Addrs(w.cur, in, &lanes))
}

// issue issues w's current instruction at cycle now. The caller has
// established that it can (earliest ≤ now).
func (s *scheduler) issue(w *warpRT, now int64) {
	in := &w.insts[w.pc]
	core := s.core
	// The issue moves w's pc (and, at a barrier, its blockedUntil), so its
	// memo dies here — before an EXIT's retire can re-number the slot.
	s.touch(w.slot)

	unit := isa.UnitOf(in.Op)
	switch in.Op {
	case isa.OpEXIT:
		s.retire(w, now)
	case isa.OpBAR:
		cta := w.cta
		cta.barArrived++
		if cta.barArrived == cta.warpsLeft {
			// Last arrival releases everyone, on whichever scheduler of
			// this core each waiter lives.
			for _, bw := range cta.barWaiting {
				bw.blockedUntil = now + 1
				bw.sched.touch(bw.slot)
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
		lines := s.memLines(w, in, lineBuf[:0])
		s.unitFree[isa.UnitLDST] = now + int64(len(lines))
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
			s.setReg(w, in.Dst, ready, true)
		}
	case isa.OpSTG:
		var lineBuf [isa.WarpSize]uint64
		lines := s.memLines(w, in, lineBuf[:0])
		s.unitFree[isa.UnitLDST] = now + int64(len(lines))
		for _, la := range lines {
			core.memsys.Store(now, core.ID, w.stream, in.Class, la*uint64(core.cfg.LineSize))
		}
	case isa.OpLDS:
		conflicts := s.bankConflicts(w, in)
		s.unitFree[isa.UnitLDST] = now + int64(conflicts)
		if in.Dst != isa.RegNone {
			s.setReg(w, in.Dst, now+int64(isa.Latency(in.Op))+int64(conflicts-1)*2, true)
		}
	case isa.OpSTS:
		s.unitFree[isa.UnitLDST] = now + int64(s.bankConflicts(w, in))
	case isa.OpLDC:
		// Constant cache: modeled as a fixed-latency hit.
		s.unitFree[isa.UnitLDST] = now + int64(isa.InitiationInterval(in.Op))
		if in.Dst != isa.RegNone {
			s.setReg(w, in.Dst, now+int64(isa.Latency(in.Op)), true)
		}
	default:
		s.unitFree[unit] = now + int64(isa.InitiationInterval(in.Op))
		if in.Dst != isa.RegNone {
			s.setReg(w, in.Dst, now+int64(isa.Latency(in.Op)), false)
		}
	}

	if core.stats != nil {
		core.stats.OnIssue(core.ID, w.stream, w.task, in.Op, in.ActiveLanes())
	}
	switch {
	case unit != isa.UnitLDST:
	case s.fromTable(w):
		w.cur = w.tw.NextEntry(w.cur, in) // the record is not read: its place may lag
	default:
		w.cur = w.tw.Next(w.cur, in)
	}
	w.pc++
	// The next scan would refill w's memo before anything else could clear
	// it (only touch does), and would get this answer; computing it now
	// finds the warp, its next instruction and its scoreboard block still in
	// the host's cache. An EXIT has retired the slot; legacy mode refills at
	// every visit instead.
	if in.Op != isa.OpEXIT && !s.legacy {
		s.memo[w.slot] = s.warpEarliest(w)
	}
}

// retire removes a finished warp and commits its CTA when it was the last.
// Nothing refers to either afterwards — the scheduler's cursor and stall
// record, the only pointers to a warp that outlive a step, are cleared by
// drop and by the issue's touch; a CTA's barrier list is empty once its
// warps run to EXIT — so both records go back to the core for the next
// IssueCTA, which then allocates nothing.
func (s *scheduler) retire(w *warpRT, now int64) {
	s.drop(w)
	core := s.core
	core.freeWarps = append(core.freeWarps, w)
	if a := core.tasks.Peek(w.task); a != nil {
		a.warps--
	}
	core.resident--
	core.retired++
	cta := w.cta
	cta.warpsLeft--
	if cta.warpsLeft == 0 {
		if a := core.tasks.Peek(cta.task); a != nil {
			a.usage.sub(cta.res)
		}
		core.usageTotal.sub(cta.res)
		if cta.onComplete != nil {
			cta.onComplete(now)
		}
		core.freeCTAs = append(core.freeCTAs, cta)
	}
}
