package sm

import (
	"testing"

	"crisp/internal/config"
	"crisp/internal/isa"
	"crisp/internal/mem"
	"crisp/internal/obs"
	"crisp/internal/trace"
)

type issueCounter struct {
	total   int64
	byOp    map[isa.Opcode]int64
	byTask  map[int]int64
	stalls  [obs.NumStallCauses]int64
	stalled int64
}

func newCounter() *issueCounter {
	return &issueCounter{byOp: make(map[isa.Opcode]int64), byTask: make(map[int]int64)}
}

func (c *issueCounter) OnIssue(smID, stream, task int, op isa.Opcode, lanes int) {
	c.total++
	c.byOp[op]++
	c.byTask[task]++
}

func (c *issueCounter) OnStall(smID, stream, task int, cause obs.StallCause) {
	c.stalls[cause]++
	c.stalled++
}

func (c *issueCounter) OnStallN(smID, stream, task int, cause obs.StallCause, n int64) {
	c.stalls[cause] += n
	c.stalled += n
}

func testCore(t *testing.T) (*Core, *issueCounter, *config.GPU) {
	t.Helper()
	cfg := config.JetsonOrin()
	ms, err := mem.NewSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	cnt := newCounter()
	return NewCore(0, &cfg, ms, cnt), cnt, &cfg
}

// chainKernel: one warp, n dependent FADDs (each reads the previous).
func chainKernel(n int) *trace.Kernel {
	b := trace.NewBuilder("chain", trace.KindCompute, 0, 32, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	r := b.NewReg()
	b.ALU(isa.OpMOV, r, trace.FullMask)
	for i := 0; i < n; i++ {
		nr := b.NewReg()
		b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
		r = nr
	}
	return b.Finish()
}

// independentKernel: one warp, n independent FADDs.
func independentKernel(n int) *trace.Kernel {
	b := trace.NewBuilder("indep", trace.KindCompute, 0, 32, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	for i := 0; i < n; i++ {
		b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask)
	}
	return b.Finish()
}

// runCore drives the core until idle, returning the final cycle.
func runCore(t *testing.T, c *Core) int64 {
	t.Helper()
	now := int64(0)
	for i := 0; c.Busy(); i++ {
		if i > 1_000_000 {
			t.Fatal("core did not drain")
		}
		next := c.Step(now)
		if next <= now {
			next = now + 1
		}
		now = next
	}
	return now
}

func TestResourceArithmetic(t *testing.T) {
	cfg := config.JetsonOrin()
	full := Full(&cfg)
	if full.Threads != 64*32 || full.Regs != 65536 {
		t.Errorf("Full = %+v", full)
	}
	half := Fraction(full, 1, 2)
	if half.Threads != full.Threads/2 || half.CTAs != full.CTAs/2 {
		t.Errorf("Fraction = %+v", half)
	}
	if z := Fraction(full, 1, 0); z.Threads != 0 {
		t.Error("Fraction with zero denominator should be empty")
	}
	k := &trace.Kernel{ThreadsPerCTA: 256, RegsPerThread: 40, SharedMem: 1024}
	need := Need(k)
	if need.Threads != 256 || need.Regs != 256*40 || need.Shared != 1024 || need.CTAs != 1 {
		t.Errorf("Need = %+v", need)
	}
}

func TestDependentChainSlowerThanIndependent(t *testing.T) {
	c1, _, _ := testCore(t)
	k1 := chainKernel(100)
	c1.IssueCTA(0, k1, 0, 0, nil)
	dep := runCore(t, c1)

	c2, _, _ := testCore(t)
	k2 := independentKernel(100)
	c2.IssueCTA(0, k2, 0, 0, nil)
	ind := runCore(t, c2)

	if dep <= ind {
		t.Errorf("dependent chain %d cycles should exceed independent %d", dep, ind)
	}
	// Dependent chain: ≈ latency(FADD)=4 per op.
	if dep < 350 {
		t.Errorf("dependent chain finished in %d cycles, expected ≈400", dep)
	}
	// Independent stream: ≈ 1 op/cycle.
	if ind > 220 {
		t.Errorf("independent stream took %d cycles, expected ≈100", ind)
	}
}

func TestAllInstructionsIssued(t *testing.T) {
	c, cnt, _ := testCore(t)
	k := chainKernel(50)
	c.IssueCTA(0, k, 0, 0, nil)
	runCore(t, c)
	want := int64(k.InstCount())
	if cnt.total != want {
		t.Errorf("issued %d, want %d", cnt.total, want)
	}
}

func TestCTACompletionFreesResources(t *testing.T) {
	c, _, cfg := testCore(t)
	k := chainKernel(10)
	done := 0
	c.IssueCTA(0, k, 0, 0, func(now int64) { done++ })
	if c.Usage(0).Threads != 32 {
		t.Errorf("usage = %+v", c.Usage(0))
	}
	runCore(t, c)
	if done != 1 {
		t.Errorf("onComplete ran %d times", done)
	}
	if c.Usage(0).Threads != 0 || c.TotalResidentWarps() != 0 {
		t.Error("resources not freed at CTA commit")
	}
	_ = cfg
}

func TestCanAcceptHonorsTaskLimits(t *testing.T) {
	c, _, cfg := testCore(t)
	k := &trace.Kernel{Name: "big", ThreadsPerCTA: 512, RegsPerThread: 64, CTAs: make([]trace.CTA, 1)}
	// Limit task 0 to a quarter SM: 512 threads need 512 ≤ 512 ok, but
	// registers 512*64=32768 > 65536/4.
	c.LimitFor = func(task int) Resources {
		if task == 0 {
			return Fraction(Full(cfg), 1, 4)
		}
		return Full(cfg)
	}
	if c.CanAccept(k, 0) {
		t.Error("CTA exceeding task limit accepted")
	}
	if !c.CanAccept(k, 1) {
		t.Error("CTA within other task's limit rejected")
	}
}

func TestCanAcceptHonorsPhysicalCapacity(t *testing.T) {
	c, _, _ := testCore(t)
	k := chainKernel(5) // 32 threads/CTA
	n := 0
	for c.CanAccept(k, 0) {
		c.IssueCTA(0, k, 0, 0, nil)
		n++
		if n > 100 {
			t.Fatal("no capacity bound")
		}
	}
	// 64 warps/SM at 1 warp per CTA, but CTA slots cap at 32.
	if n != 32 {
		t.Errorf("accepted %d CTAs, want 32 (CTA-slot limit)", n)
	}
}

func TestMemoryLoadStallsWarp(t *testing.T) {
	b := trace.NewBuilder("ld", trace.KindCompute, 0, 32, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i * 4)
	}
	r := b.NewReg()
	b.Mem(isa.OpLDG, r, trace.FullMask, addrs, trace.ClassCompute)
	b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask, r, r) // depends on load
	k := b.Finish()

	c, _, cfg := testCore(t)
	c.IssueCTA(0, k, 0, 0, nil)
	total := runCore(t, c)
	// DRAM round trip: must exceed L2+DRAM latency.
	if total < int64(cfg.L2Latency) {
		t.Errorf("load-dependent kernel finished in %d cycles, too fast", total)
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	// Two warps: warp 0 does long work then BAR; warp 1 hits BAR
	// immediately then one op. Warp 1's post-barrier op cannot retire
	// before warp 0 arrives.
	b := trace.NewBuilder("bar", trace.KindCompute, 0, 64, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	r := b.NewReg()
	b.ALU(isa.OpMOV, r, trace.FullMask)
	for i := 0; i < 50; i++ {
		nr := b.NewReg()
		b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
		r = nr
	}
	b.Barrier()
	b.BeginWarp()
	b.Barrier()
	b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask)
	k := b.Finish()

	c, _, _ := testCore(t)
	c.IssueCTA(0, k, 0, 0, nil)
	total := runCore(t, c)
	// Warp 0's chain takes ≈200 cycles; the barrier forces the total past it.
	if total < 180 {
		t.Errorf("barrier did not hold warp 1: %d cycles", total)
	}
}

func TestSFUThroughputLowerThanFP(t *testing.T) {
	mk := func(op isa.Opcode) *trace.Kernel {
		b := trace.NewBuilder("tp", trace.KindCompute, 0, 32, 16, 0)
		b.BeginCTA()
		b.BeginWarp()
		for i := 0; i < 64; i++ {
			b.ALU(op, b.NewReg(), trace.FullMask)
		}
		return b.Finish()
	}
	c1, _, _ := testCore(t)
	c1.IssueCTA(0, mk(isa.OpFADD), 0, 0, nil)
	fp := runCore(t, c1)
	c2, _, _ := testCore(t)
	c2.IssueCTA(0, mk(isa.OpMUFUSIN), 0, 0, nil)
	sfu := runCore(t, c2)
	if sfu <= 2*fp {
		t.Errorf("SFU stream %d cycles should be ≫ FP stream %d", sfu, fp)
	}
}

func TestWarpsSpreadAcrossSchedulers(t *testing.T) {
	b := trace.NewBuilder("multi", trace.KindCompute, 0, 128, 16, 0)
	b.BeginCTA()
	for w := 0; w < 4; w++ {
		b.BeginWarp()
		for i := 0; i < 32; i++ {
			b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask)
		}
	}
	k := b.Finish()
	c, _, _ := testCore(t)
	c.IssueCTA(0, k, 0, 0, nil)
	// 4 warps on 4 schedulers run in parallel: ≈ as fast as one warp.
	total := runCore(t, c)
	if total > 100 {
		t.Errorf("4 warps on 4 schedulers took %d cycles, expected ≈40", total)
	}
}

func TestResidentWarpCountsByTask(t *testing.T) {
	c, _, _ := testCore(t)
	k := chainKernel(5)
	c.IssueCTA(0, k, 0, 3, nil)
	c.IssueCTA(0, k, 0, 3, nil)
	c.IssueCTA(0, k, 0, 5, nil)
	if c.ResidentWarps(3) != 2 || c.ResidentWarps(5) != 1 {
		t.Errorf("resident = %d/%d", c.ResidentWarps(3), c.ResidentWarps(5))
	}
	if c.TotalResidentWarps() != 3 {
		t.Errorf("total = %d", c.TotalResidentWarps())
	}
}

func TestTexCarriesFilterLatency(t *testing.T) {
	mk := func(op isa.Opcode) *trace.Kernel {
		b := trace.NewBuilder("tex", trace.KindFragment, 0, 32, 16, 0)
		b.BeginCTA()
		b.BeginWarp()
		addrs := make([]uint64, 32)
		for i := range addrs {
			addrs[i] = uint64(i * 4)
		}
		r := b.NewReg()
		cls := trace.ClassCompute
		if op == isa.OpTEX {
			cls = trace.ClassTexture
		}
		b.Mem(op, r, trace.FullMask, addrs, cls)
		b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask, r, r)
		return b.Finish()
	}
	c1, _, _ := testCore(t)
	c1.IssueCTA(0, mk(isa.OpLDG), 0, 0, nil)
	ldg := runCore(t, c1)
	c2, _, _ := testCore(t)
	c2.IssueCTA(0, mk(isa.OpTEX), 0, 0, nil)
	tex := runCore(t, c2)
	if tex <= ldg {
		t.Errorf("TEX total %d should exceed LDG %d by the filter latency", tex, ldg)
	}
}

func TestDynamicLimitShrinkDrainsGracefully(t *testing.T) {
	// Issue CTAs under a generous limit, then shrink the limit: already
	// resident CTAs keep running; new CTAs are refused until usage
	// drains below the new envelope (the paper's dynamic-repartition
	// semantics: "the CTA scheduler stops issuing ... waits until CTAs
	// commit").
	c, _, cfg := testCore(t)
	k := chainKernel(40) // 32 threads, 1 warp per CTA
	limit := Full(cfg)
	c.LimitFor = func(task int) Resources { return limit }
	for i := 0; i < 8; i++ {
		if !c.CanAccept(k, 0) {
			t.Fatalf("CTA %d refused under full limit", i)
		}
		c.IssueCTA(0, k, 0, 0, nil)
	}
	// Shrink to a 4-CTA envelope: no new CTA fits while 8 are resident.
	limit = Resources{Threads: 4 * 32, Regs: 4 * 32 * 16, Shared: 1 << 20, CTAs: 4}
	if c.CanAccept(k, 0) {
		t.Fatal("CTA accepted beyond shrunken limit")
	}
	runCore(t, c)
	// After draining, the new envelope admits CTAs again.
	if !c.CanAccept(k, 0) {
		t.Fatal("CTA refused on empty SM under valid limit")
	}
}

func TestLRRRotatesFairly(t *testing.T) {
	// Two warps of independent work: LRR alternates them; GTO drains one
	// first. Both must complete either way, in similar total time.
	mk := func() *trace.Kernel {
		b := trace.NewBuilder("two", trace.KindCompute, 0, 256, 16, 0)
		b.BeginCTA()
		for w := 0; w < 8; w++ {
			b.BeginWarp()
			for i := 0; i < 40; i++ {
				b.ALU(isa.OpFADD, b.NewReg(), trace.FullMask)
			}
		}
		return b.Finish()
	}
	gto, _, _ := testCore(t)
	gto.IssueCTA(0, mk(), 0, 0, nil)
	tg := runCore(t, gto)

	lrr, _, _ := testCore(t)
	lrr.Sched = SchedLRR
	lrr.IssueCTA(0, mk(), 0, 0, nil)
	tl := runCore(t, lrr)

	if tl <= 0 || tg <= 0 {
		t.Fatal("no progress")
	}
	ratio := float64(tl) / float64(tg)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("LRR/GTO makespan ratio = %.2f, want same ballpark", ratio)
	}
}

func TestLRRLatencyHiding(t *testing.T) {
	// Dependent chains: GTO camps on one warp and eats the full
	// dependency latency; LRR interleaves the two chains and hides it.
	mk := func() *trace.Kernel {
		b := trace.NewBuilder("chains", trace.KindCompute, 0, 64, 16, 0)
		b.BeginCTA()
		for w := 0; w < 2; w++ {
			b.BeginWarp()
			r := b.NewReg()
			b.ALU(isa.OpMOV, r, trace.FullMask)
			for i := 0; i < 60; i++ {
				nr := b.NewReg()
				b.ALU(isa.OpFADD, nr, trace.FullMask, r, r)
				r = nr
			}
		}
		return b.Finish()
	}
	// Pin both warps on one scheduler by using warp ids 0 and 4? Warps
	// land on schedulers round-robin (0→sched0, 1→sched1), so use a core
	// with... instead compare totals: with 2 warps on 2 schedulers both
	// run in parallel for either policy; this test just checks LRR is
	// not slower than GTO for independent chains.
	gto, _, _ := testCore(t)
	gto.IssueCTA(0, mk(), 0, 0, nil)
	tg := runCore(t, gto)
	lrr, _, _ := testCore(t)
	lrr.Sched = SchedLRR
	lrr.IssueCTA(0, mk(), 0, 0, nil)
	tl := runCore(t, lrr)
	if tl > tg*11/10 {
		t.Errorf("LRR %d much slower than GTO %d on independent chains", tl, tg)
	}
}

func TestSharedBankConflicts(t *testing.T) {
	mk := func(stride uint64) *trace.Kernel {
		b := trace.NewBuilder("lds", trace.KindCompute, 0, 32, 16, 0)
		b.BeginCTA()
		b.BeginWarp()
		offsets := make([]uint64, 32)
		for i := range offsets {
			offsets[i] = uint64(i) * stride * 4
		}
		for n := 0; n < 32; n++ {
			r := b.NewReg()
			b.SharedAddr(isa.OpLDS, r, trace.FullMask, offsets)
		}
		return b.Finish()
	}
	run := func(stride uint64) int64 {
		c, _, _ := testCore(t)
		c.IssueCTA(0, mk(stride), 0, 0, nil)
		return runCore(t, c)
	}
	clean := run(1)  // stride-1 words: all banks distinct
	broad := run(0)  // same word: broadcast
	worst := run(32) // stride-32 words: every lane hits bank 0
	if broad > clean+8 {
		t.Errorf("broadcast (%d) should match conflict-free (%d)", broad, clean)
	}
	if worst < 8*clean {
		t.Errorf("32-way conflict (%d cycles) should dwarf conflict-free (%d)", worst, clean)
	}
}

// TestSharedConflictDegree reads each degree both ways the scheduler can
// get it: from a Builder-made trace's line table and, for a warp that has
// none, derived at issue from the offsets its address record expands to.
func TestSharedConflictDegree(t *testing.T) {
	c, _, _ := testCore(t)
	s := &c.scheds[0]
	degree := func(offsets []uint64) int {
		t.Helper()
		b := trace.NewBuilder("lds", trace.KindCompute, 0, 32, 16, 0)
		b.BeginCTA()
		b.BeginWarp()
		b.SharedAddr(isa.OpLDS, b.NewReg(), trace.FullMask, offsets)
		k := b.Finish()
		tw := &k.CTAs[0].Warps[0]
		tabled := &warpRT{tw: tw, tabled: tw.HasLineTable(c.cfg.LineSize)}
		if !tabled.tabled {
			t.Fatal("a Builder-made warp carries no line table")
		}
		fromTable := s.bankConflicts(tabled, &tw.Insts[0])
		derived := s.bankConflicts(&warpRT{tw: tw}, &tw.Insts[0])
		if fromTable != derived {
			t.Errorf("the line table says degree %d, the offsets %d", fromTable, derived)
		}
		return derived
	}
	seq := make([]uint64, 32)
	same := make([]uint64, 32)
	bankCamp := make([]uint64, 32)
	twoWay := make([]uint64, 32)
	for i := range seq {
		seq[i] = uint64(i) * 4
		same[i] = 64
		bankCamp[i] = uint64(i) * 32 * 4
		twoWay[i] = uint64(i%16) * 4 * 2 // 16 distinct words, 2 lanes each... stride-2: banks 0,2,..30 twice
	}
	if d := degree(seq); d != 1 {
		t.Errorf("sequential degree = %d, want 1", d)
	}
	if d := degree(same); d != 1 {
		t.Errorf("broadcast degree = %d, want 1", d)
	}
	if d := degree(bankCamp); d != 32 {
		t.Errorf("bank-camping degree = %d, want 32", d)
	}
	if d := degree(twoWay); d != 1 {
		t.Errorf("duplicated-words degree = %d, want 1 (broadcast per word)", d)
	}
	if d := degree(nil); d != 1 {
		t.Errorf("no-offset degree = %d, want 1", d)
	}
}
