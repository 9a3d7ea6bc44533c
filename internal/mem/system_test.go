package mem

import (
	"testing"

	"crisp/internal/config"
	"crisp/internal/trace"
)

func newSys(t *testing.T) *System {
	t.Helper()
	cfg := config.JetsonOrin()
	s, err := NewSystem(&cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestLoadMissThenHitLatency(t *testing.T) {
	s := newSys(t)
	cold := s.Load(0, 0, 1, trace.ClassCompute, 0x10000)
	warm := s.Load(cold+1, 0, 1, trace.ClassCompute, 0x10000)
	if cold <= 0 {
		t.Fatal("cold load returned non-positive ready time")
	}
	hitLat := warm - (cold + 1)
	missLat := cold - 0
	if hitLat >= missLat {
		t.Errorf("hit latency %d should be far below miss latency %d", hitLat, missLat)
	}
	cfg := config.JetsonOrin()
	if hitLat != int64(cfg.L1Latency) {
		t.Errorf("L1 hit latency = %d, want %d", hitLat, cfg.L1Latency)
	}
}

func TestCountersPerStream(t *testing.T) {
	s := newSys(t)
	s.Load(0, 0, 5, trace.ClassCompute, 0x1000)
	s.Load(1, 0, 5, trace.ClassCompute, 0x1000)
	s.Load(2, 0, 9, trace.ClassCompute, 0x2000000)
	c5 := s.Counters(5)
	c9 := s.Counters(9)
	if c5.L1Accesses != 2 || c5.L1Misses != 1 {
		t.Errorf("stream 5 counters = %+v", *c5)
	}
	if c9.L1Accesses != 1 || c9.L1Misses != 1 {
		t.Errorf("stream 9 counters = %+v", *c9)
	}
	streams := s.Streams()
	if len(streams) != 2 || streams[0] != 5 || streams[1] != 9 {
		t.Errorf("Streams = %v", streams)
	}
}

func TestMSHRMerge(t *testing.T) {
	s := newSys(t)
	r1 := s.Load(0, 0, 1, trace.ClassCompute, 0x5000)
	// Second access to the same line while in flight rides the MSHR.
	r2 := s.Load(1, 0, 1, trace.ClassCompute, 0x5040)
	if r2 != r1 {
		t.Errorf("merged access ready %d, want %d", r2, r1)
	}
	c := s.Counters(1)
	if c.L2Accesses != 1 {
		t.Errorf("merged access reached L2: %d accesses", c.L2Accesses)
	}
}

func TestL1PrivatePerSM(t *testing.T) {
	s := newSys(t)
	r1 := s.Load(0, 0, 1, trace.ClassCompute, 0x9000)
	// Same line from another SM: misses its own L1 but hits L2.
	r2 := s.Load(r1+1, 1, 1, trace.ClassCompute, 0x9000)
	c := s.Counters(1)
	if c.L1Misses != 2 {
		t.Errorf("expected 2 L1 misses, got %d", c.L1Misses)
	}
	if c.L2Misses != 1 {
		t.Errorf("expected 1 L2 miss (second fill hits L2), got %d", c.L2Misses)
	}
	if r2-(r1+1) >= r1 {
		t.Error("L2 hit should be faster than DRAM round trip")
	}
}

func TestDRAMTrafficAccounting(t *testing.T) {
	s := newSys(t)
	cfg := config.JetsonOrin()
	for i := 0; i < 10; i++ {
		s.Load(int64(i), 0, 1, trace.ClassCompute, uint64(i)*uint64(cfg.LineSize)+1<<20)
	}
	c := s.Counters(1)
	if c.DRAMReadB != int64(10*cfg.LineSize) {
		t.Errorf("DRAM reads = %d, want %d", c.DRAMReadB, 10*cfg.LineSize)
	}
}

func TestStoreWriteThrough(t *testing.T) {
	s := newSys(t)
	done := s.Store(0, 0, 1, trace.ClassCompute, 0x3000)
	if done <= 0 {
		t.Fatal("store returned non-positive cycle")
	}
	c := s.Counters(1)
	if c.L2Accesses != 1 {
		t.Errorf("store did not reach L2: %d", c.L2Accesses)
	}
	// A subsequent load of that line hits in L2 (write-allocate).
	s.Load(done, 0, 1, trace.ClassCompute, 0x3000)
	if c.L2Misses != 1 {
		t.Errorf("L2 misses = %d, want only the store's allocate", c.L2Misses)
	}
}

func TestBankContentionSerializes(t *testing.T) {
	s := newSys(t)
	// Many distinct lines that map to the same bank (same line % banks).
	cfg := config.JetsonOrin()
	banks := uint64(cfg.L2Banks)
	line := uint64(cfg.LineSize)
	var last int64
	for i := 0; i < 50; i++ {
		addr := (uint64(i)*banks + 0) * line // bank 0 always
		r := s.Load(0, 0, 1, trace.ClassCompute, addr)
		if r < last {
			t.Fatal("ready times regressed")
		}
		last = r
	}
	// Same count spread across banks finishes sooner in the tail.
	s2 := newSys(t)
	var last2 int64
	for i := 0; i < 50; i++ {
		addr := uint64(i) * line // round-robin banks
		r := s2.Load(0, 0, 1, trace.ClassCompute, addr)
		if r > last2 {
			last2 = r
		}
	}
	if last2 >= last {
		t.Errorf("bank-spread tail %d should beat single-bank tail %d", last2, last)
	}
}

func TestSetMapperPartitionIsolation(t *testing.T) {
	s := newSys(t)
	sets := s.SetsPerBank()
	s.SetMapper(&SetMapper{
		Regions: map[int]SetRegion{
			0: {Start: 0, Count: sets / 2},
			1: {Start: sets / 2, Count: sets / 2},
		},
	})
	// Stream 0 fills far more lines than its region holds; stream 1's
	// lines must survive untouched.
	cfg := config.JetsonOrin()
	line := uint64(cfg.LineSize)
	s.Load(0, 0, 1, trace.ClassCompute, 7777*line)
	for i := 0; i < 100000; i++ {
		s.Load(int64(i+1), 0, 0, trace.ClassCompute, uint64(i)*line)
	}
	comp := s.L2Composition()
	if comp.ByStream[1] != 1 {
		t.Errorf("stream 1's line evicted by stream 0 despite set partition: %v", comp.ByStream)
	}
}

func TestBankMapperRestrictsBanks(t *testing.T) {
	s := newSys(t)
	s.SetMapper(&BankMapper{Banks: map[int][]int{0: {0, 1}}})
	cfg := config.JetsonOrin()
	line := uint64(cfg.LineSize)
	// With only 2 banks, 40 same-stream requests serialize harder than
	// the 16-bank shared default.
	var tail2 int64
	for i := 0; i < 40; i++ {
		if r := s.Load(0, 0, 0, trace.ClassCompute, uint64(i)*line); r > tail2 {
			tail2 = r
		}
	}
	s16 := newSys(t)
	var tail16 int64
	for i := 0; i < 40; i++ {
		if r := s16.Load(0, 0, 0, trace.ClassCompute, uint64(i)*line); r > tail16 {
			tail16 = r
		}
	}
	if tail16 >= tail2 {
		t.Errorf("16-bank tail %d should beat 2-bank tail %d", tail16, tail2)
	}
}

type recordingObserver struct {
	n    int
	hits int
}

func (r *recordingObserver) ObserveL2(stream int, lineAddr uint64, hit bool) {
	r.n++
	if hit {
		r.hits++
	}
}

func TestObserverSeesAccesses(t *testing.T) {
	s := newSys(t)
	obs := &recordingObserver{}
	s.SetObserver(obs)
	s.Load(0, 0, 1, trace.ClassCompute, 0x8000)
	s.Load(500000, 1, 1, trace.ClassCompute, 0x8000) // L1 miss on SM1 → L2 hit
	if obs.n != 2 {
		t.Errorf("observer saw %d accesses, want 2", obs.n)
	}
	if obs.hits != 1 {
		t.Errorf("observer saw %d hits, want 1", obs.hits)
	}
}

func TestInvalidateAllResets(t *testing.T) {
	s := newSys(t)
	s.Load(0, 0, 1, trace.ClassCompute, 0x8000)
	s.InvalidateAll()
	if s.L2Composition().Valid != 0 {
		t.Error("L2 lines survived InvalidateAll")
	}
}

func TestBankToChannelMappingIsContiguous(t *testing.T) {
	// MiG's bandwidth partitioning depends on contiguous bank→channel
	// mapping: the first half of the banks must use the first half of
	// the channels, so bank partitioning also partitions DRAM bandwidth.
	cfg := config.JetsonOrin()
	for bank := 0; bank < cfg.L2Banks; bank++ {
		ch := bank * cfg.MemChannels / cfg.L2Banks
		if bank < cfg.L2Banks/2 && ch >= cfg.MemChannels/2 {
			t.Errorf("bank %d maps to channel %d (upper half)", bank, ch)
		}
		if bank >= cfg.L2Banks/2 && ch < cfg.MemChannels/2 {
			t.Errorf("bank %d maps to channel %d (lower half)", bank, ch)
		}
	}
}

func TestHalfBanksHalveBandwidth(t *testing.T) {
	// Stream many distinct lines through the full machine vs through a
	// bank-restricted mapper: the restricted tail must be ≈2x later.
	run := func(restrict bool) int64 {
		s := newSys(t)
		if restrict {
			s.SetMapper(&BankMapper{Banks: map[int][]int{0: {0, 1, 2, 3, 4, 5, 6, 7}}})
		}
		cfg := config.JetsonOrin()
		line := uint64(cfg.LineSize)
		var tail int64
		for i := 0; i < 2000; i++ {
			if r := s.Load(0, 0, 0, trace.ClassCompute, uint64(i)*line); r > tail {
				tail = r
			}
		}
		return tail
	}
	full := run(false)
	half := run(true)
	ratio := float64(half) / float64(full)
	if ratio < 1.6 || ratio > 2.6 {
		t.Errorf("half-bank bandwidth ratio = %.2f, want ≈2", ratio)
	}
}

func TestL2MSHRMergeAcrossSMs(t *testing.T) {
	s := newSys(t)
	// Two SMs miss the same line back to back: one DRAM transfer only.
	r1 := s.Load(0, 0, 1, trace.ClassCompute, 0x70000)
	r2 := s.Load(1, 1, 1, trace.ClassCompute, 0x70000)
	c := s.Counters(1)
	if c.DRAMReadB != int64(config.JetsonOrin().LineSize) {
		t.Errorf("DRAM reads = %d, want one line (L2 MSHR merge)", c.DRAMReadB)
	}
	if r2 > r1+64 {
		t.Errorf("merged fill ready %d far beyond original %d", r2, r1)
	}
}
