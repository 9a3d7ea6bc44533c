package mem

import (
	"math/rand"
	"testing"

	"crisp/internal/config"
	"crisp/internal/trace"
)

// refFills is the structure fillTable replaced — a plain map — kept as the
// reference the table is checked against: size counts every stored entry,
// the minimum is a scan over all of them, gc is a predicate delete.
type refFills map[uint64]int64

func (r refFills) minReadyAfter(start int64) int64 {
	earliest := fillNoReady
	for _, ready := range r {
		if ready < earliest {
			earliest = ready
		}
	}
	return max(start, earliest)
}

func (r refFills) gc(cutoff int64) {
	for g, ready := range r {
		if ready <= cutoff {
			delete(r, g)
		}
	}
}

// checkFills compares every question the memory system asks of a table
// against the reference, for stall queries before, inside and after the
// stored range (the middle ones leave a non-minimal witness behind, which
// the later queries and operations must cope with).
func checkFills(t *testing.T, step int, op string, ft *fillTable, ref refFills, probe []uint64) {
	t.Helper()
	if ft.size() != len(ref) {
		t.Fatalf("step %d (%s): size %d, reference %d", step, op, ft.size(), len(ref))
	}
	lo, hi := fillNoReady, int64(0)
	for _, r := range ref {
		lo, hi = min(lo, r), max(hi, r)
	}
	for _, start := range []int64{hi + 1, (lo + hi) / 2, lo, lo - 1, 0, lo + 1, hi} {
		if got, want := ft.minReadyAfter(start), ref.minReadyAfter(start); got != want {
			t.Fatalf("step %d (%s): minReadyAfter(%d) = %d, reference %d", step, op, start, got, want)
		}
	}
	for _, g := range probe {
		got, ok := ft.get(g)
		want, wantOK := ref[g]
		if ok != wantOK || got != want {
			t.Fatalf("step %d (%s): get(%d) = %d,%v, reference %d,%v", step, op, g, got, ok, want, wantOK)
		}
	}
}

func TestFillTableMatchesMapReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mshrs int
		keys  int // key universe: small forces updates and re-use of tombstones
		steps int
	}{
		{"tiny-table-churn", 1, 24, 6000},         // capacity 8: rehash in place and by growth
		{"narrow-mshrs", 4, 200, 6000},            // the mem-bound bench's L1
		{"default-mshrs", 64, 4096, 12000},        // JetsonOrin's L1
		{"update-heavy", 4, 6, 4000},              // nearly every set hits a stored key
		{"one-ready-cycle", 2, 64, 3000},          // ties: every entry shares few values
		{"delete-heavy-tombstones", 8, 512, 9000}, // chains pass through many dead slots
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name)) * 7919))
			var ft fillTable
			ft.initTable(tc.mshrs)
			ref := refFills{}
			now := int64(0)
			key := func() uint64 { return uint64(rng.Intn(tc.keys)) * 0x10001 }
			minKey := func() (uint64, bool) { // the reference's minimum entry (lowest key on ties)
				var best uint64
				found := false
				for g, r := range ref {
					if !found || r < ref[best] || (r == ref[best] && g < best) {
						best, found = g, true
					}
				}
				return best, found
			}
			for step := 0; step < tc.steps; step++ {
				now += int64(rng.Intn(3))
				probe := []uint64{key(), key()}
				var op string
				switch p := rng.Intn(100); {
				case p < 45:
					op = "set"
					g, ready := key(), now+int64(rng.Intn(400))
					if tc.name == "one-ready-cycle" {
						ready = now/64*64 + 64
					}
					ft.set(g, ready)
					ref[g] = ready
				case p < 55:
					op = "set-min-key" // update the entry holding the minimum
					if g, ok := minKey(); ok {
						ready := ref[g] + int64(rng.Intn(200)) - 50
						ft.set(g, ready)
						ref[g] = ready
					}
				case p < 65:
					op = "del-min" // delete the entry holding the minimum
					if g, ok := minKey(); ok {
						ft.del(g)
						delete(ref, g)
					}
				case p < 85:
					op = "del"
					g := key()
					ft.del(g)
					delete(ref, g)
				case p < 97:
					op = "gc" // cutoffs below, across and above the minimum
					cutoff := now + int64(rng.Intn(300)) - 100
					ft.gc(cutoff)
					ref.gc(cutoff)
				case p < 99:
					op = "gc-all"
					ft.gc(now + 1000)
					ref.gc(now + 1000)
				default:
					op = "reset"
					ft.reset()
					clear(ref)
				}
				checkFills(t, step, op, &ft, ref, probe)
			}
		})
	}
}

// TestFillTableRehashKeepsAllocation pins the in-place rehash: churn at a
// steady population fills the table with tombstones over and over, and
// clearing them must reuse the arrays.
func TestFillTableRehashKeepsAllocation(t *testing.T) {
	var ft fillTable
	ft.initTable(4)
	next := uint64(0)
	churn := func() {
		for i := 0; i < 64; i++ {
			ft.set(next, int64(next))
			ft.del(next - 3)
			next++
		}
	}
	churn() // sizes the rehash scratch
	capacity := len(ft.keys)
	if n := testing.AllocsPerRun(50, churn); n != 0 {
		t.Errorf("steady-state churn allocates %v times per 64 set/del pairs", n)
	}
	if len(ft.keys) != capacity {
		t.Errorf("table grew from %d to %d slots at a constant population", capacity, len(ft.keys))
	}
}

// narrowMem is the mem-bound benchmarks' memory system: few MSHRs and a
// long DRAM latency, so the MSHR file is truly full most of the time.
func narrowMem(t *testing.T) (*System, *config.GPU) {
	t.Helper()
	cfg := config.RTX3070()
	cfg.L1MSHRs, cfg.L2MSHRs = 4, 16
	cfg.DRAMLatency *= 8
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, &cfg
}

// TestLoadStoreDoNotAllocate guards the memory system's hot path: once
// the per-stream counters exist and the fill tables have reached their
// working size, no access kind may allocate.
func TestLoadStoreDoNotAllocate(t *testing.T) {
	const stream = 1 << 20
	for _, sys := range []struct {
		name string
		mk   func(*testing.T) (*System, *config.GPU)
	}{
		{"orin", func(t *testing.T) (*System, *config.GPU) { s := newSys(t); return s, s.cfg }},
		{"narrow", narrowMem},
	} {
		s, cfg := sys.mk(t)
		line := uint64(cfg.LineSize)
		now, next := int64(0), uint64(1<<20)
		fresh := func() uint64 { next++; return next * line }
		for _, tc := range []struct {
			name string
			fn   func()
		}{
			{"hit", func() {
				now = s.Load(now, 0, stream, trace.ClassCompute, 0) + 1
			}},
			{"miss", func() { // dependent misses: each waits for the one before
				now = s.Load(now, 0, stream, trace.ClassCompute, fresh()) + 1
			}},
			{"merge", func() { // second access rides the first one's fill
				a := fresh()
				s.Load(now, 0, stream, trace.ClassCompute, a)
				s.Load(now+1, 0, stream, trace.ClassCompute, a)
				now += 2
			}},
			{"full-mshr-stall", func() { // 32 misses in one cycle, as one warp's uncoalesced load
				for i := 0; i < 32; i++ {
					s.Load(now, 0, stream, trace.ClassCompute, fresh())
				}
				now += 40
			}},
			{"store", func() {
				now = s.Store(now, 0, stream, trace.ClassCompute, fresh()) + 1
			}},
		} {
			for i := 0; i < 600; i++ { // warm: counters, table growth, rehash scratch
				tc.fn()
			}
			if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
				t.Errorf("%s/%s: %v allocations per access", sys.name, tc.name, n)
			}
		}
	}
}

// TestFullMSHRStallMatchesReference replays a bursty miss stream through
// the memory system and, beside it, keeps a map of the same fills under
// Load's own rules (insert on miss, collect above 4x MSHRs): the table's
// population must track the map's, and no stalled request may have its
// data before the map's earliest outstanding fill plus the L1 latency.
func TestFullMSHRStallMatchesReference(t *testing.T) {
	s, cfg := narrowMem(t)
	line := uint64(cfg.LineSize)
	rng := rand.New(rand.NewSource(11))
	ref := refFills{}
	now, stalls := int64(0), 0
	for i := 0; i < 4000; i++ {
		if rng.Intn(8) == 0 {
			now += int64(rng.Intn(3000))
		}
		addr := uint64(1<<20+i) * line
		wantStart := now
		if len(ref) >= cfg.L1MSHRs {
			wantStart = ref.minReadyAfter(now)
		}
		if wantStart > now {
			stalls++
		}
		ready := s.Load(now, 0, 1<<20, trace.ClassCompute, addr)
		ref[s.fillGranule(addr)] = ready
		if len(ref) > 4*cfg.L1MSHRs {
			ref.gc(now)
		}
		if got := s.l1Pending[0].size(); got != len(ref) {
			t.Fatalf("access %d: table holds %d fills, reference %d", i, got, len(ref))
		}
		if ready < wantStart+int64(cfg.L1Latency) {
			t.Fatalf("access %d at %d: data ready at %d, before the stalled start %d", i, now, ready, wantStart)
		}
	}
	if stalls < 1000 {
		t.Fatalf("only %d of 4000 accesses stalled on a full MSHR file; the test no longer exercises the path", stalls)
	}
}
