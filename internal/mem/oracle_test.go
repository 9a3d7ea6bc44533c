package mem_test

import (
	"fmt"
	"math/rand"
	"testing"

	"crisp/internal/config"
	"crisp/internal/isa"
	"crisp/internal/mem"
	"crisp/internal/trace"
)

// refCache is the cache oracle: a set-associative, LRU, write-back,
// write-allocate cache written from the textbook definition and sharing no
// code with package mem, so a bug in mem's tag array cannot hide on both
// sides of a comparison. Each set is a list of resident lines, most
// recently used first; a miss on a full set evicts the last one.
type refCache struct {
	sets, ways int
	lineSize   uint64
	set        [][]refLine
}

type refLine struct {
	line  uint64 // byte address / lineSize
	dirty bool
}

// refResult mirrors mem.AccessResult field by field.
type refResult struct {
	hit, writeback bool
	writebackLine  uint64
}

func newRefCache(sets, ways, lineSize int) *refCache {
	return &refCache{sets: sets, ways: ways, lineSize: uint64(lineSize), set: make([][]refLine, sets)}
}

// home is the set a line lives in: setIdx when the caller chose one, else
// the line number modulo the set count.
func (r *refCache) home(addr uint64, setIdx int) int {
	if setIdx >= 0 {
		return setIdx
	}
	return int(addr / r.lineSize % uint64(r.sets))
}

// resident reports whether addr's line is present.
func (r *refCache) resident(addr uint64, setIdx int) bool {
	for _, l := range r.set[r.home(addr, setIdx)] {
		if l.line == addr/r.lineSize {
			return true
		}
	}
	return false
}

// access loads (write false) or stores the line holding addr, allocating
// on a miss.
func (r *refCache) access(addr uint64, write bool, setIdx int) refResult {
	s := r.home(addr, setIdx)
	lines := r.set[s]
	for i, l := range lines {
		if l.line != addr/r.lineSize {
			continue
		}
		l.dirty = l.dirty || write
		// Move to the front: most recently used.
		copy(lines[1:i+1], lines[:i])
		lines[0] = l
		return refResult{hit: true}
	}
	var res refResult
	if len(lines) == r.ways {
		victim := lines[len(lines)-1]
		lines = lines[:len(lines)-1]
		if victim.dirty {
			res.writeback, res.writebackLine = true, victim.line*r.lineSize
		}
	}
	r.set[s] = append([]refLine{{line: addr / r.lineSize, dirty: write}}, lines...)
	return res
}

// oracleGeom is one cache shape the oracle is compared on.
type oracleGeom struct {
	sets, ways, lineSize int
	// explicitSets passes a caller-chosen set index, as the L2's
	// partitioned mappers do, instead of -1.
	explicitSets bool
}

var oracleGeoms = []oracleGeom{
	{sets: 8, ways: 1, lineSize: 64},                      // direct-mapped
	{sets: 8, ways: 4, lineSize: 128},                     // 4-way
	{sets: 4, ways: 16, lineSize: 128},                    // 16-way, the L2's associativity
	{sets: 5, ways: 3, lineSize: 128},                     // odd set count and odd ways
	{sets: 2, ways: 16, lineSize: 128},                    // 16-way, two sets
	{sets: 6, ways: 4, lineSize: 128, explicitSets: true}, // sets chosen by the caller
}

// opBytes is the size of one encoded access: a line, a byte offset within
// it, and a byte whose low bit is the write flag and whose rest picks the
// set when the geometry takes explicit ones.
const opBytes = 3

// checkOracle replays ops through a mem.Cache and the oracle and fails at
// the first access on which their residency or results differ.
func checkOracle(t *testing.T, geomIdx uint8, ops []byte) {
	g := oracleGeoms[int(geomIdx)%len(oracleGeoms)]
	c, err := mem.NewCache(g.sets*g.ways*g.lineSize, g.ways, g.lineSize)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(g.sets, g.ways, g.lineSize)
	// Twice the capacity in lines, plus one so the stride is not a
	// multiple of the set count: a mix of hits, conflicts and evictions.
	span := 2*g.sets*g.ways + 1
	for i := 0; i+opBytes <= len(ops); i += opBytes {
		addr := uint64(int(ops[i])%span)*uint64(g.lineSize) + uint64(ops[i+1])%uint64(g.lineSize)
		write := ops[i+2]&1 != 0
		setIdx := -1
		if g.explicitSets {
			setIdx = int(ops[i+2]>>1) % g.sets
		}
		if got, want := c.Probe(addr, setIdx), ref.resident(addr, setIdx); got != want {
			t.Fatalf("%+v op %d: Probe(%#x, set %d) = %v, oracle %v", g, i/opBytes, addr, setIdx, got, want)
		}
		got := c.Access(int64(i/opBytes+1), addr, write, trace.ClassCompute, 0, setIdx)
		want := ref.access(addr, write, setIdx)
		if got.Hit != want.hit || got.Writeback != want.writeback || got.WritebackLine != want.writebackLine {
			t.Fatalf("%+v op %d: Access(%#x, write %v, set %d) = %+v, oracle %+v",
				g, i/opBytes, addr, write, setIdx, got, want)
		}
	}
}

// oracleOps draws n seeded random accesses.
func oracleOps(seed int64, n int) []byte {
	ops := make([]byte, n*opBytes)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestCacheMatchesOracle drives every geometry with seeded random
// read/write streams and compares every access's outcome.
func TestCacheMatchesOracle(t *testing.T) {
	for gi, g := range oracleGeoms {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dx%d-line%d-explicit%v/seed%d", g.sets, g.ways, g.lineSize, g.explicitSets, seed), func(t *testing.T) {
				checkOracle(t, uint8(gi), oracleOps(seed, 4000))
			})
		}
	}
}

// FuzzCacheOracle lets the fuzzer pick the geometry and the access stream.
func FuzzCacheOracle(f *testing.F) {
	for gi := range oracleGeoms {
		for seed := int64(1); seed <= 3; seed++ {
			f.Add(uint8(gi), oracleOps(seed, 400))
		}
	}
	f.Fuzz(checkOracle)
}

// TestSystemMatchesOracleOnWarpLines replays one single-warp kernel's line
// stream — expanded from its address records with Warp.Addrs, deduplicated
// per instruction in first-touch order, as the LDST unit sends it —
// through mem.System and through an oracle L1 (write-through, no allocate
// on store) over an oracle L2 (write-allocate, its banks interleaved by
// line number). The caches are shrunk so that the stream evicts from both.
// Accesses are spaced far enough apart that every fill has landed before
// the next one: no MSHR merges, so every L1 miss reaches the L2.
func TestSystemMatchesOracleOnWarpLines(t *testing.T) {
	cfg := config.JetsonOrin()
	cfg.L1Size = 8 << 10 // 16 sets of 4 ways
	cfg.L2Size = 128 << 10
	sys, err := mem.NewSystem(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := newRefCache(cfg.L1Size/(cfg.L1Assoc*cfg.LineSize), cfg.L1Assoc, cfg.LineSize)
	setsPerBank := cfg.L2Size / cfg.L2Banks / (cfg.L2Assoc * cfg.LineSize)
	l2 := newRefCache(cfg.L2Banks*setsPerBank, cfg.L2Assoc, cfg.LineSize)
	l2Set := func(line uint64) int {
		bank := int(line % uint64(cfg.L2Banks))
		return bank*setsPerBank + int(line/uint64(cfg.L2Banks)%uint64(setsPerBank))
	}

	// One warp of seeded loads, stores and texture fetches, half of them
	// into a 12 KB hot region and half over 256 KB, each with a stride
	// that touches one to thirty-two lines.
	rng := rand.New(rand.NewSource(7))
	b := trace.NewBuilder("oracle", trace.KindCompute, 1, isa.WarpSize, 8, 0)
	b.BeginCTA()
	b.BeginWarp()
	var addrs [isa.WarpSize]uint64
	for i := 0; i < 600; i++ {
		base := uint64(rng.Intn([]int{12 << 10, 256 << 10}[rng.Intn(2)])) &^ 3
		stride := []uint64{4, 8, 64, 128, 256, 4096}[rng.Intn(6)]
		for l := range addrs {
			addrs[l] = base + uint64(l)*stride
		}
		op, class := isa.OpLDG, trace.ClassCompute
		switch rng.Intn(4) {
		case 0:
			op = isa.OpSTG
		case 1:
			op, class = isa.OpTEX, trace.ClassTexture
		}
		b.Mem(op, b.NewReg(), trace.FullMask, addrs[:], class)
	}
	w := &b.Finish().CTAs[0].Warps[0]

	now := int64(0)
	var want mem.Counters
	var lanes [isa.WarpSize]uint64
	var c trace.Cursor
	for l := range w.Insts {
		in := &w.Insts[l]
		cur := c
		c = w.Next(c, in)
		if !in.HasAddrs() {
			continue
		}
		var lines []uint64
	lanes:
		for _, a := range w.Addrs(cur, in, &lanes) {
			for _, seen := range lines {
				if seen == a/uint64(cfg.LineSize) {
					continue lanes
				}
			}
			lines = append(lines, a/uint64(cfg.LineSize))
		}
		for _, line := range lines {
			now += 100_000
			addr := line * uint64(cfg.LineSize)
			store := in.Op == isa.OpSTG
			var l1Hit bool
			if store {
				sys.Store(now, 0, 1, in.Class, addr)
				if l1Hit = l1.resident(addr, -1); l1Hit {
					l1.access(addr, true, -1)
				}
			} else {
				sys.Load(now, 0, 1, in.Class, addr)
				l1Hit = l1.access(addr, false, -1).hit
			}
			want.L1Accesses++
			if !l1Hit {
				want.L1Misses++
			}
			if store || !l1Hit {
				want.L2Accesses++
				if !l2.access(addr, store, l2Set(line)).hit {
					want.L2Misses++
				}
			}
		}
	}
	got := *sys.Counters(1)
	if got.L1Accesses != want.L1Accesses || got.L1Misses != want.L1Misses ||
		got.L2Accesses != want.L2Accesses || got.L2Misses != want.L2Misses {
		t.Fatalf("mem.System counts %+v, oracle %+v", got, want)
	}
	if want.L1Misses == 0 || want.L1Misses == want.L1Accesses || want.L2Misses == 0 || want.L2Misses == want.L2Accesses {
		t.Fatalf("oracle counts %+v: the stream no longer exercises both hits and misses at both levels", want)
	}
	t.Logf("%d line accesses: L1 %d misses, L2 %d accesses, %d misses", want.L1Accesses, want.L1Misses, want.L2Accesses, want.L2Misses)
}
