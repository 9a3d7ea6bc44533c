package mem

import (
	"math"
	"testing"
	"testing/quick"

	"crisp/internal/robust"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

func mustCache(t *testing.T, size, assoc, line int) *Cache {
	t.Helper()
	c, err := NewCache(size, assoc, line)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	return c
}

func TestCacheGeometry(t *testing.T) {
	c := mustCache(t, 16<<10, 4, 128)
	if c.Sets() != 32 || c.Assoc() != 4 {
		t.Errorf("geometry = %d sets × %d ways", c.Sets(), c.Assoc())
	}
	if _, err := NewCache(1000, 4, 128); err == nil {
		t.Error("accepted non-multiple size")
	}
	if _, err := NewCache(0, 4, 128); err == nil {
		t.Error("accepted zero size")
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := mustCache(t, 16<<10, 4, 128)
	addr := uint64(0x4000)
	if c.Probe(addr, -1) {
		t.Fatal("cold cache reports hit")
	}
	res := c.Access(1, addr, false, trace.ClassCompute, 0, -1)
	if res.Hit {
		t.Fatal("first access hit")
	}
	if !c.Probe(addr, -1) {
		t.Fatal("line not resident after fill")
	}
	res = c.Access(2, addr, false, trace.ClassCompute, 0, -1)
	if !res.Hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if !c.Probe(addr+64, -1) {
		t.Fatal("same-line offset missed")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := mustCache(t, 4*128, 4, 128) // 1 set, 4 ways
	// Fill 4 ways.
	for i := 0; i < 4; i++ {
		c.Access(int64(i), uint64(i*128), false, trace.ClassCompute, 0, -1)
	}
	// Touch line 0 so line 1 is LRU.
	c.Access(10, 0, false, trace.ClassCompute, 0, -1)
	// Insert a 5th line; line 1 must be evicted.
	c.Access(11, 4*128, false, trace.ClassCompute, 0, -1)
	if c.Probe(1*128, -1) {
		t.Error("LRU line survived eviction")
	}
	if !c.Probe(0, -1) || !c.Probe(4*128, -1) {
		t.Error("wrong line evicted")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := mustCache(t, 2*128, 2, 128)                   // 1 set, 2 ways
	c.Access(1, 0, true, trace.ClassCompute, 0, -1)    // dirty
	c.Access(2, 128, false, trace.ClassCompute, 0, -1) // clean
	res := c.Access(3, 256, false, trace.ClassCompute, 0, -1)
	if !res.Writeback || res.WritebackLine != 0 {
		t.Errorf("expected writeback of line 0, got %+v", res)
	}
	res = c.Access(4, 384, false, trace.ClassCompute, 0, -1)
	if res.Writeback {
		t.Error("clean eviction produced writeback")
	}
}

func TestCacheExplicitSet(t *testing.T) {
	c := mustCache(t, 16<<10, 4, 128)
	// Two addresses that would hash to different sets, forced into set 3.
	c.Access(1, 0, false, trace.ClassCompute, 0, 3)
	c.Access(2, 128*999, false, trace.ClassCompute, 0, 3)
	if !c.Probe(0, 3) || !c.Probe(128*999, 3) {
		t.Error("explicit-set residency failed")
	}
	if c.Probe(0, 0) {
		t.Error("line visible in wrong set")
	}
}

func TestCacheComposition(t *testing.T) {
	c := mustCache(t, 16<<10, 4, 128)
	c.Access(1, 0, false, trace.ClassTexture, 7, -1)
	c.Access(2, 128, false, trace.ClassTexture, 7, -1)
	c.Access(3, 256, false, trace.ClassCompute, 9, -1)
	comp := c.Composition()
	if comp.Valid != 3 {
		t.Errorf("valid = %d", comp.Valid)
	}
	if comp.ByClass[trace.ClassTexture] != 2 || comp.ByClass[trace.ClassCompute] != 1 {
		t.Errorf("byClass = %v", comp.ByClass)
	}
	if comp.ByStream[7] != 2 || comp.ByStream[9] != 1 {
		t.Errorf("byStream = %v", comp.ByStream)
	}
	// Re-touch by another stream: ownership transfers.
	c.Access(4, 0, false, trace.ClassCompute, 9, -1)
	comp = c.Composition()
	if comp.ByStream[9] != 2 {
		t.Errorf("ownership did not follow toucher: %v", comp.ByStream)
	}
}

func TestCompositionMerge(t *testing.T) {
	a := Composition{Valid: 1, Total: 10, ByClass: map[trace.MemClass]int{trace.ClassTexture: 1}, ByStream: map[int]int{0: 1}}
	b := Composition{Valid: 2, Total: 10, ByClass: map[trace.MemClass]int{trace.ClassTexture: 2}, ByStream: map[int]int{1: 2}}
	a.Merge(b)
	if a.Valid != 3 || a.Total != 20 || a.ByClass[trace.ClassTexture] != 3 || a.ByStream[1] != 2 {
		t.Errorf("merge = %+v", a)
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	c := mustCache(t, 16<<10, 4, 128)
	c.Access(1, 0, false, trace.ClassCompute, 0, -1)
	c.InvalidateAll()
	if c.Probe(0, -1) {
		t.Error("line survived InvalidateAll")
	}
	if c.Composition().Valid != 0 {
		t.Error("composition nonzero after invalidate")
	}
}

// Property: after accessing any sequence of addresses, the most recently
// accessed address is always resident.
func TestCacheMRUAlwaysResident(t *testing.T) {
	c := mustCache(t, 4<<10, 4, 128)
	f := func(addrs []uint16) bool {
		c.InvalidateAll()
		for i, a16 := range addrs {
			addr := uint64(a16) * 64
			c.Access(int64(i), addr, a16%3 == 0, trace.ClassCompute, 0, -1)
			if !c.Probe(addr, -1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: valid-line count never exceeds capacity and never decreases
// under pure insertion.
func TestCacheValidCountBounded(t *testing.T) {
	c := mustCache(t, 2<<10, 2, 128) // 16 lines
	f := func(addrs []uint16) bool {
		c.InvalidateAll()
		for i, a := range addrs {
			c.Access(int64(i), uint64(a)*128, false, trace.ClassCompute, 0, -1)
			if v := c.Composition().Valid; v > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnsectoredBehaviorUnchanged(t *testing.T) {
	c := mustCache(t, 4<<10, 4, 128)
	c.Access(1, 0x2000, false, trace.ClassCompute, 0, -1)
	// Whole line resident after one access.
	if !c.Probe(0x2000, -1) || !c.Probe(0x2040, -1) {
		t.Error("line-granular fill broken")
	}
}

// restoreErr restores a hand-made capture into a fresh 1-set, 4-way cache
// and returns the error, which must be a snapshot SimError when non-nil.
func restoreErr(t *testing.T, lines ...snapshot.LineState) error {
	t.Helper()
	err := mustCache(t, 4*128, 4, 128).restoreState(snapshot.CacheState{Lines: lines})
	if se, ok := robust.AsSimError(err); err != nil && (!ok || se.Kind != robust.KindSnapshot) {
		t.Fatalf("restore error %v is not a snapshot SimError", err)
	}
	return err
}

func TestRestoreRefusesDuplicateIndex(t *testing.T) {
	if err := restoreErr(t, snapshot.LineState{Idx: 1, Tag: 5}, snapshot.LineState{Idx: 2, Tag: 6}); err != nil {
		t.Fatalf("a well-formed capture was refused: %v", err)
	}
	if err := restoreErr(t, snapshot.LineState{Idx: 1, Tag: 5}, snapshot.LineState{Idx: 1, Tag: 6}); err == nil {
		t.Fatal("a second line for an already-filled index was accepted")
	}
}

func TestRestoreRefusesImpossibleTag(t *testing.T) {
	if err := restoreErr(t, snapshot.LineState{Idx: 0, Tag: math.MaxUint64 / 128}); err != nil {
		t.Fatalf("the highest line address was refused: %v", err)
	}
	for _, tag := range []uint64{math.MaxUint64/128 + 1, math.MaxUint64} {
		if err := restoreErr(t, snapshot.LineState{Idx: 0, Tag: tag}); err == nil {
			t.Errorf("tag %#x, which no address of 128-byte lines has, was accepted", tag)
		}
	}
}
