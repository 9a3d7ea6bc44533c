package trace_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"crisp/internal/isa"
	"crisp/internal/trace"
	"crisp/internal/trace/tracetest"
)

func TestCoalesceUniqueLines(t *testing.T) {
	addrs := []uint64{0, 4, 8, 128, 132, 256, 0}
	if lines, want := trace.Coalesce(nil, addrs, 128), []uint64{0, 1, 2}; !slices.Equal(lines, want) {
		t.Errorf("Coalesce = %v, want %v", lines, want)
	}
	// Appending to an arena dedups within the instruction only: an earlier
	// instruction's lines are not this one's.
	if arena, want := trace.Coalesce([]uint64{1, 2}, addrs, 128), []uint64{1, 2, 0, 1, 2}; !slices.Equal(arena, want) {
		t.Errorf("Coalesce onto an arena = %v, want %v", arena, want)
	}
	rng := rand.New(rand.NewSource(7))
	var buf [isa.WarpSize]uint64
	for i := 0; i < 5000; i++ {
		addrs := make([]uint64, 1+rng.Intn(32))
		span, lineSize := uint64(1+rng.Intn(1<<12)), uint64(32<<rng.Intn(3))
		for l := range addrs {
			addrs[l] = uint64(rng.Int63n(int64(span)))
		}
		if got, want := trace.Coalesce(buf[:0], addrs, lineSize), tracetest.RefCoalesce(addrs, lineSize); !slices.Equal(got, want) {
			t.Fatalf("addrs %v at %d B: lines %v, reference %v", addrs, lineSize, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { trace.Coalesce(buf[:0], addrs, 128) }); n != 0 {
		t.Errorf("Coalesce into a stack buffer allocates %v times per call", n)
	}
}

func TestBankConflictDegreeMatchesReference(t *testing.T) {
	lanes := func(f func(i uint64) uint64) []uint64 {
		a := make([]uint64, 32)
		for i := range a {
			a[i] = f(uint64(i))
		}
		return a
	}
	for _, tc := range []struct {
		name  string
		addrs []uint64
		want  int
	}{
		{"no addresses", nil, 1},
		{"32-lane broadcast", lanes(func(uint64) uint64 { return 64 }), 1},
		{"stride 1 word", lanes(func(i uint64) uint64 { return i * 4 }), 1},
		{"stride 32 words", lanes(func(i uint64) uint64 { return i * 32 * 4 }), 32},
		{"two words per bank", lanes(func(i uint64) uint64 { return (i%16 + i/16*32) * 4 }), 2},
		{"bytes of one word", lanes(func(i uint64) uint64 { return i % 4 }), 1},
		// Lanes alternate between re-reading word 0 (a broadcast) and
		// camping bank 0 with fresh words: 16 distinct words plus word 0.
		{"duplicates interleaved with conflicts", lanes(func(i uint64) uint64 { return i % 2 * (i + 1) * 32 * 4 }), 17},
		{"partial warp", lanes(func(i uint64) uint64 { return i * 64 * 4 })[:5], 5},
	} {
		if got := trace.BankConflictDegree(tc.addrs); got != tc.want {
			t.Errorf("%s: degree %d, want %d", tc.name, got, tc.want)
		}
		if ref := tracetest.RefConflictDegree(tc.addrs); ref != tc.want {
			t.Errorf("%s: the reference says %d, the table %d", tc.name, ref, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		// Few distinct words over few banks, so that duplicates, conflicts
		// and both at once are all common.
		addrs := make([]uint64, 1+rng.Intn(32))
		words, spread := uint64(1+rng.Intn(40)), uint64(1+rng.Intn(64))
		for l := range addrs {
			addrs[l] = uint64(rng.Int63n(int64(words)))*spread*4 + uint64(rng.Intn(4))
		}
		if got, want := trace.BankConflictDegree(addrs), tracetest.RefConflictDegree(addrs); got != want {
			t.Fatalf("addrs %v: degree %d, reference %d", addrs, got, want)
		}
	}
	offsets := make([]uint64, 32)
	if n := testing.AllocsPerRun(100, func() { trace.BankConflictDegree(offsets) }); n != 0 {
		t.Errorf("BankConflictDegree allocates %v times per call", n)
	}
}

// memKernel mixes every kind of table entry: coalesced and scattered
// loads, a store, a texture fetch, shared accesses with and without
// offsets, under full and partial masks.
func memKernel() *trace.Kernel {
	rng := rand.New(rand.NewSource(11))
	b := trace.NewBuilder("mem", trace.KindCompute, 3, 2*isa.WarpSize, 16, 1024)
	for c := 0; c < 3; c++ {
		b.BeginCTA()
		for w := 0; w < 2; w++ {
			b.BeginWarp()
			for i := 0; i < 12; i++ {
				lanes := 1 + rng.Intn(isa.WarpSize)
				mask := uint32(uint64(1)<<lanes - 1)
				addrs := make([]uint64, lanes)
				stride := uint64(4 << rng.Intn(6))
				for l := range addrs {
					addrs[l] = uint64(c<<20+w<<16+i<<12) + uint64(l)*stride
				}
				switch i % 6 {
				case 0, 1:
					b.Mem(isa.OpLDG, b.NewReg(), mask, addrs, trace.ClassCompute)
				case 2:
					b.Mem(isa.OpSTG, isa.RegNone, mask, addrs, trace.ClassCompute)
				case 3:
					b.Mem(isa.OpTEX, b.NewReg(), mask, addrs, trace.ClassTexture)
				case 4:
					b.SharedAddr(isa.OpSTS, isa.RegNone, mask, addrs[:lanes])
				case 5:
					b.Shared(isa.OpLDS, b.NewReg(), mask)
				}
				b.ALU(isa.OpFADD, b.NewReg(), mask)
			}
			b.Barrier()
		}
	}
	return b.Finish()
}

// TestLineTableBuiltAndReloaded: the Builder fills the table as it goes and
// Load re-derives it after decoding; both must equal the reference
// derivation, and a reloaded kernel must re-save to the same bytes.
func TestLineTableBuiltAndReloaded(t *testing.T) {
	built := []*trace.Kernel{memKernel()}
	lines, conflicts, err := tracetest.CheckLineTable(built)
	if err != nil {
		t.Fatalf("after Builder.Finish: %v", err)
	}
	if lines != 3*2*8 || conflicts != 3*2*4 {
		t.Fatalf("checked %d line entries and %d conflict entries; the kernel has 48 and 24", lines, conflicts)
	}
	var file bytes.Buffer
	if err := trace.Save(&file, built); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(file.Bytes())
	loaded, err := trace.Load(&file)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tracetest.CheckLineTable(loaded); err != nil {
		t.Fatalf("after Save and Load: %v", err)
	}
	if err := loaded[0].Validate(); err != nil {
		t.Fatalf("loaded kernel: %v", err)
	}
	var again bytes.Buffer
	if err := trace.Save(&again, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, again.Bytes()) {
		t.Error("a loaded trace re-saves to different bytes")
	}
}

// TestHandBuiltKernelHasNoLineTable: a kernel assembled from literals, or
// one whose table was dropped, reports none at any line size, and a table
// answers only for the line size it was derived at.
func TestHandBuiltKernelHasNoLineTable(t *testing.T) {
	hand := &trace.Kernel{Name: "hand", ThreadsPerCTA: 32, CTAs: []trace.CTA{{Warps: []trace.Warp{{Insts: []trace.Inst{
		{Op: isa.OpLDG, Dst: 0, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: 1, Class: trace.ClassCompute},
		{Op: isa.OpEXIT, Dst: isa.RegNone, SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone, Mask: 1},
	}}}}}}
	if err := hand.Validate(); err == nil {
		t.Error("a hand-built LDG without addresses validates")
	}
	hand.CTAs[0].Warps[0].SetAddrs(0, []uint64{4096})
	if err := hand.Validate(); err != nil {
		t.Fatal(err)
	}
	if hand.CTAs[0].Warps[0].HasLineTable(trace.CacheLineSize) {
		t.Error("a hand-built warp claims a line table")
	}
	k := memKernel()
	w := &k.CTAs[0].Warps[0]
	if !w.HasLineTable(trace.CacheLineSize) {
		t.Error("a Builder-made warp has no table at the size it was derived at")
	}
	if w.HasLineTable(64) {
		t.Error("a table derived at 128 B answers for 64 B lines")
	}
	k.DropLineTable()
	if w.HasLineTable(trace.CacheLineSize) {
		t.Error("DropLineTable left a table behind")
	}
}
