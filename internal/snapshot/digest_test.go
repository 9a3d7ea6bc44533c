package snapshot

import "testing"

func sampleArch() *ArchState {
	return &ArchState{
		Cycle:       8113,
		TotalIssued: 123456,
		MaxTask:     1,
		PolicyName:  "EVEN",
		PolicyBlob:  []byte{1, 2, 3},
		Streams: []StreamState{
			{ID: 0, NextKernel: 2, Active: true, Started: true, StartCycle: 17,
				Stat: StreamCounters{Cycles: 100, WarpInsts: 200, ThreadInsts: 6400,
					TexAccesses: 3, KernelsLaunched: 2, CTAsLaunched: 4, Stalls: []int64{1, 2, 3, 0, 0}}},
			{ID: 1 << 20, NextKernel: 1, Active: true, StartCycle: 0,
				Stat: StreamCounters{Cycles: 90, WarpInsts: 150, Stalls: []int64{0, 0, 0, 0, 0}}},
		},
		Running:       []LaunchState{{StreamID: 0, KernelIdx: 1, Task: 0, NextCTA: 3, DoneCTAs: 1, Started: 40, LastDone: 80}},
		Kernels:       []KernelStatState{{Name: "k0", Stream: 0, Task: 0, Launched: 17, Done: 39, CTAs: 2}},
		InstsBySMTask: [][]int64{{10, 20}, {30, 40}},
		Cores: []CoreState{{
			ID: 0, ArrivalSeq: 9, SchedSlots: 400, EmptySlots: 13,
			CTAs: []CTAState{{Ref: 0, StreamID: 0, KernelIdx: 1, CTAIdx: 2, Task: 0,
				WarpsLeft: 3, BarArrived: 1, BarWaiting: []int{0}}},
			Scheds: []SchedState{{LastWarp: 0, RR: 1, UnitFree: []int64{100, 101},
				Warps: []WarpState{{Ref: 0, CTA: 0, WarpIdx: 0, PC: 5, BlockedUntil: 110,
					Arrival: 3, PendingRegs: []RegState{{Reg: 7, Ready: 120, FromMem: true}}}}}},
		}},
		Mem: MemState{
			L1:           []CacheState{{Lines: []LineState{{Idx: 0, Tag: 0xabc, Dirty: true, LastUse: 99, Class: 2, Stream: 0}}}},
			L1Pending:    []PendingFills{{Fills: []Fill{{Granule: 0x1000, Ready: 130}}}},
			L2:           []CacheState{{}},
			L2Pending:    []PendingFills{{}},
			L2NextFree:   []int64{105},
			DRAMNextFree: []int64{106, 107},
			Counters:     []StreamCounterState{{Stream: 0, L1Accesses: 345, L1Misses: 203, L2Accesses: 203, L2Misses: 67, DRAMReadB: 8576}},
		},
	}
}

// TestArchDigestPinned holds the digest the hand-written field list
// computed for this state before the schema walk replaced it. It fails on
// a reordered field, a changed widening or a changed frame — anything that
// would make this build's digest stream disagree with an older build's.
func TestArchDigestPinned(t *testing.T) {
	got, err := ArchDigest(sampleArch())
	if err != nil {
		t.Fatalf("ArchDigest: %v", err)
	}
	if want := uint64(0x31dddb9c45a9cda9); got != want {
		t.Fatalf("ArchDigest(sampleArch()) = %016x, want %016x", got, want)
	}
}

// TestHasherFraming: length prefixes must keep adjacent variable-length
// fields from colliding by concatenation.
func TestHasherFraming(t *testing.T) {
	h1 := NewHasher()
	h1.PutStr("ab")
	h1.PutStr("c")
	h2 := NewHasher()
	h2.PutStr("a")
	h2.PutStr("bc")
	if h1.Sum64() == h2.Sum64() {
		t.Error(`("ab","c") and ("a","bc") hash identically; string framing is broken`)
	}
	h3 := NewHasher()
	h3.PutI64s([]int64{1, 2})
	h3.PutI64s(nil)
	h4 := NewHasher()
	h4.PutI64s([]int64{1})
	h4.PutI64s([]int64{2})
	if h3.Sum64() == h4.Sum64() {
		t.Error("([1,2],[]) and ([1],[2]) hash identically; slice framing is broken")
	}
}
