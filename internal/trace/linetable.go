package trace

import (
	"math/bits"
	"slices"

	"crisp/internal/isa"
)

// This file is the line table: what the timing model needs to know about a
// memory instruction's addresses, derived once where the addresses are made
// instead of at every issue of every replay.
//
// For an LDG/STG/TEX that is the list of unique cache lines the lanes touch,
// in first-touch order (the order the LDST unit sends them to the L1); for
// an LDS/STS it is the bank-conflict degree. Lines live in one arena per
// warp, addressed by each instruction's (lineOff, nLines); the degree fits
// the instruction itself. Builder fills the table as instructions are
// appended and Load after decoding, both through Coalesce and
// BankConflictDegree — the same two functions the timing model calls when a
// warp has no table (a hand-built kernel, a fault-injected one, a config
// with another line size) and when the -no-skip oracle refuses to trust it.
// The table is derived state: never serialized, never hashed.

// Coalesce reduces per-lane byte addresses to unique line numbers
// (address / lineSize), appended to lines in first-touch order. Callers
// pass a WarpSize-capacity buffer; a warp has at most 32 lanes, so a linear
// scan beats a map.
func Coalesce(lines, addrs []uint64, lineSize uint64) []uint64 {
	base := len(lines)
	// Every preset's line size is a power of two: shift instead of divide.
	shift, pow2 := uint(bits.TrailingZeros64(lineSize)), lineSize&(lineSize-1) == 0
next:
	for _, a := range addrs {
		la := a >> shift
		if !pow2 {
			la = a / lineSize
		}
		// Neighbouring lanes mostly share a line: look at the newest first.
		for i := len(lines) - 1; i >= base; i-- {
			if lines[i] == la {
				continue next
			}
		}
		lines = append(lines, la)
	}
	return lines
}

// BankConflictDegree computes the bank-conflict serialization of a
// shared-memory access from its per-lane byte offsets: 32 banks of 4-byte
// words; lanes touching distinct words in the same bank serialize, lanes
// touching the same word broadcast. An access without offsets is modeled
// conflict-free. A warp has at most WarpSize lanes, so the distinct words
// fit a stack array, chained per bank so that a lane is compared only
// against its own bank's words.
func BankConflictDegree(offsets []uint64) int {
	const banks = 32
	if len(offsets) > isa.WarpSize {
		offsets = offsets[:isa.WarpSize]
	}
	// Most accesses put every lane in a bank of its own; that takes no
	// table to see.
	var seen uint32
	distinct := true
	for _, off := range offsets {
		bit := uint32(1) << (off / 4 % banks)
		if seen&bit != 0 {
			distinct = false
			break
		}
		seen |= bit
	}
	if distinct {
		return 1
	}
	var (
		words [isa.WarpSize]uint64 // distinct words, in first-touch order
		prev  [isa.WarpSize]uint8  // 1-based index of the bank's previous word, 0 = none
		head  [banks]uint8         // 1-based index of the bank's latest word, 0 = none
		count [banks]uint8         // distinct words per bank
	)
	n, degree := 0, 1
next:
	for _, off := range offsets {
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

// table derives in's line-table entry from its per-lane addresses,
// appending its lines to lines, where the instruction's warp starts at
// warpStart.
func (in *Inst) table(addrs, lines []uint64, warpStart int) []uint64 {
	switch isa.SpaceOf(in.Op) {
	case isa.SpaceGlobal, isa.SpaceTexture:
		n := len(lines)
		in.lineOff = uint32(n - warpStart)
		lines = Coalesce(lines, addrs, CacheLineSize)
		in.nLines = uint8(len(lines) - n)
	case isa.SpaceShared:
		in.conflict = uint8(BankConflictDegree(addrs))
	}
	return lines
}

// carveLineArenas gives each warp of one CTA its line arena: lines holds
// the warps' lines back to back, warp i ending at ends[i]. The arenas are
// cut, capacity clipped, from one array of exactly that size.
func carveLineArenas(warps []Warp, lines []uint64, ends []int) {
	arena := slices.Clone(lines)
	start := 0
	for i := range warps {
		warps[i].lines, warps[i].lineSize = arena[start:ends[i]:ends[i]], CacheLineSize
		start = ends[i]
	}
}

// carveAddrArenas cuts the warps' address arenas the same way out of arena,
// which the warps keep: the caller hands over an array of exactly their
// total size.
func carveAddrArenas(warps []Warp, arena []byte, ends []int) {
	start := 0
	for i := range warps {
		warps[i].addrs = arena[start:ends[i]:ends[i]]
		start = ends[i]
	}
}

// LineTable returns the warp's line arena when the warp carries a table
// derived at lineSize; ok is false when the lines (and the conflict
// degrees) must be derived from the address records instead.
func (w *Warp) LineTable(lineSize int) (arena []uint64, ok bool) {
	return w.lines, w.lineSize != 0 && w.lineSize == lineSize
}

// Lines returns the instruction's unique lines out of its warp's arena.
func (in *Inst) Lines(arena []uint64) []uint64 {
	return arena[in.lineOff : in.lineOff+uint32(in.nLines)]
}

// ConflictDegree returns the tabled bank-conflict degree of an LDS/STS.
func (in *Inst) ConflictDegree() int { return int(in.conflict) }

// deriveLineTable builds the line table of every warp of k from its
// address records, as the Builder would have (Load's half of the
// derivation).
func (k *Kernel) deriveLineTable() {
	var lines []uint64
	var ends []int
	var lanes [isa.WarpSize]uint64
	for i := range k.CTAs {
		warps := k.CTAs[i].Warps
		lines, ends = lines[:0], ends[:0]
		for j := range warps {
			w := &warps[j]
			start := len(lines)
			for l := range w.Insts {
				in := &w.Insts[l]
				lines = in.table(w.Addrs(in, &lanes), lines, start)
			}
			ends = append(ends, len(lines))
		}
		carveLineArenas(warps, lines, ends)
	}
}

// Clone returns a deep copy of the warp: instructions, address arena and
// line table. The copy is unmarked (its mark names the original's
// instruction), so Check walks it: a clone exists to be edited.
func (w *Warp) Clone() Warp {
	c := *w
	c.Insts = slices.Clone(w.Insts)
	c.addrs = slices.Clone(w.addrs)
	c.lines = slices.Clone(w.lines)
	return c
}

// DropLineTable marks every warp's line table absent, so that the timing
// model derives lines and conflict degrees from the address records.
func (k *Kernel) DropLineTable() {
	for i := range k.CTAs {
		for j := range k.CTAs[i].Warps {
			w := &k.CTAs[i].Warps[j]
			w.lines, w.lineSize = nil, 0
		}
	}
}
