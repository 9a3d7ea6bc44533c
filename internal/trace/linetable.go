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
// an LDS/STS it is the bank-conflict degree. The table is the warp's, not
// its program's: one count byte per global, texture or shared access in
// instruction order — its number of lines, or its degree — and the lines
// themselves back to back, so a Cursor walking the warp finds each entry.
// Builder fills the table as instructions are appended and Load after
// decoding, both through Coalesce and BankConflictDegree — the same two
// functions the timing model calls when a warp has no table (a hand-built
// kernel, a fault-injected one, a config with another line size) and when
// the -no-skip oracle refuses to trust it. The table is derived state:
// never serialized, never hashed.

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

// countsIn reports whether an access to space takes a line-table entry.
func countsIn(space isa.Space) bool {
	return space == isa.SpaceGlobal || space == isa.SpaceTexture || space == isa.SpaceShared
}

// tableBuf collects one CTA's line table, one warp after another; carve
// cuts it into the warps.
type tableBuf struct {
	counts []uint8
	lines  []uint64
	ends   []tableEnd // where each closed warp's entries end
}

// tableEnd is where a warp's counts and lines end in its CTA's.
type tableEnd struct{ count, line int }

// add derives in's line-table entry, if it takes one, from its per-lane
// addresses and returns its line count (0 for an instruction with none).
func (t *tableBuf) add(in *Inst, addrs []uint64) int {
	switch isa.SpaceOf(in.Op) {
	case isa.SpaceGlobal, isa.SpaceTexture:
		n := len(t.lines)
		t.lines = Coalesce(t.lines, addrs, CacheLineSize)
		t.counts = append(t.counts, uint8(len(t.lines)-n))
		return len(t.lines) - n
	case isa.SpaceShared:
		t.counts = append(t.counts, uint8(BankConflictDegree(addrs)))
	}
	return 0
}

// endWarp closes the open warp's share.
func (t *tableBuf) endWarp() {
	t.ends = append(t.ends, tableEnd{len(t.counts), len(t.lines)})
}

// carve gives each warp of one CTA its line table, its counts and its lines
// each cut, capacity clipped, from one array of exactly the CTA's total, and
// empties t for the next CTA.
func (t *tableBuf) carve(warps []Warp) {
	counts, lines := slices.Clone(t.counts), slices.Clone(t.lines)
	var start tableEnd
	for i, end := range t.ends {
		w := &warps[i]
		w.counts = counts[start.count:end.count:end.count]
		w.lines = lines[start.line:end.line:end.line]
		w.lineSize = CacheLineSize
		start = end
	}
	t.counts, t.lines, t.ends = t.counts[:0], t.lines[:0], t.ends[:0]
}

// carveAddrArenas gives each warp of one CTA its address arena, cut,
// capacity clipped, out of arena, which the warps keep: warp i's ends at
// ends[i], where warp i+1's starts.
func carveAddrArenas(warps []Warp, arena []byte, ends []int) {
	start := 0
	for i := range warps {
		warps[i].addrs = arena[start:ends[i]:ends[i]]
		start = ends[i]
	}
}

// HasLineTable reports whether the warp carries a line table derived at
// lineSize; when not, its lines (and conflict degrees) must be derived from
// its address records instead.
func (w *Warp) HasLineTable(lineSize int) bool {
	return w.lineSize != 0 && w.lineSize == lineSize
}

// Lines returns the unique lines of the LDG, STG or TEX at cursor c out of
// the warp's line table.
func (w *Warp) Lines(c Cursor) []uint64 {
	return w.lines[c.line : c.line+uint32(w.counts[c.count])]
}

// ConflictDegree returns the tabled bank-conflict degree of the LDS or STS
// at cursor c.
func (w *Warp) ConflictDegree(c Cursor) int { return int(w.counts[c.count]) }

// deriveLineTable builds the line table of every warp of k from its
// address records, as the Builder would have (Load's half of the
// derivation).
func (k *Kernel) deriveLineTable() {
	var t tableBuf
	var lanes [isa.WarpSize]uint64
	for i := range k.CTAs {
		warps := k.CTAs[i].Warps
		for j := range warps {
			w := &warps[j]
			var c Cursor
			for l := range w.Insts {
				in := &w.Insts[l]
				t.add(in, w.Addrs(c, in, &lanes))
				c = w.Next(c, in)
			}
			t.endWarp()
		}
		t.carve(warps)
	}
}

// Clone returns a deep copy of the warp: a program of its own, address
// arena and line table. The copy is unmarked (its mark names the original's
// instruction), so Check walks it: a clone exists to be edited.
func (w *Warp) Clone() Warp {
	c := *w
	c.Insts = slices.Clone(w.Insts)
	c.addrs = slices.Clone(w.addrs)
	c.counts = slices.Clone(w.counts)
	c.lines = slices.Clone(w.lines)
	return c
}

// DropLineTable marks every warp's line table absent, so that the timing
// model derives lines and conflict degrees from the address records.
func (k *Kernel) DropLineTable() {
	for i := range k.CTAs {
		for j := range k.CTAs[i].Warps {
			w := &k.CTAs[i].Warps[j]
			w.counts, w.lines, w.lineSize = nil, nil, 0
		}
	}
}
