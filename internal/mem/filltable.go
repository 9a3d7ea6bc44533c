package mem

// fillTable tracks in-flight line fills (MSHR merge state) as an
// open-addressed hash table from fill granule to data-ready cycle. It
// replaces the per-SM / per-bank map[uint64]int64 on the hot path: the
// tables are small (sized by the MSHR count), stay allocated across the
// run, and probe with a multiplicative hash plus linear scan instead of
// the runtime map machinery.
//
// Semantics are exactly those of the maps it replaces: size() counts
// every stored entry (including fills whose ready cycle has passed but
// that have not been deleted yet — the capacity-stall check deliberately
// counts those, matching the original len(map) test), minReadyAfter()
// answers over all stored entries, and gc() deletes entries with
// ready <= cutoff. Every consumer is order-independent (min, predicate
// delete, sorted capture), so swapping the map's random iteration order
// for the table's slot order cannot change any simulated cycle or digest.
//
// The two whole-table questions — "how long does a full MSHR file stall a
// request starting at cycle s" and "which fills completed by cycle c" —
// are asked on every L1 miss once the table holds MSHRs entries, which,
// because expired fills count, is nearly always. Neither scans unless it
// has to: the table keeps a witness slot lo. While loExact is set, lo
// holds the minimum ready cycle over all stored entries (maintained on
// insert, recomputed by the scans below, dropped when lo's own entry is
// deleted, updated or collected). Otherwise lo is merely some stored
// entry a scan stopped at because it had already completed; that alone
// answers every later stall query at an equal or later cycle.
type fillTable struct {
	keys  []uint64
	ready []int64
	state []uint8 // slot states: fillEmpty, fillLive, fillDead
	live  int     // stored entries
	used  int     // live + tombstones (probe-chain occupancy)

	lo      int  // witness slot, -1 when none is known
	loExact bool // ready[lo] is the minimum over all stored entries

	// Scratch for rehash, so clearing tombstones in place allocates
	// nothing once warm.
	moveKeys  []uint64
	moveReady []int64
}

const (
	fillEmpty uint8 = iota
	fillLive
	fillDead // tombstone: deleted, but probe chains pass through

	fillNoReady = int64(1<<62 - 1) // minimum ready cycle of an empty table
)

// initTable sizes the table for an expected MSHR population. Capacity is
// a power of two so the probe mask is cheap; it starts at 8x the MSHR
// count because the garbage collector only triggers above 4x and deletes
// lazily, so the steady-state population can sit just past that line.
func (t *fillTable) initTable(mshrs int) {
	capacity := 8
	for capacity < 8*mshrs {
		capacity *= 2
	}
	t.keys = make([]uint64, capacity)
	t.ready = make([]int64, capacity)
	t.state = make([]uint8, capacity)
	t.reset()
}

func fillHash(g uint64) uint64 {
	// Fibonacci multiplicative hash; granules are sequential line
	// indices, so the multiply is what spreads neighbors across slots.
	return g * 0x9e3779b97f4a7c15
}

// size reports the number of stored entries (live fills, expired or not).
func (t *fillTable) size() int { return t.live }

// get returns the ready cycle for granule g, if a fill is stored.
func (t *fillTable) get(g uint64) (int64, bool) {
	mask := uint64(len(t.keys) - 1)
	for i := fillHash(g) & mask; ; i = (i + 1) & mask {
		switch t.state[i] {
		case fillEmpty:
			return 0, false
		case fillLive:
			if t.keys[i] == g {
				return t.ready[i], true
			}
		}
	}
}

// del removes the entry for granule g if present.
func (t *fillTable) del(g uint64) {
	mask := uint64(len(t.keys) - 1)
	for i := fillHash(g) & mask; ; i = (i + 1) & mask {
		switch t.state[i] {
		case fillEmpty:
			return
		case fillLive:
			if t.keys[i] == g {
				t.state[i] = fillDead
				t.live--
				if int(i) == t.lo {
					t.lo, t.loExact = -1, false
				}
				return
			}
		}
	}
}

// set inserts or updates the fill for granule g.
func (t *fillTable) set(g uint64, ready int64) {
	// Keep probe chains short: rehash when the chain occupancy (live +
	// tombstones) passes 3/4 of capacity. Growth doubles only when the
	// live population itself is the pressure; otherwise the rehash just
	// clears tombstones in place.
	if 4*(t.used+1) > 3*len(t.keys) {
		newCap := len(t.keys)
		if 2*t.live >= len(t.keys) {
			newCap *= 2
		}
		t.rehash(newCap)
	}
	mask := uint64(len(t.keys) - 1)
	firstDead := -1
	for i := fillHash(g) & mask; ; i = (i + 1) & mask {
		switch t.state[i] {
		case fillEmpty:
			if firstDead >= 0 {
				i = uint64(firstDead)
			} else {
				t.used++
			}
			t.keys[i] = g
			t.ready[i] = ready
			t.state[i] = fillLive
			if t.live == 0 || (t.loExact && ready < t.ready[t.lo]) {
				t.lo, t.loExact = int(i), true
			}
			t.live++
			return
		case fillLive:
			if t.keys[i] == g {
				t.ready[i] = ready
				if int(i) == t.lo {
					t.lo, t.loExact = -1, false
				} else if t.loExact && ready < t.ready[t.lo] {
					t.lo = int(i)
				}
				return
			}
		case fillDead:
			if firstDead < 0 {
				firstDead = int(i)
			}
		}
	}
}

// rehash re-inserts every stored entry into a table of newCap slots,
// dropping the tombstones. At unchanged capacity the arrays are reused.
func (t *fillTable) rehash(newCap int) {
	t.moveKeys, t.moveReady = t.moveKeys[:0], t.moveReady[:0]
	for i, st := range t.state {
		if st == fillLive {
			t.moveKeys = append(t.moveKeys, t.keys[i])
			t.moveReady = append(t.moveReady, t.ready[i])
		}
	}
	if newCap != len(t.keys) {
		t.keys = make([]uint64, newCap)
		t.ready = make([]int64, newCap)
		t.state = make([]uint8, newCap)
	}
	t.reset()
	for i, g := range t.moveKeys {
		t.set(g, t.moveReady[i])
	}
}

// minReadyAfter returns max(start, the earliest ready cycle over all
// stored entries) — fillNoReady standing in for an empty table's minimum.
// This is the capacity-stall question: a full MSHR file holds the
// requester back until the earliest outstanding fill completes, and not
// at all if one already has.
func (t *fillTable) minReadyAfter(start int64) int64 {
	if t.lo >= 0 {
		if r := t.ready[t.lo]; r <= start {
			return start
		} else if t.loExact {
			return r
		}
	}
	lo, earliest := -1, fillNoReady
	for i, st := range t.state {
		if st != fillLive {
			continue
		}
		r := t.ready[i]
		if r <= start {
			t.lo, t.loExact = i, false
			return start
		}
		if r < earliest {
			lo, earliest = i, r
		}
	}
	t.lo, t.loExact = lo, lo >= 0
	return max(start, earliest)
}

// gc deletes every entry whose fill completed at or before cutoff.
func (t *fillTable) gc(cutoff int64) {
	if t.loExact && t.ready[t.lo] > cutoff {
		return // the earliest fill is still outstanding: nothing to collect
	}
	lo, earliest := -1, fillNoReady
	for i, st := range t.state {
		if st != fillLive {
			continue
		}
		switch r := t.ready[i]; {
		case r <= cutoff:
			t.state[i] = fillDead
			t.live--
		case r < earliest:
			lo, earliest = i, r
		}
	}
	t.lo, t.loExact = lo, lo >= 0
}

// reset drops all entries but keeps the allocation.
func (t *fillTable) reset() {
	clear(t.state)
	t.live = 0
	t.used = 0
	t.lo, t.loExact = -1, false
}
