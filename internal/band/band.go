// Package band maps integer ids to records without a Go map, for lookups
// on the timing model's per-instruction and per-access paths. Ids come in
// two bands: the dense one, [0, limit), indexes a slice that grows only to
// the largest id seen; every other id sits in a short list sorted by id
// and scanned linearly. Stream ids fit this shape — graphics batches count
// up from 0, the few compute streams sit at multiples of 1<<20 — and so do
// task ids, small integers with rare outliers.
package band

import (
	"slices"
	"sort"
)

// Table maps ids to *T. Records are held by pointer, so a pointer a
// lookup returned stays valid while the table grows.
type Table[T any] struct {
	limit int
	lo    []*T // indexed by id; nil = no record
	hiIDs []int
	hi    []*T
}

// New returns an empty table whose dense band is [0, limit).
func New[T any](limit int) Table[T] { return Table[T]{limit: limit} }

// Peek returns id's record, or nil when it has none.
func (t *Table[T]) Peek(id int) *T {
	if id >= 0 && id < t.limit {
		if id < len(t.lo) {
			return t.lo[id]
		}
		return nil
	}
	for i, h := range t.hiIDs {
		if h == id {
			return t.hi[i]
		}
	}
	return nil
}

// Get returns id's record, creating a zero one on first use.
func (t *Table[T]) Get(id int) *T {
	if p := t.Peek(id); p != nil {
		return p
	}
	p := new(T)
	t.Put(id, p)
	return p
}

// Put sets id's record, replacing any it had.
func (t *Table[T]) Put(id int, p *T) {
	if id >= 0 && id < t.limit {
		if id >= len(t.lo) {
			t.lo = append(t.lo, make([]*T, id+1-len(t.lo))...)
		}
		t.lo[id] = p
		return
	}
	i := sort.SearchInts(t.hiIDs, id)
	if i < len(t.hiIDs) && t.hiIDs[i] == id {
		t.hi[i] = p
		return
	}
	t.hiIDs = slices.Insert(t.hiIDs, i, id)
	t.hi = slices.Insert(t.hi, i, p)
}

// IDs lists the ids that hold a record, ascending: negative ids, then the
// dense band, then ids at or above its limit.
func (t *Table[T]) IDs() []int {
	ids := make([]int, 0, len(t.hiIDs)+8)
	n := sort.SearchInts(t.hiIDs, 0)
	ids = append(ids, t.hiIDs[:n]...)
	for id, p := range t.lo {
		if p != nil {
			ids = append(ids, id)
		}
	}
	return append(ids, t.hiIDs[n:]...)
}

// Reset drops every record.
func (t *Table[T]) Reset() { t.lo, t.hiIDs, t.hi = nil, nil, nil }
