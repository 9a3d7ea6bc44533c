package mem

import (
	"fmt"
	"math"
	"sort"

	"crisp/internal/robust"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

// This file implements checkpoint capture/restore for the memory system.
// Capture walks maps into slices sorted by key so the serialized form is
// deterministic; restore validates geometry against the live system before
// touching any state, so a snapshot from a different config fails with a
// structured error instead of corrupting the hierarchy.

func stateErr(format string, args ...any) error {
	return &robust.SimError{Kind: robust.KindSnapshot, Msg: fmt.Sprintf(format, args...)}
}

// captureState snapshots one cache's valid lines, ordered by tag-array
// index (the iteration is already deterministic; the order is the array's).
func (c *Cache) captureState() snapshot.CacheState {
	var cs snapshot.CacheState
	for i, t := range c.tags {
		if t == 0 {
			continue
		}
		l := &c.lines[i]
		cs.Lines = append(cs.Lines, snapshot.LineState{
			Idx:     i,
			Tag:     t - 1,
			Dirty:   l.dirty,
			LastUse: l.lastUse,
			Class:   uint8(l.class),
			Stream:  l.stream,
		})
	}
	return cs
}

// restoreState rebuilds the tag array from a capture. It refuses what no
// run could have written: an index outside the array, a second line for
// one index, and a tag no address in this cache's line size divides to.
func (c *Cache) restoreState(cs snapshot.CacheState) error {
	clear(c.tags)
	clear(c.lines)
	for _, ls := range cs.Lines {
		if ls.Idx < 0 || ls.Idx >= len(c.tags) {
			return stateErr("cache line index %d outside tag array of %d lines", ls.Idx, len(c.tags))
		}
		if c.tags[ls.Idx] != 0 {
			return stateErr("cache line index %d restored twice", ls.Idx)
		}
		if ls.Tag > math.MaxUint64/c.lineSize {
			return stateErr("cache line %d: tag %#x is no line address of %d-byte lines", ls.Idx, ls.Tag, c.lineSize)
		}
		c.tags[ls.Idx] = ls.Tag + 1
		c.lines[ls.Idx] = line{
			dirty:   ls.Dirty,
			lastUse: ls.LastUse,
			class:   trace.MemClass(ls.Class),
			stream:  ls.Stream,
		}
	}
	return nil
}

// capturePending flattens an MSHR fill table into a granule-sorted slice.
func capturePending(t *fillTable) snapshot.PendingFills {
	var p snapshot.PendingFills
	if t.size() == 0 {
		return p
	}
	p.Fills = make([]snapshot.Fill, 0, t.size())
	for i, st := range t.state {
		if st == fillLive {
			p.Fills = append(p.Fills, snapshot.Fill{Granule: t.keys[i], Ready: t.ready[i]})
		}
	}
	sort.Slice(p.Fills, func(i, j int) bool { return p.Fills[i].Granule < p.Fills[j].Granule })
	return p
}

func restorePending(t *fillTable, p snapshot.PendingFills) {
	t.reset()
	for _, f := range p.Fills {
		t.set(f.Granule, f.Ready)
	}
}

// CaptureState snapshots the complete memory-system state: cache tag
// arrays, in-flight MSHR fills, bank/channel queue state, and per-stream
// counters. The contention-marker rate limiters (lastL2Cont/lastDramCont)
// are tracer-only state and deliberately excluded.
func (s *System) CaptureState() snapshot.MemState {
	var ms snapshot.MemState
	ms.L1 = make([]snapshot.CacheState, len(s.l1))
	ms.L1Pending = make([]snapshot.PendingFills, len(s.l1Pending))
	for i, c := range s.l1 {
		ms.L1[i] = c.captureState()
		ms.L1Pending[i] = capturePending(&s.l1Pending[i])
	}
	ms.L2 = make([]snapshot.CacheState, len(s.l2))
	ms.L2Pending = make([]snapshot.PendingFills, len(s.l2Pending))
	for i, c := range s.l2 {
		ms.L2[i] = c.captureState()
		ms.L2Pending[i] = capturePending(&s.l2Pending[i])
	}
	ms.L2NextFree = append([]int64(nil), s.l2NextFree...)
	ms.DRAMNextFree = append([]int64(nil), s.dramNextFree...)

	ids := s.Streams()
	ms.Counters = make([]snapshot.StreamCounterState, 0, len(ids))
	for _, id := range ids {
		c := s.counters.Peek(id)
		ms.Counters = append(ms.Counters, snapshot.StreamCounterState{
			Stream:     id,
			L1Accesses: c.L1Accesses,
			L1Misses:   c.L1Misses,
			L2Accesses: c.L2Accesses,
			L2Misses:   c.L2Misses,
			DRAMReadB:  c.DRAMReadB,
			DRAMWriteB: c.DRAMWriteB,
		})
	}
	return ms
}

// RestoreState loads a capture into the live system. The system must have
// been built from the same config (the geometry check enforces it).
func (s *System) RestoreState(ms snapshot.MemState) error {
	if len(ms.L1) != len(s.l1) || len(ms.L2) != len(s.l2) ||
		len(ms.L2NextFree) != len(s.l2NextFree) || len(ms.DRAMNextFree) != len(s.dramNextFree) {
		return stateErr("memory geometry mismatch: snapshot has %d L1s/%d L2 banks/%d channels, system has %d/%d/%d",
			len(ms.L1), len(ms.L2), len(ms.DRAMNextFree), len(s.l1), len(s.l2), len(s.dramNextFree))
	}
	if len(ms.L1Pending) != len(s.l1Pending) || len(ms.L2Pending) != len(s.l2Pending) {
		return stateErr("memory snapshot inconsistent: pending-fill tables do not match cache counts")
	}
	for i, c := range s.l1 {
		if err := c.restoreState(ms.L1[i]); err != nil {
			return err
		}
		restorePending(&s.l1Pending[i], ms.L1Pending[i])
	}
	for i, c := range s.l2 {
		if err := c.restoreState(ms.L2[i]); err != nil {
			return err
		}
		restorePending(&s.l2Pending[i], ms.L2Pending[i])
	}
	copy(s.l2NextFree, ms.L2NextFree)
	copy(s.dramNextFree, ms.DRAMNextFree)

	s.counters.Reset()
	for _, cs := range ms.Counters {
		*s.counters.Get(cs.Stream) = Counters{
			L1Accesses: cs.L1Accesses,
			L1Misses:   cs.L1Misses,
			L2Accesses: cs.L2Accesses,
			L2Misses:   cs.L2Misses,
			DRAMReadB:  cs.DRAMReadB,
			DRAMWriteB: cs.DRAMWriteB,
		}
	}
	// Reset the tracer rate limiters: they only suppress duplicate
	// contention markers and carry no architectural state.
	for i := range s.lastL2Cont {
		s.lastL2Cont[i] = 0
	}
	for i := range s.lastDramCont {
		s.lastDramCont[i] = 0
	}
	return nil
}

// CaptureState snapshots the monitor with its shadow-tag stacks sorted by
// sampled-set key.
func (u *UMON) CaptureState() snapshot.UMONState {
	us := snapshot.UMONState{
		WayHits:  append([]int64(nil), u.WayHits...),
		Accesses: u.Accesses,
		Misses:   u.Misses,
	}
	keys := make([]uint64, 0, len(u.stacks))
	for k := range u.stacks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	us.Stacks = make([]snapshot.UMONStack, 0, len(keys))
	for _, k := range keys {
		us.Stacks = append(us.Stacks, snapshot.UMONStack{
			Key:  k,
			Tags: append([]uint64(nil), u.stacks[k]...),
		})
	}
	return us
}

// RestoreState loads a monitor capture.
func (u *UMON) RestoreState(us snapshot.UMONState) error {
	if len(us.WayHits) != len(u.WayHits) {
		return stateErr("UMON snapshot has %d way counters, monitor has %d", len(us.WayHits), len(u.WayHits))
	}
	copy(u.WayHits, us.WayHits)
	u.Accesses = us.Accesses
	u.Misses = us.Misses
	u.stacks = make(map[uint64][]uint64, len(us.Stacks))
	for _, st := range us.Stacks {
		u.stacks[st.Key] = append([]uint64(nil), st.Tags...)
	}
	return nil
}
