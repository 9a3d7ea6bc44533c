// Package mem models the GPU memory system: per-SM unified L1 data caches
// (texture requests share the L1, as in contemporary GPUs), a banked shared
// L2, a bandwidth-metered DRAM model, and the SM↔L2 crossbar. It also
// provides the partitioning mechanisms the concurrency studies need:
// per-stream L2 bank masks (MiG) and per-stream L2 set partitions (TAP),
// plus cache-line composition tagging for the L2-footprint case studies.
package mem

import (
	"fmt"

	"crisp/internal/trace"
)

// line is one resident line's bookkeeping, kept beside its tag so that a
// lookup reads tags alone.
type line struct {
	lastUse int64
	stream  int
	class   trace.MemClass
	dirty   bool
}

// Cache is a set-associative, LRU, write-back/write-allocate cache.
// The same structure implements the L1 (configured write-through by its
// caller: stores are forwarded without allocation) and each L2 bank.
//
// The tag array is dense: tags[i] is way i's line address plus one, 0
// marking an invalid way, set-major (set s holds ways s*assoc through
// s*assoc+assoc-1), so a lookup compares one 8-byte word per way. lines
// holds the rest of each way's state at the same index.
type Cache struct {
	sets     int
	assoc    int
	lineSize uint64
	tags     []uint64
	lines    []line
}

// NewCache builds a cache with the given geometry. sizeBytes must be an
// exact multiple of assoc*lineSize, and a line at least two bytes (so that
// no line address plus one wraps to the invalid tag).
func NewCache(sizeBytes, assoc, lineSize int) (*Cache, error) {
	if sizeBytes <= 0 || assoc <= 0 || lineSize < 2 {
		return nil, fmt.Errorf("mem: invalid cache geometry size=%d assoc=%d line=%d", sizeBytes, assoc, lineSize)
	}
	setBytes := assoc * lineSize
	if sizeBytes%setBytes != 0 {
		return nil, fmt.Errorf("mem: cache size %d not a multiple of set size %d", sizeBytes, setBytes)
	}
	sets := sizeBytes / setBytes
	return &Cache{
		sets:     sets,
		assoc:    assoc,
		lineSize: uint64(lineSize),
		tags:     make([]uint64, sets*assoc),
		lines:    make([]line, sets*assoc),
	}, nil
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc reports the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// AccessResult describes the outcome of a cache access.
type AccessResult struct {
	Hit bool
	// WritebackLine is the address of a dirty line evicted by this
	// access (0 and Writeback=false when none).
	Writeback     bool
	WritebackLine uint64
}

// lookup is an access's one pass over its set, chosen by setIdx (callers
// with partitioned set mappings pass their own; -1 picks the default hash).
// It returns the way the access lands on — the one holding addr's line
// when the tag is resident, else the victim: the first invalid way, else
// the least recently used — and whether the access hits (the tag is
// resident). It changes nothing; fill completes the access at idx.
func (c *Cache) lookup(addr uint64, setIdx int) (idx int, hit bool) {
	la := addr / c.lineSize
	if setIdx < 0 {
		setIdx = int(la % uint64(c.sets))
	}
	base := setIdx * c.assoc
	tags := c.tags[base : base+c.assoc]
	free := -1
	for i, t := range tags {
		if t == la+1 {
			return base + i, true
		}
		if t == 0 && free < 0 {
			free = i
		}
	}
	if free >= 0 {
		return base + free, false
	}
	victim := base
	for i := base + 1; i < base+c.assoc; i++ {
		if c.lines[i].lastUse < c.lines[victim].lastUse {
			victim = i
		}
	}
	return victim, false
}

// fill completes a load (write=false) or store (write=true) of the line
// containing addr at the way lookup returned for it, with no access to the
// cache in between. On the line's own way it refreshes LRU state; on any
// other way it evicts what is there and allocates. The class/stream tags
// are recorded on the line for composition accounting.
func (c *Cache) fill(idx int, now int64, addr uint64, write bool, class trace.MemClass, stream int) AccessResult {
	la := addr / c.lineSize
	l := &c.lines[idx]
	if c.tags[idx] == la+1 {
		l.lastUse = now
		if write {
			l.dirty = true
		}
		// Ownership follows the most recent toucher so that
		// composition snapshots reflect live usage.
		l.class = class
		l.stream = stream
		return AccessResult{Hit: true}
	}
	res := AccessResult{}
	if c.tags[idx] != 0 && l.dirty {
		res.Writeback = true
		res.WritebackLine = (c.tags[idx] - 1) * c.lineSize
	}
	c.tags[idx] = la + 1
	*l = line{dirty: write, lastUse: now, class: class, stream: stream}
	return res
}

// Access performs a load (write=false) or store (write=true) of the line
// containing addr, allocating on miss, in the set chosen by setIdx (-1
// for the default hash): a lookup and its fill.
func (c *Cache) Access(now int64, addr uint64, write bool, class trace.MemClass, stream int, setIdx int) AccessResult {
	idx, _ := c.lookup(addr, setIdx)
	return c.fill(idx, now, addr, write, class, stream)
}

// Probe reports whether addr's line is resident, without disturbing LRU
// state.
func (c *Cache) Probe(addr uint64, setIdx int) bool {
	_, hit := c.lookup(addr, setIdx)
	return hit
}

// InvalidateAll drops every line (used between frames / experiments).
func (c *Cache) InvalidateAll() {
	clear(c.tags)
	clear(c.lines)
}

// Composition counts valid lines by memory class (and, separately, by
// stream). It implements the L2-footprint measurement of paper Fig. 11.
type Composition struct {
	Valid    int
	Total    int
	ByClass  map[trace.MemClass]int
	ByStream map[int]int
}

// Composition scans the tag array and reports the current line composition.
func (c *Cache) Composition() Composition {
	comp := Composition{
		Total:    len(c.tags),
		ByClass:  make(map[trace.MemClass]int),
		ByStream: make(map[int]int),
	}
	for i, t := range c.tags {
		if t == 0 {
			continue
		}
		comp.Valid++
		comp.ByClass[c.lines[i].class]++
		comp.ByStream[c.lines[i].stream]++
	}
	return comp
}

// Merge folds o into comp (used to combine per-bank compositions).
func (comp *Composition) Merge(o Composition) {
	comp.Valid += o.Valid
	comp.Total += o.Total
	for k, v := range o.ByClass {
		comp.ByClass[k] += v
	}
	for k, v := range o.ByStream {
		comp.ByStream[k] += v
	}
}
