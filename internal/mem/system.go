package mem

import (
	"fmt"

	"crisp/internal/band"
	"crisp/internal/config"
	"crisp/internal/obs"
	"crisp/internal/trace"
)

// Counters accumulates per-stream memory-system statistics.
type Counters struct {
	L1Accesses int64
	L1Misses   int64
	L2Accesses int64
	L2Misses   int64
	DRAMReadB  int64
	DRAMWriteB int64
}

// System is the whole memory hierarchy below the SMs' execution pipelines:
// per-SM unified L1 data caches, the crossbar, the banked L2, and DRAM.
// All latencies and service times are in core cycles.
type System struct {
	cfg *config.GPU

	l1        []*Cache
	l1Pending []fillTable // per SM: in-flight line fills (MSHR merge)

	l2         []*Cache
	l2NextFree []int64     // per bank single-server queue
	l2Pending  []fillTable // per bank: in-flight line fills (L2 MSHR merge)
	setsPer    int

	dramNextFree []int64 // per channel
	dramSvc      float64 // cycles to transfer one line on one channel

	mapper   L2Mapper
	observer Observer

	tracer obs.Tracer
	// lastL2Cont / lastDramCont rate-limit contention markers to one per
	// queue per contentionEvery cycles so congested phases do not flood
	// the trace.
	lastL2Cont   []int64
	lastDramCont []int64

	counters band.Table[Counters]
}

// streamBand bounds the dense band of the per-stream counter table. It
// matches the facade's compute-stream spacing (core.ComputeStreamBase):
// every graphics stream id is below it, every compute stream id at or
// above it. Counter lookups are on the hot path — two per load — so
// graphics streams index a slice and only the few compute streams fall
// back to the table's short sorted list.
const streamBand = 1 << 20

// Contention-marker thresholds: a request queueing at least contentionMin
// cycles behind an L2 bank or DRAM channel emits an EvMemContention event
// (at most one per queue per contentionEvery cycles).
const (
	contentionMin   = 32
	contentionEvery = 256
)

// NewSystem builds the memory system for cfg with the default shared
// mapper.
func NewSystem(cfg *config.GPU) (*System, error) {
	s := &System{
		cfg:          cfg,
		l1:           make([]*Cache, cfg.NumSMs),
		l1Pending:    make([]fillTable, cfg.NumSMs),
		l2:           make([]*Cache, cfg.L2Banks),
		l2NextFree:   make([]int64, cfg.L2Banks),
		dramNextFree: make([]int64, cfg.MemChannels),
		lastL2Cont:   make([]int64, cfg.L2Banks),
		lastDramCont: make([]int64, cfg.MemChannels),
		mapper:       SharedMapper{},
		counters:     band.New[Counters](streamBand),
	}
	for i := range s.l1 {
		c, err := NewCache(cfg.L1Size, cfg.L1Assoc, cfg.LineSize)
		if err != nil {
			return nil, fmt.Errorf("mem: L1: %w", err)
		}
		s.l1[i] = c
		s.l1Pending[i].initTable(cfg.L1MSHRs)
	}
	bankSize := cfg.L2Size / cfg.L2Banks
	s.l2Pending = make([]fillTable, cfg.L2Banks)
	for i := range s.l2 {
		c, err := NewCache(bankSize, cfg.L2Assoc, cfg.LineSize)
		if err != nil {
			return nil, fmt.Errorf("mem: L2 bank: %w", err)
		}
		s.l2[i] = c
		s.l2Pending[i].initTable(cfg.L2MSHRs)
	}
	s.setsPer = s.l2[0].Sets()
	perChannelBPC := cfg.BytesPerCycle() / float64(cfg.MemChannels)
	s.dramSvc = float64(cfg.LineSize) / perChannelBPC
	return s, nil
}

// fillGranule maps addr to the fill-tracking key, its line address.
func (s *System) fillGranule(addr uint64) uint64 {
	return addr / uint64(s.cfg.LineSize)
}

// SetMapper installs an L2 address mapper (partitioning mechanism).
func (s *System) SetMapper(m L2Mapper) { s.mapper = m }

// SetObserver installs an L2 access observer (e.g. TAP's monitors).
func (s *System) SetObserver(o Observer) { s.observer = o }

// SetTracer installs a trace-event sink for contention markers; nil (the
// default) disables them at the cost of one branch per access.
func (s *System) SetTracer(t obs.Tracer) { s.tracer = t }

// SetsPerBank reports the number of sets in each L2 bank.
func (s *System) SetsPerBank() int { return s.setsPer }

// Counters returns (creating if needed) the counter block for a stream.
func (s *System) Counters(stream int) *Counters { return s.counters.Get(stream) }

// PeekCounters returns the counter block for a stream without creating
// one; nil means the stream has produced no memory traffic.
func (s *System) PeekCounters(stream int) *Counters { return s.counters.Peek(stream) }

// Streams lists the stream ids with recorded activity, sorted.
func (s *System) Streams() []int { return s.counters.IDs() }

const xbarLatency = 16 // SM→L2 crossbar traversal, core cycles

// Load performs a line-granular load issued by SM sm on behalf of stream.
// addr is any byte address within the line. It returns the cycle at which
// the data is available in the SM.
func (s *System) Load(now int64, sm, stream int, class trace.MemClass, addr uint64) int64 {
	cnt := s.Counters(stream)
	cnt.L1Accesses++
	granule := s.fillGranule(addr)

	// MSHR merge: if a fill for this granule is still in flight, the
	// access rides the outstanding request (a hit-under-miss: it waits,
	// but produces no new L2 traffic and no new miss).
	pending := &s.l1Pending[sm]
	if ready, ok := pending.get(granule); ok {
		if ready > now {
			return ready
		}
		pending.del(granule)
	}

	l1 := s.l1[sm]
	way, hit := l1.lookup(addr, -1)
	if hit {
		l1.fill(way, now, addr, false, class, stream)
		return now + int64(s.cfg.L1Latency)
	}
	cnt.L1Misses++
	// MSHR capacity: when full, the LDST unit stalls behind the earliest
	// completing fill.
	start := now
	if pending.size() >= s.cfg.L1MSHRs {
		start = pending.minReadyAfter(now)
	}

	// The L2 access leaves this L1 alone, so the lookup's way still holds.
	ready := s.l2Access(start+int64(s.cfg.L1Latency), stream, cnt, class, addr, false)
	l1.fill(way, now, addr, false, class, stream)
	pending.set(granule, ready)
	// Garbage-collect completed fills opportunistically.
	if pending.size() > 4*s.cfg.L1MSHRs {
		pending.gc(now)
	}
	return ready
}

// Store performs a line-granular store. The L1 is write-through without
// allocation (global stores), so the store is forwarded to L2. It returns
// the cycle the store is accepted (the warp does not wait for completion).
func (s *System) Store(now int64, sm, stream int, class trace.MemClass, addr uint64) int64 {
	cnt := s.Counters(stream)
	cnt.L1Accesses++
	l1 := s.l1[sm]
	if way, hit := l1.lookup(addr, -1); hit {
		// Keep L1 coherent with the write-through.
		l1.fill(way, now, addr, true, class, stream)
	} else {
		cnt.L1Misses++
	}
	s.l2Access(now+int64(s.cfg.L1Latency), stream, cnt, class, addr, true)
	return now + int64(s.cfg.L1Latency)
}

// l2Access routes one request through the crossbar to its L2 bank and, on
// miss, to DRAM. It returns the data-ready cycle (for loads). cnt is the
// stream's counter block, passed down from Load/Store so the per-stream
// lookup happens once per request.
func (s *System) l2Access(now int64, stream int, cnt *Counters, class trace.MemClass, addr uint64, write bool) int64 {
	cnt.L2Accesses++

	lineA := addr / uint64(s.cfg.LineSize)
	bank, set := s.mapper.Map(stream, lineA, s.cfg.L2Banks, s.setsPer)

	// Crossbar + bank queue: each bank services one request per cycle.
	arrive := now + xbarLatency
	start := s.l2NextFree[bank]
	if arrive > start {
		start = arrive
	}
	s.l2NextFree[bank] = start + 1
	if t := s.tracer; t != nil {
		if wait := start - arrive; wait >= contentionMin && now-s.lastL2Cont[bank] >= contentionEvery {
			s.lastL2Cont[bank] = now
			t.Emit(obs.Event{Cycle: now, Kind: obs.EvMemContention, Stream: stream,
				Task: -1, SM: bank, CTA: -1, Name: "L2 bank queue", Arg: wait})
		}
	}

	// The observer sees the residency the lookup found, before the fill.
	way, hit := s.l2[bank].lookup(addr, set)
	if s.observer != nil {
		s.observer.ObserveL2(stream, lineA, hit)
	}
	res := s.l2[bank].fill(way, start, addr, write, class, stream)

	if hit {
		return start + int64(s.cfg.L2Latency)
	}
	cnt.L2Misses++
	// L2 MSHR merge: a fill for this line already in flight (typically
	// the same texture line missed by several SMs at once) is ridden
	// rather than duplicated at DRAM.
	pending := &s.l2Pending[bank]
	if ready, ok := pending.get(lineA); ok {
		if ready > start {
			return ready
		}
		pending.del(lineA)
	}
	// Miss: fetch line from DRAM (write-allocate covers stores too).
	ready := s.dramTransfer(start+int64(s.cfg.L2Latency), bank, stream, cnt, false)
	pending.set(lineA, ready)
	if pending.size() > 4*s.cfg.L2MSHRs {
		pending.gc(start)
	}
	if res.Writeback {
		// Dirty eviction: schedule the writeback; it consumes bandwidth
		// but nobody waits on it.
		s.dramTransfer(start+int64(s.cfg.L2Latency), bank, stream, cnt, true)
	}
	return ready
}

// dramTransfer meters one line transfer on the bank's DRAM channel and
// returns its completion cycle. Banks map to channels contiguously, so
// partitioning the banks (MiG) also partitions the DRAM channels — and
// with them the memory bandwidth, which is the paper's explanation for
// MiG's slowdown on memory-bound pairs.
func (s *System) dramTransfer(now int64, bank, stream int, cnt *Counters, write bool) int64 {
	ch := bank * s.cfg.MemChannels / s.cfg.L2Banks
	start := s.dramNextFree[ch]
	if now > start {
		start = now
	}
	if t := s.tracer; t != nil {
		if wait := start - now; wait >= contentionMin && now-s.lastDramCont[ch] >= contentionEvery {
			s.lastDramCont[ch] = now
			t.Emit(obs.Event{Cycle: now, Kind: obs.EvMemContention, Stream: stream,
				Task: -1, SM: ch, CTA: -1, Name: "DRAM channel queue", Arg: wait})
		}
	}
	done := start + int64(s.dramSvc+0.5)
	s.dramNextFree[ch] = done
	if write {
		cnt.DRAMWriteB += int64(s.cfg.LineSize)
	} else {
		cnt.DRAMReadB += int64(s.cfg.LineSize)
	}
	return done + int64(s.cfg.DRAMLatency)
}

// L2Composition scans all banks and reports the combined line composition.
func (s *System) L2Composition() Composition {
	comp := Composition{ByClass: make(map[trace.MemClass]int), ByStream: make(map[int]int)}
	for _, b := range s.l2 {
		comp.Merge(b.Composition())
	}
	return comp
}

// InvalidateAll drops all cached state (between frames or experiments).
func (s *System) InvalidateAll() {
	for _, c := range s.l1 {
		c.InvalidateAll()
	}
	for i := range s.l1Pending {
		s.l1Pending[i].reset()
	}
	for _, c := range s.l2 {
		c.InvalidateAll()
	}
	for i := range s.l2Pending {
		s.l2Pending[i].reset()
	}
}
