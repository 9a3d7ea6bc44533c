package obs

import (
	"sync"

	"crisp/internal/snapshot"
)

// Timeline event kinds. A hub's history interleaves interval-metrics
// samples with lifecycle markers (job state transitions, run boundaries);
// the kind string doubles as the SSE event name on the wire.
const (
	// TimelineSample marks an interval-metrics sample (Sample set).
	TimelineSample = "sample"
	// TimelineLifecycle marks a state transition (State/Detail set).
	TimelineLifecycle = "lifecycle"
	// TimelineAttempt marks a supervised execution attempt starting
	// (Attempt/Detail set): attempt 1 is the first run, higher numbers are
	// retries resuming from a checkpoint.
	TimelineAttempt = "attempt"
)

// TimelineEvent is one entry in a telemetry Hub's history.
type TimelineEvent struct {
	// Seq is the hub-assigned sequence number: dense, 1-based, strictly
	// increasing. It is the SSE event id on the wire, so a client's
	// Last-Event-ID maps directly onto a hub cursor.
	Seq   uint64 `json:"seq"`
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	// Sample carries the per-stream interval points (including the
	// per-cause stall-attribution deltas) when Kind == TimelineSample.
	Sample *Sample `json:"sample,omitempty"`
	// State and Detail describe TimelineLifecycle events.
	State  string `json:"state,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Attempt is the 1-based execution attempt number for
	// TimelineAttempt events (retries under the supervised run loop).
	Attempt int `json:"attempt,omitempty"`
}

// DefaultHubCapacity bounds a hub's retained history when NewHub is given
// no explicit capacity. At the service's default 4096-cycle sampling
// cadence this retains tens of millions of simulated cycles — far beyond
// any realistic reconnect window.
const DefaultHubCapacity = 8192

// Hub is a bounded-history, multi-subscriber telemetry broadcaster: the
// bridge between a simulation goroutine appending interval samples
// (IntervalSeries.OnSample) and any number of live readers (SSE streams,
// pollers, tests).
//
// Design points:
//
//   - Bounded ring history. The newest capacity events are retained;
//     older ones are evicted. Cursor-based catch-up (Subscribe's fromSeq)
//     replays retained history atomically with live registration, so a
//     late joiner or a reconnecting client sees a gap-free, duplicate-free
//     continuation as long as its cursor is still retained.
//   - Non-blocking publish. Publish never waits on a subscriber: a
//     subscriber whose channel is full is dropped (its channel is closed
//     and Lagged reports true) rather than allowed to stall the
//     simulation goroutine. A dropped client reconnects with its last
//     seen id and catches up from the ring.
//   - Zero overhead when idle. With no subscribers, Publish is one mutex
//     acquisition and one ring write per sample interval (thousands of
//     simulated cycles apart) — nothing on the per-cycle hot path, which
//     keeps the tracing-overhead contract intact.
//
// The zero value is not usable; call NewHub.
type Hub struct {
	mu     sync.Mutex
	buf    []TimelineEvent // circular buffer, capacity == len(buf)
	head   int             // index of the oldest retained event
	n      int             // retained count
	next   uint64          // next sequence number to assign (1-based)
	subs   map[*Subscription]struct{}
	closed bool

	subsDropped uint64 // subscribers disconnected for lagging
	evsDropped  uint64 // events that failed delivery to a lagging subscriber
}

// NewHub returns a hub retaining at most capacity events (<= 0 selects
// DefaultHubCapacity).
func NewHub(capacity int) *Hub {
	if capacity <= 0 {
		capacity = DefaultHubCapacity
	}
	return &Hub{
		buf:  make([]TimelineEvent, capacity),
		next: 1,
		subs: make(map[*Subscription]struct{}),
	}
}

// Subscription is one reader's live feed. Receive from C until it is
// closed: the hub closes it when the publisher is done (Close) or when
// this subscriber lagged and was dropped (Lagged distinguishes the two).
type Subscription struct {
	// C delivers events in sequence order.
	C <-chan TimelineEvent

	hub    *Hub
	ch     chan TimelineEvent
	lagged bool
	done   bool
}

// Lagged reports whether the hub dropped this subscription because its
// channel filled up. A lagged reader resubscribes from its last seen
// sequence number to resume without gaps.
func (s *Subscription) Lagged() bool {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	return s.lagged
}

// Cancel unsubscribes. Safe to call multiple times and after the hub
// closed or dropped the subscription.
func (s *Subscription) Cancel() {
	s.hub.mu.Lock()
	defer s.hub.mu.Unlock()
	s.hub.removeLocked(s)
}

// removeLocked detaches s and closes its channel (caller holds h.mu).
func (h *Hub) removeLocked(s *Subscription) {
	if s.done {
		return
	}
	s.done = true
	delete(h.subs, s)
	close(s.ch)
}

// Publish appends one event to the history and broadcasts it, assigning
// and returning its sequence number. ev.Seq is set by the hub. After
// Close, Publish drops the event and returns 0.
func (h *Hub) Publish(ev TimelineEvent) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0
	}
	ev.Seq = h.next
	h.next++
	if h.n == len(h.buf) {
		h.buf[h.head] = ev
		h.head = (h.head + 1) % len(h.buf)
	} else {
		h.buf[(h.head+h.n)%len(h.buf)] = ev
		h.n++
	}
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default:
			// Slow-subscriber policy: drop the subscriber, never block
			// the publisher. The closed channel tells the reader to
			// reconnect from its cursor.
			s.lagged = true
			h.subsDropped++
			h.evsDropped++
			h.removeLocked(s)
		}
	}
	return ev.Seq
}

// Close marks the history complete and closes every subscription channel.
// Subsequent Subscribe calls still replay the retained history (their
// channels are born closed); subsequent Publish calls are dropped.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		h.removeLocked(s)
	}
}

// Closed reports whether the hub has been closed.
func (h *Hub) Closed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// Subscribe registers a reader starting at sequence number fromSeq
// (0 and 1 both mean "from the beginning"). It returns, atomically:
//
//   - backlog: the retained events with Seq >= fromSeq, in order;
//   - sub: the live feed for every event published after the backlog
//     (closed already if the hub is closed);
//   - gapped: true when fromSeq refers to history the ring has already
//     evicted, i.e. the replay starts later than requested and the
//     caller should refetch the full series instead of assuming
//     continuity.
//
// Because registration and the backlog copy happen under one lock, the
// concatenation backlog + <-sub.C is gap-free and duplicate-free.
// chanCap sizes the live channel (<= 0 selects 64); an SSE handler that
// flushes promptly rarely needs more.
func (h *Hub) Subscribe(fromSeq uint64, chanCap int) (backlog []TimelineEvent, sub *Subscription, gapped bool) {
	backlog, sub, gapped, _ = h.SubscribeLimited(fromSeq, chanCap, 0)
	return backlog, sub, gapped
}

// SubscribeLimited is Subscribe with an admission bound: when maxSubs > 0
// and that many subscriptions are already live, no subscription is created
// and ok is false — the check and the registration happen under one lock,
// so a flood of concurrent subscribers can never overshoot the cap. A
// closed hub always admits (the subscription is born closed and only the
// backlog is replayed; it holds no resources). maxSubs <= 0 means
// unlimited.
func (h *Hub) SubscribeLimited(fromSeq uint64, chanCap, maxSubs int) (backlog []TimelineEvent, sub *Subscription, gapped, ok bool) {
	if chanCap <= 0 {
		chanCap = 64
	}
	h.mu.Lock()
	defer h.mu.Unlock()

	if maxSubs > 0 && !h.closed && len(h.subs) >= maxSubs {
		return nil, nil, false, false
	}

	oldest := h.next - uint64(h.n) // seq of the oldest retained event
	if fromSeq < 1 {
		fromSeq = 1
	}
	if fromSeq < oldest {
		gapped = true
		fromSeq = oldest
	}
	if fromSeq < h.next {
		backlog = make([]TimelineEvent, 0, h.next-fromSeq)
		for i := int(fromSeq - oldest); i < h.n; i++ {
			backlog = append(backlog, h.buf[(h.head+i)%len(h.buf)])
		}
	}

	s := &Subscription{hub: h, ch: make(chan TimelineEvent, chanCap)}
	s.C = s.ch
	if h.closed {
		s.done = true
		close(s.ch)
	} else {
		h.subs[s] = struct{}{}
	}
	return backlog, s, gapped, true
}

// Events returns a copy of the retained events whose cycle lies in
// [fromCycle, toCycle]; toCycle <= 0 means "no upper bound". Lifecycle
// events at cycle 0 are included whenever fromCycle <= 0.
func (h *Hub) Events(fromCycle, toCycle int64) []TimelineEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]TimelineEvent, 0, h.n)
	for i := 0; i < h.n; i++ {
		ev := h.buf[(h.head+i)%len(h.buf)]
		if ev.Cycle < fromCycle {
			continue
		}
		if toCycle > 0 && ev.Cycle > toCycle {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// Latest returns the newest retained event of the given kind ("" matches
// any kind); ok is false when none is retained.
func (h *Hub) Latest(kind string) (ev TimelineEvent, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := h.n - 1; i >= 0; i-- {
		e := h.buf[(h.head+i)%len(h.buf)]
		if kind == "" || e.Kind == kind {
			return e, true
		}
	}
	return TimelineEvent{}, false
}

// HubStats is a point-in-time hub counter snapshot (exported through the
// service's /metrics endpoint).
type HubStats struct {
	Published   uint64 // events ever published (== newest seq)
	Retained    int    // events currently in the ring
	OldestSeq   uint64 // seq of the oldest retained event (0 when empty)
	Subscribers int    // live subscriptions
	SubsDropped uint64 // subscribers dropped for lagging
	EvsDropped  uint64 // events that failed delivery to a lagging subscriber
	Closed      bool
}

// Stats returns current hub statistics.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HubStats{
		Published:   h.next - 1,
		Retained:    h.n,
		Subscribers: len(h.subs),
		SubsDropped: h.subsDropped,
		EvsDropped:  h.evsDropped,
		Closed:      h.closed,
	}
	if h.n > 0 {
		st.OldestSeq = h.next - uint64(h.n)
	}
	return st
}

// SamplesDigest hashes a sample series canonically: each sample's cycle,
// then the walk of its points (every field, in declaration order) into a
// snapshot.Hasher. Two series share a digest iff their cycles and points
// are bit-identical, which is how a streamed timeline is checked against
// the buffered series it was broadcast from. The sample-level engine
// counters (StepsExecuted and the rest) are left out: they count host
// work, which -no-skip changes, not simulated results.
func SamplesDigest(samples []Sample) uint64 {
	h := snapshot.NewHasher()
	for _, s := range samples {
		h.PutI64(s.Cycle)
		h.Put(s.Points)
	}
	return h.Sum64()
}
