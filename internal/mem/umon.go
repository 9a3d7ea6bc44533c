package mem

// UMON is a utility monitor in the style of Qureshi & Patt's UCP, the
// mechanism TAP builds on: a sampled shadow tag directory with full
// associativity per sampled set and per-LRU-stack-position hit counters.
// From the counters one can read how many hits a stream would retain if it
// were allotted any number of ways (or, scaled, any fraction of sets).
type UMON struct {
	assoc     int
	sampleMod int // sample one in sampleMod sets
	stacks    map[uint64][]uint64
	WayHits   []int64 // hits at each LRU stack depth
	Accesses  int64
	Misses    int64
	maxStacks int
}

// NewUMON builds a monitor with the cache's associativity, sampling one in
// sampleMod sets.
func NewUMON(assoc, sampleMod int) *UMON {
	if sampleMod < 1 {
		sampleMod = 1
	}
	return &UMON{
		assoc:     assoc,
		sampleMod: sampleMod,
		stacks:    make(map[uint64][]uint64),
		WayHits:   make([]int64, assoc),
		maxStacks: 4096,
	}
}

// Observe records one access to the monitored stream's address stream.
func (u *UMON) Observe(lineAddr uint64) {
	u.Accesses++
	setKey := lineAddr % uint64(u.sampleMod*64)
	if setKey%uint64(u.sampleMod) != 0 {
		return
	}
	stack := u.stacks[setKey]
	for i, tag := range stack {
		if tag == lineAddr {
			u.WayHits[i]++
			// Move to MRU.
			copy(stack[1:i+1], stack[:i])
			stack[0] = lineAddr
			return
		}
	}
	u.Misses++
	if len(stack) < u.assoc {
		stack = append(stack, 0)
	}
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = lineAddr
	if len(u.stacks) < u.maxStacks || u.stacks[setKey] != nil {
		u.stacks[setKey] = stack
	}
}

// Utility reports the cumulative hits the stream would keep with the given
// number of ways of the monitored capacity (clamped to [0, assoc]).
func (u *UMON) Utility(ways int) int64 {
	if ways > u.assoc {
		ways = u.assoc
	}
	var s int64
	for i := 0; i < ways; i++ {
		s += u.WayHits[i]
	}
	return s
}

// MarginalUtility reports the additional hits gained by growing from
// ways-1 to ways.
func (u *UMON) MarginalUtility(ways int) int64 {
	if ways <= 0 || ways > u.assoc {
		return 0
	}
	return u.WayHits[ways-1]
}

// Reset clears counters and shadow tags (used at repartition epochs; the
// monitor keeps a fresh view of each phase).
func (u *UMON) Reset() {
	u.stacks = make(map[uint64][]uint64)
	for i := range u.WayHits {
		u.WayHits[i] = 0
	}
	u.Accesses = 0
	u.Misses = 0
}
