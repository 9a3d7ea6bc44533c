// Package snapshot defines CRISP's checkpoint/restore layer: a versioned,
// self-describing serialization of the complete simulator state — per-SM
// warp/CTA/scoreboard state, cache arrays and in-flight MSHR fills,
// stream/kernel/CTA progress, partition-policy state, and the
// stall-attribution counters — plus the determinism auditor built on it
// (rolling FNV digests of architectural state with first-divergence
// reporting).
//
// The package is a leaf: it imports only config and robust, so every
// simulator layer (mem, sm, gpu, partition, core) can implement
// Capture/Restore methods against these schema structs without import
// cycles.
//
// The structs in this file are the one description of simulator state:
// visit (visit.go) walks them in declaration order, and the digest, the
// checkpoint writer and the checkpoint reader are its three sinks. Two
// invariants make the result reproducible across processes:
//
//   - The schema is map-free. Everything that lives in a Go map inside
//     the simulator is captured as a slice sorted by its key, so a given
//     simulator state walks identically no matter which process holds it.
//   - Architectural state (ArchState) is separated from observability
//     state (ObsState). The digest is the walk over ArchState only, so
//     enabling tracing, metrics, or checkpointing itself never perturbs a
//     digest: any digest mismatch is a real simulation divergence.
package snapshot

import "crisp/internal/config"

// FormatVersion is the version of the snapshot container; the shape of the
// structs below is fingerprinted separately (Header.Schema). A file whose
// version or schema differs from this build's is refused with a SimError:
// it carries raw simulator internals, so no cross-version restore is tried.
const FormatVersion = 2

// Magic identifies a CRISP snapshot file; it leads the JSON header line.
const Magic = "crispsnap"

// Envelope is the complete content of one snapshot file.
type Envelope struct {
	// Version is the format version (FormatVersion at write time).
	Version int
	// Spec describes how to rebuild the Job this state belongs to.
	Spec Spec
	// State is the captured simulator state.
	State GPUState
}

// Spec records how the snapshotted job was constructed, so a resume can
// rebuild the identical workload (traces are regenerated, not stored: the
// generators are deterministic, and a frame's traces dwarf the machine
// state).
type Spec struct {
	GPU     config.GPU
	Scene   string // rendering workload name ("" = none)
	Compute string // compute workload name ("" = none)
	Policy  string // core.PolicyKind
	// Mix is the canonical JSON of a scenario.MixSpec for N-tenant mix
	// jobs (nil for plain pairs; Scene/Compute are empty when set). The
	// workloads are named inside the mix, so a mix spec is as
	// self-describing as a pair spec.
	Mix []byte `json:",omitempty"`
	// RenderOptions is the JSON-marshaled render.Options used for the
	// graphics frame (nil when the job has no graphics work).
	RenderOptions  []byte
	GraphicsWindow int
	GraphicsFrames int
	LRRScheduler   bool
	// Observability cadences, reproduced on resume so a resumed run's
	// sampling boundaries line up with the uninterrupted run's.
	MetricsInterval int64
	DigestEvery     int64
	// Complete reports whether the spec fully describes the job. Jobs
	// built from in-memory traces are snapshotted (for postmortems) but
	// cannot be resumed from the spec.
	Complete bool
}

// GPUState is the full simulator state, split into the digested
// architectural part and the excluded observability part.
type GPUState struct {
	Arch ArchState
	Obs  ObsState
}

// ArchState is everything that determines future simulated behavior. The
// determinism digest is the canonical FNV-1a hash computed by ArchDigest.
type ArchState struct {
	Cycle       int64
	TotalIssued int64
	MaxTask     int

	// PolicyName names the installed partition policy; PolicyBlob is the
	// policy's own serialized dynamic state (nil for stateless policies).
	PolicyName string
	PolicyBlob []byte

	Streams []StreamState // in AddStream order
	Running []LaunchState // in launch order (placement priority order)
	Kernels []KernelStatState

	// InstsBySMTask mirrors the per-SM per-task instruction counters the
	// warped-slicer samples.
	InstsBySMTask [][]int64

	Cores []CoreState // by SM id
	Mem   MemState
}

// ObsState is loop bookkeeping and metrics-sampling state: it must survive
// a resume so cadences stay aligned, but it never feeds the digest.
type ObsState struct {
	Loop LoopState
	// MPrev/MPrevCycle are the metrics series' previous cumulative
	// counter snapshot (per task, dense by task id).
	MPrev      []TaskSnapState
	MPrevCycle int64
}

// LoopState is the run loop's cursor state at the snapshot boundary; the
// run loop keeps its cursors in this type.
type LoopState struct {
	LastTick       int64 // last policy-tick cycle
	NextMetrics    int64 // next metrics sample cycle
	NextCheckpoint int64 // next checkpoint cycle
	NextDigest     int64 // next digest cycle
	LastIssued     int64 // watchdog: totalIssued at last progress observation
	LastProgress   int64 // watchdog: cycle of last observed issue
	Iter           uint64
}

// TaskSnapState is one task's cumulative counters at the last metrics
// sample, the baseline the next sample's deltas are taken from. The run
// loop keeps its baseline in this type, so a checkpoint carries it whole.
type TaskSnapState struct {
	WarpInsts  int64
	L1A, L1M   int64
	L2A, L2M   int64
	DRAMBytes  int64
	Stalls     []int64 // by obs.StallCause
	HasStreams bool
}

// StreamState is one stream's progress and statistics.
type StreamState struct {
	ID         int
	NextKernel int // index of the next kernel to launch
	Active     bool
	Started    bool
	StartCycle int64
	Stat       StreamCounters
}

// StreamCounters mirrors stats.Stream's counter fields — except the
// memory-system mirrors (L1/L2/DRAM), which are folded into stream stats
// only at run end (or failure) from the memory system's own counters.
// Those live in MemState; capturing the mirrors too would make a snapshot
// taken after a failure fold differ from the same machine state mid-run.
type StreamCounters struct {
	Cycles      int64
	WarpInsts   int64
	ThreadInsts int64
	TexAccesses int64

	KernelsLaunched int
	CTAsLaunched    int

	Stalls []int64 // by obs.StallCause
}

// LaunchState is one in-flight kernel launch.
type LaunchState struct {
	StreamID  int
	KernelIdx int // index into the stream's kernel list
	Task      int
	NextCTA   int
	DoneCTAs  int
	Started   int64
	LastDone  int64
}

// KernelStatState is one completed kernel launch's timing record (the
// simulator's own gpu.KernelStat).
type KernelStatState struct {
	Name     string
	Stream   int
	Task     int
	Launched int64 // cycle the kernel entered the running set
	Done     int64 // cycle its last CTA committed
	CTAs     int
}

// CoreState is one SM's runtime state. Warp and CTA identities are
// snapshot-local refs: warps are numbered in (scheduler, slot) order and
// CTAs in first-reference order, so capture is deterministic.
type CoreState struct {
	ID         int
	ArrivalSeq int64
	SchedSlots int64
	EmptySlots int64
	// WakeAt is the earliest cycle the core could do useful work, as
	// reported by its last Step. The event-driven engine sleeps the core
	// until then; capturing it keeps a resume's sleep windows (and the
	// digest) bit-identical to the uninterrupted run.
	WakeAt int64
	CTAs   []CTAState
	Scheds []SchedState
}

// CTAState is one resident CTA.
type CTAState struct {
	Ref        int // snapshot-local id warps use to reference their CTA
	StreamID   int
	KernelIdx  int // index into the stream's kernel list
	CTAIdx     int
	Task       int
	WarpsLeft  int
	BarArrived int
	BarWaiting []int // warp refs, in arrival order at the barrier
}

// SchedState is one warp scheduler.
type SchedState struct {
	LastWarp int // warp ref of the GTO "last issued" warp; -1 = none
	RR       int // round-robin cursor (SchedLRR)
	UnitFree []int64
	Warps    []WarpState // in slice (arrival) order
}

// WarpState is one resident warp. Scoreboard state is sparse: only
// registers whose pending write resolves after the snapshot cycle are
// recorded — entries already in the past can never bind a future issue.
type WarpState struct {
	Ref          int
	CTA          int // CTA ref
	WarpIdx      int // index within the CTA's warp list (selects the trace)
	PC           int
	BlockedUntil int64
	Arrival      int64
	PendingRegs  []RegState
}

// RegState is one pending scoreboard entry.
type RegState struct {
	Reg     int
	Ready   int64
	FromMem bool
}

// MemState is the whole memory hierarchy.
type MemState struct {
	L1           []CacheState         // per SM
	L1Pending    []PendingFills       // per SM, in-flight MSHR fills
	L2           []CacheState         // per bank
	L2Pending    []PendingFills       // per bank
	L2NextFree   []int64              // per bank single-server queue
	DRAMNextFree []int64              // per channel
	Counters     []StreamCounterState // sorted by stream id
}

// CacheState stores only the valid lines of one cache, by tag-array index.
type CacheState struct {
	Lines []LineState
}

// LineState is one valid cache line.
type LineState struct {
	Idx     int // set*assoc + way
	Tag     uint64
	Dirty   bool
	LastUse int64
	Class   uint8
	Stream  int
}

// PendingFills is one MSHR merge map, sorted by granule.
type PendingFills struct {
	Fills []Fill
}

// Fill is one in-flight fill: the granule (line address) and the cycle its
// data arrives.
type Fill struct {
	Granule uint64
	Ready   int64
}

// StreamCounterState is one stream's memory-system counter block.
type StreamCounterState struct {
	Stream     int
	L1Accesses int64
	L1Misses   int64
	L2Accesses int64
	L2Misses   int64
	DRAMReadB  int64
	DRAMWriteB int64
}

// UMONState is one utility monitor's state (TAP), with the shadow-tag
// stacks sorted by sampled-set key.
type UMONState struct {
	WayHits  []int64
	Accesses int64
	Misses   int64
	Stacks   []UMONStack
}

// UMONStack is one sampled set's LRU stack, MRU first.
type UMONStack struct {
	Key  uint64
	Tags []uint64
}

// DigestEntry is one sampled architectural digest.
type DigestEntry struct {
	Cycle  int64
	Digest uint64
}

// FirstDivergence compares two digest series over their overlapping cycle
// range (a resumed run only has entries after its resume point) and
// returns the first cycle at which they disagree — either differing
// digests at the same cycle, or misaligned sample cycles. ok=false means
// the series are consistent.
func FirstDivergence(a, b []DigestEntry) (cycle int64, ok bool) {
	if len(a) == 0 || len(b) == 0 {
		return 0, false
	}
	start := a[0].Cycle
	if b[0].Cycle > start {
		start = b[0].Cycle
	}
	i, j := 0, 0
	for i < len(a) && a[i].Cycle < start {
		i++
	}
	for j < len(b) && b[j].Cycle < start {
		j++
	}
	for i < len(a) && j < len(b) {
		if a[i].Cycle != b[j].Cycle {
			c := a[i].Cycle
			if b[j].Cycle < c {
				c = b[j].Cycle
			}
			return c, true
		}
		if a[i].Digest != b[j].Digest {
			return a[i].Cycle, true
		}
		i++
		j++
	}
	return 0, false
}
