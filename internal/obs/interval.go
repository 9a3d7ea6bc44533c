package obs

import (
	"bufio"
	"fmt"
	"io"
)

// SeriesPoint is one task-stream's metrics over one sampling interval.
// "Stream" here is the paper's logical stream (the rendering task or one
// compute workload), i.e. the task id: per-batch hardware streams are
// folded into their owning task so the series stays readable.
type SeriesPoint struct {
	Stream int    `json:"stream"` // task id (0 = graphics, 1.. = compute workloads)
	Label  string `json:"label"`  // task label ("graphics", workload name, or "taskN")

	IPC   float64 `json:"ipc"`    // warp instructions per cycle over the interval
	Warps int     `json:"warps"`  // resident warps at the sample instant (occupancy)
	L1Hit float64 `json:"l1_hit"` // L1 hit rate over the interval (0 when no accesses)
	L2Hit float64 `json:"l2_hit"` // L2 hit rate over the interval (0 when no accesses)
	// DRAMBytesPerCycle is the DRAM bandwidth consumed over the interval
	// (read + write bytes divided by elapsed cycles).
	DRAMBytesPerCycle float64 `json:"dram_bpc"`
	// Stalls counts the scheduler issue slots this stream failed to issue
	// in over the interval, by attributed cause, indexed by StallCause
	// (the slot-delta companion of stats.Stream.Stalls' cumulative view).
	Stalls [NumStallCauses]int64 `json:"stalls"`

	// Tenant QoS progress (scenario mixes only; zero and omitted for runs
	// without QoS tracking). Counts are cumulative as of the sample cycle:
	// instances arrived and completed, and deadline outcomes — an overdue
	// incomplete instance already counts as missed, so live consumers (the
	// /ui/ lanes, SSE) see violations as they happen.
	QoSArrived      int64 `json:"qos_arrived,omitempty"`
	QoSDone         int64 `json:"qos_done,omitempty"`
	DeadlinesMet    int64 `json:"deadlines_met,omitempty"`
	DeadlinesMissed int64 `json:"deadlines_missed,omitempty"`
}

// Sample is one interval's points for every active task-stream, plus the
// machine-level event-skipping counters (cumulative as of Cycle).
type Sample struct {
	Cycle  int64         `json:"cycle"` // cycle at which the sample was taken
	Points []SeriesPoint `json:"points"`

	// CyclesSimulated is the simulated cycle count (== Cycle); named
	// separately so exports read as a skip-ratio numerator/denominator
	// pair: the event-driven engine simulates CyclesSimulated cycles in
	// only StepsExecuted real core-step calls.
	CyclesSimulated int64 `json:"cycles_simulated,omitempty"`
	// StepsExecuted counts real sm.Core.Step calls across the SM array.
	StepsExecuted int64 `json:"steps_executed,omitempty"`
	// StepsSkipped counts engine steps cores slept through.
	StepsSkipped int64 `json:"steps_skipped,omitempty"`
	// BulkStallSlots counts stall slots synthesized by bulk accounting
	// when sleeping cores woke.
	BulkStallSlots int64 `json:"bulk_stall_slots,omitempty"`
	// DispatchSweeps counts run-loop iterations in which the global CTA
	// scheduler ran its placement sweep; DispatchSkipped those in which
	// it did not, because nothing placement reads had moved.
	DispatchSweeps  int64 `json:"dispatch_sweeps,omitempty"`
	DispatchSkipped int64 `json:"dispatch_skipped,omitempty"`
	// StallReplays counts scheduler issue slots, inside executed steps,
	// that a stalled scheduler answered from its stall record instead of
	// scanning its warps.
	StallReplays int64 `json:"stall_replays,omitempty"`
}

// Warps is task's resident warps at the sample instant (0 when the task
// has no point): the occupancy timeline is this, sample by sample.
func (s *Sample) Warps(task int) int {
	for _, p := range s.Points {
		if p.Stream == task {
			return p.Warps
		}
	}
	return 0
}

// IntervalSeries accumulates interval metrics samples at a fixed cycle
// cadence. The GPU driver appends one Sample roughly every Interval
// cycles (event-accelerated runs may overshoot a boundary; the recorded
// Cycle is always the true sample time, and rates are computed over the
// true elapsed span).
type IntervalSeries struct {
	Interval int64
	Samples  []Sample
	// OnSample, when non-nil, is invoked with each sample as it is
	// appended. It runs on the simulation goroutine, so implementations
	// that publish to other goroutines (e.g. a service's live progress
	// endpoint) must do their own synchronization and stay cheap.
	OnSample func(Sample)
}

// Append records one sample and notifies the OnSample hook, if any.
func (s *IntervalSeries) Append(smp Sample) {
	s.Samples = append(s.Samples, smp)
	if s.OnSample != nil {
		s.OnSample(smp)
	}
}

// WriteCSV renders the series in long format: one row per (cycle,
// stream), with per-stream IPC, occupancy, hit-rate, and DRAM-bandwidth
// columns.
func (s *IntervalSeries) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprint(bw, "cycle,stream,label,ipc,occupancy_warps,l1_hit,l2_hit,dram_bytes_per_cycle"); err != nil {
		return err
	}
	for _, c := range StallCauses() {
		if _, err := fmt.Fprintf(bw, ",stall_%s", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(bw, ",qos_arrived,qos_done,deadlines_met,deadlines_missed"); err != nil {
		return err
	}
	fmt.Fprintln(bw)
	for _, smp := range s.Samples {
		for _, p := range smp.Points {
			if _, err := fmt.Fprintf(bw, "%d,%d,%s,%.4f,%d,%.4f,%.4f,%.2f",
				smp.Cycle, p.Stream, p.Label, p.IPC, p.Warps, p.L1Hit, p.L2Hit, p.DRAMBytesPerCycle); err != nil {
				return err
			}
			for _, n := range p.Stalls {
				if _, err := fmt.Fprintf(bw, ",%d", n); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, ",%d,%d,%d,%d", p.QoSArrived, p.QoSDone, p.DeadlinesMet, p.DeadlinesMissed); err != nil {
				return err
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}
