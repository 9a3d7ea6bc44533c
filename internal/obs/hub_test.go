package obs

import (
	"fmt"
	"sync"
	"testing"
)

func sampleEv(cycle int64) TimelineEvent {
	return TimelineEvent{
		Cycle: cycle,
		Kind:  TimelineSample,
		Sample: &Sample{Cycle: cycle, Points: []SeriesPoint{
			{Stream: 0, Label: "graphics", IPC: float64(cycle) / 100, Warps: int(cycle % 48)},
		}},
	}
}

func TestHubSequenceAndBacklog(t *testing.T) {
	h := NewHub(16)
	for c := int64(1); c <= 5; c++ {
		if seq := h.Publish(sampleEv(c * 10)); seq != uint64(c) {
			t.Fatalf("Publish #%d: seq %d", c, seq)
		}
	}
	backlog, sub, gapped := h.Subscribe(0, 4)
	defer sub.Cancel()
	if gapped {
		t.Fatal("unexpected gap on a non-evicted history")
	}
	if len(backlog) != 5 {
		t.Fatalf("backlog %d events, want 5", len(backlog))
	}
	for i, ev := range backlog {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("backlog[%d].Seq = %d", i, ev.Seq)
		}
	}

	// Resume from a mid-history cursor: Last-Event-ID semantics are
	// fromSeq = cursor+1.
	tail, sub2, gapped := h.Subscribe(4, 4)
	defer sub2.Cancel()
	if gapped || len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Fatalf("resume backlog = %+v (gapped %v), want seqs [4 5]", tail, gapped)
	}

	// A live event reaches both subscribers after their backlogs.
	h.Publish(sampleEv(60))
	for name, c := range map[string]<-chan TimelineEvent{"sub": sub.C, "sub2": sub2.C} {
		ev := <-c
		if ev.Seq != 6 {
			t.Fatalf("%s live event seq %d, want 6", name, ev.Seq)
		}
	}
}

func TestHubEvictionGapsAndWindow(t *testing.T) {
	h := NewHub(4)
	for c := int64(1); c <= 10; c++ {
		h.Publish(sampleEv(c))
	}
	st := h.Stats()
	if st.Published != 10 || st.Retained != 4 || st.OldestSeq != 7 {
		t.Fatalf("stats after eviction: %+v", st)
	}

	backlog, sub, gapped := h.Subscribe(2, 4)
	sub.Cancel()
	if !gapped {
		t.Fatal("want gapped=true for an evicted cursor")
	}
	if len(backlog) != 4 || backlog[0].Seq != 7 {
		t.Fatalf("gapped backlog starts at %d (%d events), want 7 (4)", backlog[0].Seq, len(backlog))
	}

	evs := h.Events(8, 9)
	if len(evs) != 2 || evs[0].Cycle != 8 || evs[1].Cycle != 9 {
		t.Fatalf("Events(8,9) = %+v", evs)
	}
	if ev, ok := h.Latest(TimelineSample); !ok || ev.Cycle != 10 {
		t.Fatalf("Latest = %+v ok=%v", ev, ok)
	}
	if _, ok := h.Latest(TimelineLifecycle); ok {
		t.Fatal("Latest(lifecycle) matched a sample")
	}
}

func TestHubSlowSubscriberDroppedNotBlocking(t *testing.T) {
	h := NewHub(64)
	_, slow, _ := h.Subscribe(0, 1)
	// Publish more than the channel holds without draining it; the
	// publisher must never block and must cut the subscriber loose.
	for c := int64(1); c <= 10; c++ {
		h.Publish(sampleEv(c))
	}
	// Drain: one buffered event, then the closed channel.
	n := 0
	for range slow.C {
		n++
	}
	if n != 1 {
		t.Fatalf("slow subscriber received %d events before the drop, want 1", n)
	}
	if !slow.Lagged() {
		t.Fatal("dropped subscriber must report Lagged")
	}
	st := h.Stats()
	if st.SubsDropped != 1 || st.EvsDropped == 0 || st.Subscribers != 0 {
		t.Fatalf("drop counters: %+v", st)
	}

	// The dropped reader resumes from its cursor with no gap.
	backlog, sub, gapped := h.Subscribe(2, 16)
	sub.Cancel()
	if gapped || len(backlog) != 9 || backlog[0].Seq != 2 {
		t.Fatalf("resume after drop: gapped=%v backlog=%d first=%d", gapped, len(backlog), backlog[0].Seq)
	}
}

func TestHubClose(t *testing.T) {
	h := NewHub(8)
	h.Publish(sampleEv(1))
	_, live, _ := h.Subscribe(0, 4)
	h.Close()
	if !h.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	// The live subscription's channel delivers the backlogged event then
	// closes (it was subscribed before the publish? No: after — so it
	// closes immediately once drained of the one live delivery).
	for range live.C {
	}
	if live.Lagged() {
		t.Fatal("closed-not-lagged subscriber reports Lagged")
	}

	// Late joiners still get the retained history on a born-closed channel.
	backlog, sub, _ := h.Subscribe(0, 4)
	if len(backlog) != 1 {
		t.Fatalf("post-close backlog %d, want 1", len(backlog))
	}
	if _, open := <-sub.C; open {
		t.Fatal("post-close subscription channel must be born closed")
	}
	if seq := h.Publish(sampleEv(2)); seq != 0 {
		t.Fatalf("Publish after Close returned seq %d, want 0", seq)
	}
	sub.Cancel() // must be a safe no-op
}

// TestHubConcurrentChurn hammers one publisher against subscribe /
// consume / cancel churn (run with -race): every reader checks that the
// backlog + live concatenation is strictly sequential — no gap, no
// duplicate — no matter when it joined or left.
func TestHubConcurrentChurn(t *testing.T) {
	h := NewHub(1 << 14)
	const events = 2000
	const readers = 8

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := int64(1); c <= events; c++ {
			h.Publish(sampleEv(c))
		}
		h.Close()
	}()

	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cursor := uint64(0)
			for round := 0; ; round++ {
				backlog, sub, gapped := h.Subscribe(cursor+1, 8)
				if gapped {
					errs <- fmt.Errorf("reader %d: gap at cursor %d with an oversized ring", r, cursor)
					return
				}
				for _, ev := range backlog {
					if ev.Seq != cursor+1 {
						errs <- fmt.Errorf("reader %d: backlog seq %d after %d", r, ev.Seq, cursor)
						return
					}
					cursor = ev.Seq
				}
				live := 0
				for ev := range sub.C {
					if ev.Seq != cursor+1 {
						errs <- fmt.Errorf("reader %d: live seq %d after %d", r, ev.Seq, cursor)
						return
					}
					cursor = ev.Seq
					// Churn: drop the subscription mid-stream every few
					// events and resubscribe from the cursor.
					if live++; live%50 == 0 && round < 5 {
						sub.Cancel()
						break
					}
				}
				if h.Closed() && !sub.Lagged() {
					// Channel closed because the run is over (not a lag
					// drop): pick up anything still retained, then stop.
					tail, s2, _ := h.Subscribe(cursor+1, 1)
					s2.Cancel()
					for _, ev := range tail {
						if ev.Seq != cursor+1 {
							errs <- fmt.Errorf("reader %d: tail seq %d after %d", r, ev.Seq, cursor)
							return
						}
						cursor = ev.Seq
					}
					if cursor != events {
						errs <- fmt.Errorf("reader %d: finished at %d, want %d", r, cursor, events)
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIntervalSeriesPublishChurn wires a hub into IntervalSeries.OnSample
// the way the service does, then races Append against subscriber churn
// (run with -race): the simulation-side Append must never block or skip,
// and the hub history must match the buffered series bit for bit.
func TestIntervalSeriesPublishChurn(t *testing.T) {
	hub := NewHub(4096)
	series := &IntervalSeries{Interval: 64}
	series.OnSample = func(s Sample) {
		hub.Publish(TimelineEvent{Cycle: s.Cycle, Kind: TimelineSample, Sample: &s})
	}

	const n = 1000
	done := make(chan struct{})
	var churn sync.WaitGroup
	for r := 0; r < 4; r++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_, sub, _ := hub.Subscribe(0, 2) // tiny buffer: most get dropped
				for range sub.C {
				}
				sub.Cancel()
			}
		}()
	}

	for c := int64(1); c <= n; c++ {
		series.Append(Sample{Cycle: c * 64, Points: []SeriesPoint{
			{Stream: 0, Label: "graphics", IPC: 1.5, Warps: 12},
			{Stream: 1, Label: "VIO", IPC: 0.5, Warps: 4},
		}})
	}
	close(done)
	// Close first: a churner that subscribed after the last Append is
	// released only by the hub closing its channel.
	hub.Close()
	churn.Wait()

	if len(series.Samples) != n {
		t.Fatalf("buffered series has %d samples, want %d", len(series.Samples), n)
	}
	var streamed []Sample
	for _, ev := range hub.Events(0, 0) {
		if ev.Kind == TimelineSample {
			streamed = append(streamed, *ev.Sample)
		}
	}
	if len(streamed) != n {
		t.Fatalf("hub retained %d samples, want %d", len(streamed), n)
	}
	if SamplesDigest(streamed) != SamplesDigest(series.Samples) {
		t.Fatal("streamed samples diverge from the buffered series")
	}
}

func TestSamplesDigest(t *testing.T) {
	mk := func() []Sample {
		return []Sample{
			{Cycle: 100, Points: []SeriesPoint{{Stream: 0, Label: "graphics", IPC: 1.25, Warps: 30, L1Hit: 0.9, L2Hit: 0.5, DRAMBytesPerCycle: 3.5, Stalls: [NumStallCauses]int64{1, 2, 3, 4, 5}}}},
			{Cycle: 200, Points: []SeriesPoint{{Stream: 1, Label: "VIO", IPC: 0.75, Warps: 8}}},
		}
	}
	a, b := mk(), mk()
	if SamplesDigest(a) != SamplesDigest(b) {
		t.Fatal("identical series hash differently")
	}
	b[1].Points[0].Stalls[2]++
	if SamplesDigest(a) == SamplesDigest(b) {
		t.Fatal("stall-count perturbation not reflected in the digest")
	}
	if SamplesDigest(nil) != SamplesDigest([]Sample{}) {
		t.Fatal("nil and empty series must agree")
	}
}

// TestSamplesDigestSeesQoS: scenario series that differ only in one tenant
// QoS counter — deadline outcomes included — are different results.
func TestSamplesDigestSeesQoS(t *testing.T) {
	mk := func() []Sample {
		return []Sample{{Cycle: 100, Points: []SeriesPoint{{Stream: 1, Label: "VIO", IPC: 0.5,
			QoSArrived: 3, QoSDone: 2, DeadlinesMet: 2, DeadlinesMissed: 1}}}}
	}
	for name, edit := range map[string]func(*SeriesPoint){
		"QoSArrived":      func(p *SeriesPoint) { p.QoSArrived++ },
		"QoSDone":         func(p *SeriesPoint) { p.QoSDone++ },
		"DeadlinesMet":    func(p *SeriesPoint) { p.DeadlinesMet++ },
		"DeadlinesMissed": func(p *SeriesPoint) { p.DeadlinesMissed++ },
	} {
		a, b := mk(), mk()
		edit(&b[0].Points[0])
		if SamplesDigest(a) == SamplesDigest(b) {
			t.Errorf("series differing only in %s digest alike", name)
		}
	}
}

// TestSamplesDigestIgnoresEngineCounters: the sample-level engine counters
// count host work (-no-skip changes them), so they do not key the series.
func TestSamplesDigestIgnoresEngineCounters(t *testing.T) {
	a := []Sample{{Cycle: 100, CyclesSimulated: 100, StepsExecuted: 40, StepsSkipped: 60,
		Points: []SeriesPoint{{Stream: 0, Label: "graphics", Warps: 8}}}}
	b := []Sample{{Cycle: 100, CyclesSimulated: 100, StepsExecuted: 100, BulkStallSlots: 7,
		DispatchSweeps: 100, DispatchSkipped: 0, StallReplays: 9,
		Points: []SeriesPoint{{Stream: 0, Label: "graphics", Warps: 8}}}}
	if SamplesDigest(a) != SamplesDigest(b) {
		t.Fatal("series differing only in engine counters digest differently")
	}
}
