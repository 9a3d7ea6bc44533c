package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Parent is the index of the span that caused it (-1 for a root), Job the
// identifier every span of one job shares.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Job     string `json:"job,omitempty"`
	Lane    int    `json:"lane"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 from a nil tracer). lane
// separates concurrent clients in the Chrome view.
func (t *tracer) begin(name, job string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: -1, Parent: parent, Job: job, Lane: lane})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time, traced or not.
func (t *tracer) timed(name, job string, parent, lane int, fn func(id int)) time.Duration {
	id := t.begin(name, job, parent, lane)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	t.end(id)
	return d
}

// check reports structural defects: a span left open, ending before it
// starts, or reaching outside its parent.
func (t *tracer) check() error {
	for i, s := range t.spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts or was never closed", i, s.Name)
		}
		if s.Parent >= i {
			return fmt.Errorf("span %d (%s) names parent %d, which does not precede it", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				return fmt.Errorf("span %d (%s) reaches outside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
		}
	}
	return nil
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover (children of one parent may overlap when clients
// run concurrently, so the covered part is the union of their intervals).
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.StartNS
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < reach {
				lo = reach
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return out
}

func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, microsecond timestamps), loadable in Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "job": s.Job},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
