package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostStamp says where and on what a result was measured; a number
// without it cannot be compared with another.
type hostStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Workers    int    `json:"parallel_workers"`
}

func stampHost(commit string) hostStamp {
	h := hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Kernel:     "unknown",
		Workers:    parallelWorkers(),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					h.Commit = s.Value
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = runtime.GOOS + " " + strings.TrimSpace(string(data))
	}
	return h
}

// metricValue is one metric of one workload: the median over passes (or
// over sets, in an aggregated suite file) with the quartiles and sample
// count beside it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// report is one child's result file.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Reps      int                    `json:"reps"`
	TracedRep int                    `json:"traced_reps"`
	Host      hostStamp              `json:"host"`
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	Failures  []string               `json:"failures,omitempty"`
	JobOrder  []string               `json:"job_order,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// SelfTimeS is per span name the traced passes' self time: span
	// duration minus what its children cover.
	SelfTimeS map[string]float64 `json:"self_time_s,omitempty"`
	// OpSeconds is every timed operation's duration in each untraced pass.
	OpSeconds map[string][]float64 `json:"op_seconds,omitempty"`

	spans *tracer
}

// contractLine is the last line of a child's standard output: exactly
// the keys the benchmark contract names, with every end_to_end metric
// when untraced and every per_layer metric when traced. A per-layer
// count the workload never touches reads 0.
func (rep *report) contractLine() ([]byte, error) {
	kind := kindE2E
	if rep.Traced {
		kind = kindLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, name := range metricsOfKind(kind) {
		m, ok := rep.Metrics[name]
		if !ok {
			if kind == kindE2E {
				return nil, fmt.Errorf("end-to-end metric %s was not measured on %s", name, rep.Workload)
			}
			m = metricValue{Unit: catalogIndex[name].unit}
		}
		metrics[name] = mv{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
}

// print writes every metric by name with its unit, quartiles and sample
// count.
func (rep *report) print(w io.Writer) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %d+%d passes, ops %d/%d failed)\n",
		rep.Workload, mode, rep.Seed, rep.Reps, rep.TracedRep, rep.Failed, rep.Attempted)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, k := range []metricKind{kindE2E, kindWorkload, kindLayer} {
		for _, n := range names {
			if catalogIndex[n].kind != k {
				continue
			}
			m := rep.Metrics[n]
			fmt.Fprintf(w, "  %-36s %16.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// write stores the report as <workload>.<e2e|layers>.json and, for a
// traced run, the spans as <workload>.trace.json.
func (rep *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if rep.Traced {
		mode = "layers"
	}
	if err := writeJSON(filepath.Join(dir, rep.Workload+"."+mode+".json"), rep); err != nil {
		return err
	}
	if rep.spans != nil {
		return rep.spans.writeChrome(filepath.Join(dir, rep.Workload+".trace.json"))
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
