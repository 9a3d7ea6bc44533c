package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"
)

// benchmarkFile is BENCHMARK.json, which has exactly these keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json, which the driver
// reads, and the catalog, which the program emits from, the same list.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("BENCHMARK.json keys = %v, want exactly %v", keys, want)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command = %v, want %v", bf.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bf.RunSeconds, runSeconds)
	}

	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadDefs))
	}
	for i, wd := range workloadDefs {
		got := bf.Workloads[i]
		if got.Name != wd.name || got.Why != wd.why {
			t.Errorf("workload %d = %+v, the program has {%s %s}", i, got, wd.name, wd.why)
		}
		if !nameRE.MatchString(wd.name) || len(wd.why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", wd.name)
		}
	}

	type row struct {
		unit, better string
		bound        float64
	}
	fromCatalog := func(k metricKind) map[string]row {
		m := map[string]row{}
		for _, name := range metricsOfKind(k) {
			d := catalogIndex[name]
			r := row{unit: d.unit, better: d.better}
			if k == kindE2E {
				r.bound = d.bound
			}
			m[name] = r
		}
		return m
	}
	e2e, layer := map[string]row{}, map[string]row{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = row{m.Unit, m.Better, m.Bound}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = row{unit: m.Unit, better: m.Better}
	}
	if want := fromCatalog(kindE2E); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end = %v\ncatalog has %v", e2e, want)
	}
	if want := fromCatalog(kindLayer); !reflect.DeepEqual(layer, want) {
		t.Errorf("per_layer = %v\ncatalog has %v", layer, want)
	}
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Errorf("%d per_layer and %d end_to_end metrics exceed the contract's 128 and 16", len(bf.PerLayer), len(bf.EndToEnd))
	}
	for _, d := range catalog {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: outside the contract's character set", d.name, d.unit)
		}
	}
	if s, ok := e2e["setup_s"]; !ok || s.unit != "s" || s.better != "lower" {
		t.Errorf("setup_s = %+v, the contract wants unit s, better lower", s)
	}
}

// smokeSets runs, for each seed, every workload's traced smoke pass in
// this process; the sets run side by side to keep the test short.
func smokeSets(t *testing.T, seeds ...uint64) []map[string]*report {
	t.Helper()
	sets := make([]map[string]*report, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		sets[i] = map[string]*report{}
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			for _, wd := range workloadDefs {
				rep, err := runWorkload(options{workload: wd.name, seed: seed, seconds: 1, trace: true, smoke: true, outDir: t.TempDir()})
				if err != nil {
					errs[i] = fmt.Errorf("%s at seed %d: %w", wd.name, seed, err)
					return
				}
				sets[i][wd.name] = rep
			}
		}(i, seed)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return sets
}

func TestSmoke(t *testing.T) {
	sets := smokeSets(t, 1, 1, 2)
	a, b, c := sets[0], sets[1], sets[2]
	for _, wd := range workloadDefs {
		ra, rb, rc := a[wd.name], b[wd.name], c[wd.name]
		if ra.Failed != 0 || ra.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wd.name, ra.Failed, ra.Attempted, ra.Failures)
		}

		// Every declared end-to-end metric is present and never zero;
		// every emitted name is catalogued for this workload.
		for _, name := range metricsOfKind(kindE2E) {
			if m, ok := ra.Metrics[name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value", wd.name, name, m)
			}
		}
		for name := range ra.Metrics {
			if d, ok := catalogIndex[name]; !ok || !d.definedOn(wd.name) {
				t.Errorf("%s: emitted %s, which the catalog does not define there", wd.name, name)
			}
		}
		for _, traced := range []bool{false, true} {
			cp := *ra
			cp.Traced = traced
			line, err := cp.contractLine()
			if err != nil {
				t.Errorf("%s: %v", wd.name, err)
				continue
			}
			var got struct {
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Errorf("%s: result line: %v", wd.name, err)
			}
			kind := kindE2E
			if traced {
				kind = kindLayer
			}
			if want := metricsOfKind(kind); len(got.Metrics) != len(want) {
				t.Errorf("%s: result line has %d metrics, BENCHMARK.json lists %d", wd.name, len(got.Metrics), len(want))
			}
		}

		// Spans nest, and no layer's self time is negative.
		if err := ra.spans.check(); err != nil {
			t.Errorf("%s: %v", wd.name, err)
		}
		for name, s := range ra.SelfTimeS {
			if s < 0 {
				t.Errorf("%s: span %s has self time %g s", wd.name, name, s)
			}
		}
		if ra.spans.count("pass") < 2 || ra.spans.count("driver.sm") != 1 {
			t.Errorf("%s: span tree lacks the traced pass or the layer drivers", wd.name)
		}

		// Exact counts repeat bit for bit at a fixed seed.
		for name, m := range ra.Metrics {
			if catalogIndex[name].exact && m.Value != rb.Metrics[name].Value {
				t.Errorf("%s: exact count %s read %v, then %v, at the same seed", wd.name, name, m.Value, rb.Metrics[name].Value)
			}
		}

		// Another seed measures the same metrics.
		if got, want := metricNames(rc), metricNames(ra); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: seed 2 emitted %v, seed 1 %v", wd.name, got, want)
		}
	}
	if d1, d2 := a[wlMix].Metrics["sim.stats_digest"].Value, c[wlMix].Metrics["sim.stats_digest"].Value; d1 == d2 {
		t.Errorf("mix stats digest %v did not change with the seed", d1)
	}
	if n := a[wlTraceCollect].spans.count("core.run"); n != 0 {
		t.Errorf("trace-collect recorded %d timing-model spans", n)
	}
}

func metricNames(r *report) []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSeedShufflesJobOrder: the full job lists are too slow for a test,
// so the order change is checked on the generator that produces it.
func TestSeedShufflesJobOrder(t *testing.T) {
	p1, p1again, p2 := newRNG(1, 1).perm(17), newRNG(1, 1).perm(17), newRNG(2, 1).perm(17)
	if !reflect.DeepEqual(p1, p1again) {
		t.Errorf("seed 1 ordered the jobs %v, then %v", p1, p1again)
	}
	if reflect.DeepEqual(p1, p2) {
		t.Errorf("seeds 1 and 2 both ordered the jobs %v", p1)
	}
	sorted := append([]int(nil), p2...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("perm(17) = %v is not a permutation", p2)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := &metricDef{name: "t", better: "lower", bound: 0.10}
	higher := &metricDef{name: "r", better: "higher", bound: 0.10}
	mv := func(v, q1, q3 float64) metricValue { return metricValue{Value: v, Q1: q1, Q3: q3, N: 5} }
	for _, tc := range []struct {
		d        *metricDef
		old, new metricValue
		want     string
	}{
		{lower, mv(1, 0.99, 1.01), mv(1.02, 1.01, 1.03), "unchanged"},
		{lower, mv(1, 0.99, 1.01), mv(1.2, 1.19, 1.21), "regressed"},
		{lower, mv(1, 0.99, 1.01), mv(0.85, 0.84, 0.86), "improved"},
		{lower, mv(1, 1, 1), mv(0.97, 0.97, 0.97), "unchanged"},
		{lower, mv(1, 0.9, 1.1), mv(1.05, 0.95, 1.15), "unresolved"},
		{higher, mv(100, 99, 101), mv(80, 79, 81), "regressed"},
		{higher, mv(100, 99, 101), mv(120, 119, 121), "improved"},
	} {
		if got, _, _ := verdict(tc.d, tc.old, tc.new); got != tc.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", tc.d.better, tc.old.Value, tc.new.Value, got, tc.want)
		}
	}
}
