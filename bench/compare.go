package main

import (
	"fmt"
	"io"
	"math"
)

// suiteWorkload is one workload's merged result: the end-to-end metrics
// of its untraced run and the per-layer metrics of its traced run.
type suiteWorkload struct {
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	Failures  []string               `json:"failures,omitempty"`
	Reps      int                    `json:"reps"`
	JobOrder  []string               `json:"job_order,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	SelfTimeS map[string]float64     `json:"self_time_s,omitempty"`
}

// merge folds one child's report in. The untraced report comes first and
// owns every metric it measured: an end-to-end number never comes from
// the traced run.
func (sw *suiteWorkload) merge(rep *report) {
	sw.Attempted += rep.Attempted
	sw.Failed += rep.Failed
	sw.Failures = append(sw.Failures, rep.Failures...)
	if !rep.Traced {
		sw.Reps, sw.JobOrder = rep.Reps, rep.JobOrder
	} else {
		sw.SelfTimeS = rep.SelfTimeS
	}
	for name, m := range rep.Metrics {
		if _, have := sw.Metrics[name]; !have {
			sw.Metrics[name] = m
		}
	}
}

// suiteFile is suite.json: what -compare reads.
type suiteFile struct {
	// Claim is the gain a result set is offered in support of. The
	// benchmark only measures, so it always writes null; a claim is made
	// by a later change, in its own words, citing two of these files.
	Claim     *string                   `json:"claim"`
	Host      hostStamp                 `json:"host"`
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Sets      int                       `json:"sets"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

// aggregate folds back-to-back sets into one file: each metric becomes
// the median of its per-set values with the quartiles across sets.
func aggregate(sets []*suiteFile) *suiteFile {
	if len(sets) == 1 {
		return sets[0]
	}
	out := *sets[0]
	out.Sets = len(sets)
	out.Workloads = map[string]*suiteWorkload{}
	for name, first := range sets[0].Workloads {
		sw := &suiteWorkload{Reps: first.Reps, JobOrder: first.JobOrder, SelfTimeS: first.SelfTimeS, Metrics: map[string]metricValue{}}
		for _, sf := range sets {
			w := sf.Workloads[name]
			sw.Attempted += w.Attempted
			sw.Failed += w.Failed
			sw.Failures = append(sw.Failures, w.Failures...)
		}
		for metric, m := range first.Metrics {
			var vs []float64
			for _, sf := range sets {
				if v, ok := sf.Workloads[name].Metrics[metric]; ok {
					vs = append(vs, v.Value)
				}
			}
			q1, med, q3 := quartiles(vs)
			sw.Metrics[metric] = metricValue{Value: med, Unit: m.Unit, Q1: q1, Q3: q3, N: len(vs)}
		}
		out.Workloads[name] = sw
	}
	return &out
}

// verdict judges one bounded metric of one workload. worse is the change
// against the metric's direction as a share of the old median (the base
// of every ratio printed); spread the wider of the two sides' quartile
// distances as a share of their medians.
func verdict(d *metricDef, old, new metricValue) (v string, worse, spread float64) {
	sign := 1.0 // lower is better
	if d.better == "higher" {
		sign = -1
	}
	worse = sign * (new.Value - old.Value) / math.Abs(old.Value)
	rel := func(m metricValue) float64 { return (m.Q3 - m.Q1) / math.Abs(m.Value) }
	spread = math.Max(rel(old), rel(new))
	// Every run of one side reads better than every run of the other,
	// as far as quartiles can tell.
	newBetter := sign*(new.Q3-old.Q1) < 0 && sign*(new.Q1-old.Q3) < 0
	newWorse := sign*(new.Q1-old.Q3) > 0 && sign*(new.Q3-old.Q1) > 0
	switch {
	case spread > d.bound:
		// Too wide to call from medians: only a clean separation counts.
		if newBetter {
			return "improved", worse, spread
		}
		if newWorse && worse > d.bound {
			return "regressed", worse, spread
		}
		return "unresolved", worse, spread
	case worse > d.bound:
		return "regressed", worse, spread
	case -worse > d.bound:
		return "improved", worse, spread
	}
	return "unchanged", worse, spread
}

// compareFiles prints one row per metric and workload of two suite files
// and reports whether anything regressed: a bounded metric worse by more
// than its bound, or a higher share of failed operations.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	var old, new suiteFile
	if err := readJSON(oldPath, &old); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &new); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s  commit %s  %d CPU  %s  seed %d  sets %d\n", oldPath, old.Host.Commit, old.Host.NumCPU, old.Host.GoVersion, old.Seed, old.Sets)
	fmt.Fprintf(w, "new: %s  commit %s  %d CPU  %s  seed %d  sets %d\n", newPath, new.Host.Commit, new.Host.NumCPU, new.Host.GoVersion, new.Seed, new.Sets)
	if old.Host.NumCPU != new.Host.NumCPU || old.Host.GoVersion != new.Host.GoVersion {
		fmt.Fprintln(w, "WARNING: the two files were measured on different hosts or toolchains; timings do not compare")
	}
	fmt.Fprintf(w, "every ratio is new/old (base: old median); spread is the wider quartile distance over its median\n")
	if old.Sets < 2 || new.Sets < 2 {
		fmt.Fprintln(w, "NOTE: a single set shows whether anything regressed past its bound; a gain is claimed from ten alternating pairs (bench/README.md)")
	}
	fmt.Fprintln(w)
	counts := map[string]int{}
	for _, wd := range workloadDefs {
		ow, nw := old.Workloads[wd.name], new.Workloads[wd.name]
		if ow == nil || nw == nil {
			fmt.Fprintf(w, "%s: missing from one file\n", wd.name)
			continue
		}
		fmt.Fprintf(w, "%s\n", wd.name)
		rate := func(s *suiteWorkload) float64 { return float64(s.Failed) / math.Max(1, float64(s.Attempted)) }
		fmt.Fprintf(w, "  ops failed/attempted: old %d/%d, new %d/%d\n", ow.Failed, ow.Attempted, nw.Failed, nw.Attempted)
		if rate(nw) > rate(ow) {
			fmt.Fprintf(w, "  REGRESSED: more operations fail\n")
			regressed = true
		}
		for i := range catalog {
			d := &catalog[i]
			om, okO := ow.Metrics[d.name]
			nm, okN := nw.Metrics[d.name]
			if !okO || !okN {
				continue
			}
			switch {
			case d.exact:
				v := "equal"
				if om.Value != nm.Value {
					v = "DIFFERS"
				}
				counts[v]++
				fmt.Fprintf(w, "  %-36s %-6s old %-14.10g new %-14.10g %s\n", d.name, d.unit, om.Value, nm.Value, v)
			case d.bound > 0:
				v, worse, spread := verdict(d, om, nm)
				counts[v]++
				regressed = regressed || v == "regressed"
				fmt.Fprintf(w, "  %-36s %-6s old %-10.5g [%.5g, %.5g] new %-10.5g [%.5g, %.5g] ratio %.3f worse %+.1f%% spread %.1f%% bound %.0f%% %s\n",
					d.name, d.unit, om.Value, om.Q1, om.Q3, nm.Value, nm.Q1, nm.Q3, nm.Value/om.Value, worse*100, spread*100, d.bound*100, v)
			default:
				fmt.Fprintf(w, "  %-36s %-6s old %-10.5g new %-10.5g ratio %.3f\n", d.name, d.unit, om.Value, nm.Value, nm.Value/om.Value)
			}
		}
	}
	fmt.Fprintf(w, "\nbounded rows: %d improved, %d unchanged, %d unresolved, %d regressed; exact counts: %d equal, %d differ\n",
		counts["improved"], counts["unchanged"], counts["unresolved"], counts["regressed"], counts["equal"], counts["DIFFERS"])
	return regressed, nil
}
