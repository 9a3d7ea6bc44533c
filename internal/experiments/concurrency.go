package experiments

import (
	"fmt"

	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/partition"
	"crisp/internal/snapshot"
	"crisp/internal/stats"
)

// Fig12Pairs are the rendering×compute pairs used in the intra-SM study.
// The paper pairs its rendering workloads with VIO, HOLO, and NN; the
// three scenes here cover the fragment-heavy (PT), balanced (SPL), and
// toon/low-ALU (PL) regimes.
var Fig12Pairs = []string{"SPL", "PT", "PL"}

// PairPerf is one workload pair's performance under a set of policies,
// normalized to the baseline policy.
type PairPerf struct {
	Scene   string
	Compute string
	// Norm maps policy → performance relative to the baseline (higher
	// is better; baseline = 1).
	Norm map[core.PolicyKind]float64
	// Cycles maps policy → raw makespan.
	Cycles map[core.PolicyKind]int64
}

// runPairs evaluates each (scene, compute) pair under the policies,
// normalizing to baseline, and takes each policy's geometric mean.
func runPairs(cfg config.GPU, scenes, computes []string, policies []core.PolicyKind, baseline core.PolicyKind, sc Scale) ([]PairPerf, *stats.Table, map[core.PolicyKind]float64, error) {
	results, err := Run(grid(cfg, scenes, computes, policies, frameOpts(sc.W2K, sc.H2K, true)))
	if err != nil {
		return nil, nil, nil, err
	}
	header := []string{"pair"}
	for _, p := range policies {
		header = append(header, string(p))
	}
	t := &stats.Table{Header: header}
	var out []PairPerf
	for _, sn := range scenes {
		for _, cn := range computes {
			pp := PairPerf{Scene: sn, Compute: cn, Norm: map[core.PolicyKind]float64{}, Cycles: map[core.PolicyKind]int64{}}
			for _, pol := range policies {
				pp.Cycles[pol] = results[0].Cycles
				results = results[1:]
			}
			base := pp.Cycles[baseline]
			if base == 0 {
				return nil, nil, nil, fmt.Errorf("%s+%s: zero baseline cycles", sn, cn)
			}
			row := []string{sn + "+" + cn}
			for _, pol := range policies {
				pp.Norm[pol] = float64(base) / float64(pp.Cycles[pol])
				row = append(row, stats.F(pp.Norm[pol]))
			}
			t.AddRow(row...)
			out = append(out, pp)
		}
	}
	geo := map[core.PolicyKind]float64{}
	for _, pol := range policies {
		var xs []float64
		for _, p := range out {
			xs = append(xs, p.Norm[pol])
		}
		geo[pol] = stats.GeoMean(xs)
	}
	return out, t, geo, nil
}

// Fig12Result is the warped-slicer study (paper Fig. 12) on the Jetson
// Orin: MPS-even vs static intra-SM EVEN vs warped-slicer Dynamic,
// normalized to MPS. The paper finds EVEN fastest overall, Dynamic
// penalized by per-launch sampling (worst for VIO's many small kernels),
// and the NN pairing the biggest concurrency winner.
type Fig12Result struct {
	Table *stats.Table
	Pairs []PairPerf
	// GeoMean maps policy → geometric-mean normalized performance.
	GeoMean map[core.PolicyKind]float64
	// BestNNSpeedup is the best EVEN speedup among NN pairs.
	BestNNSpeedup float64
}

// Fig12 runs the intra-SM partitioning study.
func Fig12(sc Scale) (*Fig12Result, error) {
	policies := []core.PolicyKind{core.PolicyMPS, core.PolicyEven, core.PolicyWarpedSlicer}
	pairs, table, geo, err := runPairs(config.JetsonOrin(), Fig12Pairs, ComputeWorkloads, policies, core.PolicyMPS, sc)
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{Table: table, Pairs: pairs, GeoMean: geo}
	for _, p := range pairs {
		if p.Compute == "NN" && p.Norm[core.PolicyEven] > out.BestNNSpeedup {
			out.BestNNSpeedup = p.Norm[core.PolicyEven]
		}
	}
	return out, nil
}

// Fig13Result is the warped-slicer occupancy timeline for PT+VIO on the
// Orin (paper Fig. 13): per-task resident warps over time, with
// register-limited dips when the PBR fragment shader's 96-register
// footprint caps occupancy.
type Fig13Result struct {
	Table *stats.Table
	// PeakWarps is the maximum total resident warps observed.
	PeakWarps int
	// MinBusyWarps is the minimum total while both tasks were resident.
	MinBusyWarps int
	Samples      int
}

// Fig13 collects the occupancy timeline: the resident warps of each task
// in the interval metrics series.
func Fig13(sc Scale) (*Fig13Result, error) {
	spec := core.SpecForPair(config.JetsonOrin(), "PT", "VIO", core.PolicyWarpedSlicer, frameOpts(sc.W2K, sc.H2K, true))
	spec.MetricsInterval = 1024
	results, err := Run([]snapshot.Spec{spec})
	if err != nil {
		return nil, err
	}
	res := results[0]
	t := &stats.Table{Header: []string{"cycle", "render-warps", "compute-warps"}}
	out := &Fig13Result{Table: t, MinBusyWarps: 1 << 30}
	for _, s := range res.Metrics.Samples {
		g, c := s.Warps(partition.TaskGraphics), s.Warps(partition.TaskCompute)
		t.AddRow(fmt.Sprint(s.Cycle), fmt.Sprint(g), fmt.Sprint(c))
		if g+c > out.PeakWarps {
			out.PeakWarps = g + c
		}
		if g > 0 && c > 0 && g+c < out.MinBusyWarps {
			out.MinBusyWarps = g + c
		}
		out.Samples++
	}
	if out.MinBusyWarps == 1<<30 {
		out.MinBusyWarps = 0
	}
	return out, nil
}

// Fig14Result is the TAP study (paper Fig. 14) on the RTX 3070: MPS vs
// MiG (bank-level L2 + bandwidth partitioning) vs TAP (set-level, shared
// banks), normalized to MPS. The paper finds TAP ≈ MPS > MiG: the
// workloads are bandwidth-bound, and MiG's halved bank set costs
// bandwidth.
type Fig14Result struct {
	Table   *stats.Table
	Pairs   []PairPerf
	GeoMean map[core.PolicyKind]float64
}

// Fig14Pairs are the pairs for the inter-SM/L2 study.
var Fig14Pairs = []string{"SPH", "SPL"}

// Fig14 runs the L2-partitioning study.
func Fig14(sc Scale) (*Fig14Result, error) {
	policies := []core.PolicyKind{core.PolicyMPS, core.PolicyMiG, core.PolicyTAP}
	pairs, table, geo, err := runPairs(config.RTX3070(), Fig14Pairs, ComputeWorkloads, policies, core.PolicyMPS, sc)
	if err != nil {
		return nil, err
	}
	return &Fig14Result{Table: table, Pairs: pairs, GeoMean: geo}, nil
}

// Fig15Result is the L2 composition under TAP for SPH+HOLO (paper
// Fig. 15): HOLO barely touches memory, so TAP hands nearly every line to
// the rendering task.
type Fig15Result struct {
	Table *stats.Table
	// RenderFraction is the fraction of valid L2 lines owned by the
	// rendering task at end of run.
	RenderFraction float64
}

// Fig15 measures the TAP L2 composition for SPH+HOLO.
func Fig15(sc Scale) (*Fig15Result, error) {
	results, err := Run([]snapshot.Spec{core.SpecForPair(config.RTX3070(), "SPH", "HOLO", core.PolicyTAP, frameOpts(sc.W2K, sc.H2K, true))})
	if err != nil {
		return nil, err
	}
	res := results[0]
	total := res.L2Lines
	if total == 0 {
		return nil, fmt.Errorf("experiments: Fig15 empty L2")
	}
	t := &stats.Table{Header: []string{"owner", "lines", "share"}}
	g := res.L2ByTask[partition.TaskGraphics]
	c := res.L2ByTask[partition.TaskCompute]
	t.AddRow("rendering (SPH)", fmt.Sprint(g), stats.Pct(float64(g)/float64(total)))
	t.AddRow("compute (HOLO)", fmt.Sprint(c), stats.Pct(float64(c)/float64(total)))
	return &Fig15Result{Table: t, RenderFraction: float64(g) / float64(total)}, nil
}
