package experiments

// Shape tests: each experiment must reproduce the *direction and rough
// magnitude* of the corresponding paper claim at the quick scale. The
// default-scale numbers are produced by bench_test.go and cmd/crispbench.

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/render"
	"crisp/internal/scenario"
	"crisp/internal/snapshot"
)

var sc = QuickScale

func TestTable2Render(t *testing.T) {
	out := Table2().String()
	for _, want := range []string{"JetsonOrin", "RTX3070", "14", "46", "LPDDR5, 200GB/s", "GDDR6, 448GB/s", "1300", "1132"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestFrameCaching(t *testing.T) {
	a, err := Frame("PL", sc.W2K, sc.H2K, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Frame("PL", sc.W2K, sc.H2K, true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Frame did not memoize")
	}
	c, err := Frame("PL", sc.W2K, sc.H2K, false)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("LoD setting must key the cache")
	}
}

// TestRun: the figures' one runner memoizes by content and cadence, runs
// misses concurrently, hands results back in spec order, and names the
// first spec that fails. Each case uses a config of its own (L2 size) so
// that no case is answered by another's memo.
func TestRun(t *testing.T) {
	ctx := context.Background()
	orin := config.JetsonOrin()
	withL2 := func(div int) config.GPU {
		cfg := orin
		cfg.L2Size = orin.L2Size / div
		return cfg
	}
	computeOnly := func(cfg config.GPU, name string, pol core.PolicyKind) snapshot.Spec {
		return core.SpecForPair(cfg, "", name, pol, render.Options{})
	}
	run := func(t *testing.T, specs ...snapshot.Spec) []*core.Result {
		t.Helper()
		res, err := Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(specs) {
			t.Fatalf("%d results for %d specs", len(res), len(specs))
		}
		return res
	}
	for _, c := range []struct {
		name  string
		check func(t *testing.T)
	}{
		// A tweaked config that keeps its preset's name is a different
		// simulation: keyed on the name, it got the preset's result.
		{"configs are keyed by content", func(t *testing.T) {
			preset, small := computeOnly(orin, "VIO", core.PolicySerial), computeOnly(withL2(16), "VIO", core.PolicySerial)
			res := run(t, preset, small)
			if res[0] == res[1] {
				t.Fatalf("configs named %q with L2Size %d and %d shared one result", orin.Name, orin.L2Size, small.GPU.L2Size)
			}
			if res[0].Cycles == res[1].Cycles {
				t.Errorf("a 16x smaller L2 left VIO at %d cycles: the second run did not use its own config", res[0].Cycles)
			}
		}},
		{"a repeated spec is memoized", func(t *testing.T) {
			spec := computeOnly(withL2(2), "HOLO", core.PolicyEven)
			res := run(t, spec, spec)
			if res[0] != res[1] {
				t.Error("one spec twice in a list ran twice")
			}
			if again := run(t, spec); again[0] != res[0] {
				t.Error("a later Run of the same spec ran it again")
			}
		}},
		{"results come back in spec order", func(t *testing.T) {
			for _, at := range []struct{ procs, l2Div int }{{1, 4}, {2, 64}} { // a fresh memo key each
				cfg := withL2(at.l2Div)
				specs := []snapshot.Spec{
					computeOnly(cfg, "VIO", core.PolicyEven),
					computeOnly(cfg, "HOLO", core.PolicyMPS),
					core.SpecForPair(cfg, "SPL", "HOLO", core.PolicyEven, frameOpts(sc.W2K, sc.H2K, true)),
					computeOnly(cfg, "HOLO", core.PolicySerial),
				}
				prev := runtime.GOMAXPROCS(at.procs)
				res, err := Run(specs)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				for i, spec := range specs {
					want, err := core.RunSpec(ctx, spec, nil)
					if err != nil {
						t.Fatal(err)
					}
					if res[i].Cycles != want.Cycles || res[i].Policy != want.Policy {
						t.Errorf("GOMAXPROCS %d: result %d is %s at %d cycles, its spec runs %s at %d",
							at.procs, i, res[i].Policy, res[i].Cycles, want.Policy, want.Cycles)
					}
				}
			}
		}},
		// JobDigest leaves the cadences out, so a digest-only memo answered
		// a metrics spec with the same job's series-less result.
		{"a spec differing only by MetricsInterval gets its own series", func(t *testing.T) {
			plain := computeOnly(withL2(8), "VIO", core.PolicyWarpedSlicer)
			sampled := plain
			sampled.MetricsInterval = 1024
			res := run(t, plain, sampled)
			if res[0].Metrics != nil {
				t.Error("the spec without an interval has a series")
			}
			if res[1].Metrics == nil || len(res[1].Metrics.Samples) == 0 {
				t.Fatal("the spec with MetricsInterval 1024 has no series")
			}
			if res[0].Cycles != res[1].Cycles {
				t.Errorf("sampling moved the run: %d vs %d cycles", res[0].Cycles, res[1].Cycles)
			}
		}},
		{"under NoSkip no result skipped a step", func(t *testing.T) {
			NoSkip = true
			defer func() { NoSkip = false }()
			cfg := withL2(32)
			mix, err := scenario.Preset("n-way-fair")
			if err != nil {
				t.Fatal(err)
			}
			mixSpec, err := core.SpecForMix(cfg, mix, core.PolicyMPS, render.Options{})
			if err != nil {
				t.Fatal(err)
			}
			metrics := computeOnly(cfg, "HOLO", core.PolicyEven)
			metrics.MetricsInterval = 512
			specs := []snapshot.Spec{
				core.SpecForPair(cfg, "SPL", "VIO", core.PolicyEven, frameOpts(sc.W2K, sc.H2K, true)),
				computeOnly(cfg, "VIO", core.PolicyEven),
				mixSpec,
				metrics,
			}
			for i, r := range run(t, specs...) {
				if r.StepsSkipped != 0 {
					t.Errorf("spec %d (%s under %s) skipped %d steps", i, specName(specs[i]), specs[i].Policy, r.StepsSkipped)
				}
			}
		}},
		{"a failing spec is named, and not memoized", func(t *testing.T) {
			bad := computeOnly(orin, "NOPE1", core.PolicyEven)
			specs := []snapshot.Spec{computeOnly(orin, "HOLO", core.PolicyEven), bad, computeOnly(orin, "NOPE2", core.PolicyTAP)}
			res, err := Run(specs)
			if err == nil || res != nil {
				t.Fatalf("Run = %v, %v; want no results and an error", res, err)
			}
			if want := "NOPE1 under EVEN: "; !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error %q does not start with %q", err, want)
			}
			if _, ok := memo.Load(keyOf(bad)); ok {
				t.Error("the failed spec has a memo entry")
			}
		}},
	} {
		t.Run(c.name, c.check)
	}
}

func TestScaleRes(t *testing.T) {
	w2, h2 := DefaultScale.Res("2K")
	w4, h4 := DefaultScale.Res("4K")
	if w4*h4 != 4*w2*h2 {
		t.Errorf("4K class must be exactly 4x the pixels: %dx%d vs %dx%d", w2, h2, w4, h4)
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Near-perfect correlation; simulator over-counts slightly (warp
	// rounding), the paper's bottom-left error band.
	if r.R < 0.99 {
		t.Errorf("Fig3 r = %v, want ≥0.99", r.R)
	}
	if r.MeanRelErr < 0 || r.MeanRelErr > 0.5 {
		t.Errorf("Fig3 mean over-count = %v, want small positive", r.MeanRelErr)
	}
	if r.Points < 20 {
		t.Errorf("Fig3 points = %d", r.Points)
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 12 frames")
	}
	r, err := Fig6(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.R < 0.7 {
		t.Errorf("Fig6 correlation = %v, want strong (paper 0.948)", r.R)
	}
	// Simulated times read high for most points (lack of driver opts).
	if r.SimHighFraction < 0.8 {
		t.Errorf("simulator reads high on only %v of points", r.SimHighFraction)
	}
	// IT is vertex-bound: 4x pixels cost well under 2x; some scene
	// scales far more.
	if r.ITScaling > 1.7 {
		t.Errorf("IT 4K/2K = %v, want ≈1 (vertex-bound)", r.ITScaling)
	}
	if r.MaxScaling < r.ITScaling {
		t.Errorf("max scaling %v below IT %v", r.MaxScaling, r.ITScaling)
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if r.Level0Distinct != 4 || r.Level1Distinct != 1 {
		t.Errorf("mip merge %d→%d, want 4→1", r.Level0Distinct, r.Level1Distinct)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(sc)
	if err != nil {
		t.Fatal(err)
	}
	// LoD-off must be far less accurate than LoD-on (paper: 219% vs 33%,
	// a 6.6x reduction; the worst drawcall inflates up to 6x).
	if r.MAPEOn > 0.8 {
		t.Errorf("LoD-on MAPE = %v, want well under 1", r.MAPEOn)
	}
	if r.Improvement < 3 {
		t.Errorf("MAPE reduction = %vx, want multiple-fold", r.Improvement)
	}
	if r.MaxInflation < 3 {
		t.Errorf("max LoD-off inflation = %vx, want several-fold", r.MaxInflation)
	}
}

func TestFig10Shape(t *testing.T) {
	// The lines-per-CTA histogram is resolution-sensitive (mip levels
	// shift with pixel density), so this check runs at the same default
	// scale as the harness.
	r, err := Fig10(DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode < 2 || r.Mode > 8 {
		t.Errorf("mode = %d, want the paper's 3-5 neighborhood", r.Mode)
	}
	if r.MeanMax <= r.MeanMin {
		t.Errorf("per-drawcall means should vary: %v..%v", r.MeanMin, r.MeanMax)
	}
	if r.Histogram.Total() < 10 {
		t.Errorf("histogram too small: %d CTAs", r.Histogram.Total())
	}
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(sc)
	if err != nil {
		t.Fatal(err)
	}
	// PBR fills the L2 with texture lines; basic shading does not.
	if r.TexFraction["PT"] <= r.TexFraction["SPL"] {
		t.Errorf("texture share PT %v should exceed SPL %v",
			r.TexFraction["PT"], r.TexFraction["SPL"])
	}
	if r.TexFraction["PT"] < 0.3 {
		t.Errorf("PT texture share = %v, want paper's ≈44-60%% region", r.TexFraction["PT"])
	}
	// Basic-shaded Sponza hits better than the PBR Pistol.
	if r.L2Hit["SPL"] <= r.L2Hit["PT"] {
		t.Errorf("L2 hit SPL %v should exceed PT %v", r.L2Hit["SPL"], r.L2Hit["PT"])
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("27 concurrent simulations")
	}
	r, err := Fig12(sc)
	if err != nil {
		t.Fatal(err)
	}
	// EVEN is the fastest of the three overall.
	if r.GeoMean[core.PolicyEven] <= r.GeoMean[core.PolicyMPS] {
		t.Errorf("EVEN %v should beat MPS %v", r.GeoMean[core.PolicyEven], r.GeoMean[core.PolicyMPS])
	}
	if r.GeoMean[core.PolicyEven] <= r.GeoMean[core.PolicyWarpedSlicer] {
		t.Errorf("EVEN %v should beat Dynamic %v", r.GeoMean[core.PolicyEven], r.GeoMean[core.PolicyWarpedSlicer])
	}
	// NN pairings show the highest concurrency speedup.
	if r.BestNNSpeedup < 1.05 {
		t.Errorf("best NN speedup = %v, want >1", r.BestNNSpeedup)
	}
	// The sampling overhead hurts VIO (many small kernels) most.
	worstVIO, worstOther := 10.0, 10.0
	for _, p := range r.Pairs {
		d := p.Norm[core.PolicyWarpedSlicer]
		if p.Compute == "VIO" {
			if d < worstVIO {
				worstVIO = d
			}
		} else if d < worstOther {
			worstOther = d
		}
	}
	if worstVIO >= worstOther {
		t.Errorf("Dynamic should hurt VIO (%v) more than others (%v)", worstVIO, worstOther)
	}
}

func TestFig13Shape(t *testing.T) {
	r, err := Fig13(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples < 5 {
		t.Fatalf("timeline samples = %d", r.Samples)
	}
	if r.PeakWarps <= 0 {
		t.Fatal("no occupancy observed")
	}
	// Register-limited dips: occupancy while both tasks run falls well
	// below the peak.
	if float64(r.MinBusyWarps) > 0.8*float64(r.PeakWarps) {
		t.Errorf("no occupancy dips: min %d vs peak %d", r.MinBusyWarps, r.PeakWarps)
	}
}

func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("18 concurrent simulations")
	}
	r, err := Fig14(sc)
	if err != nil {
		t.Fatal(err)
	}
	// TAP matches MPS overall and beats MiG (bandwidth-bound pairs).
	if r.GeoMean[core.PolicyTAP] < 0.85 {
		t.Errorf("TAP %v should roughly match MPS", r.GeoMean[core.PolicyTAP])
	}
	if r.GeoMean[core.PolicyTAP] <= r.GeoMean[core.PolicyMiG] {
		t.Errorf("TAP %v should beat MiG %v", r.GeoMean[core.PolicyTAP], r.GeoMean[core.PolicyMiG])
	}
}

func TestFig15Shape(t *testing.T) {
	r, err := Fig15(sc)
	if err != nil {
		t.Fatal(err)
	}
	// HOLO is compute-bound: TAP hands the L2 to rendering.
	if r.RenderFraction < 0.85 {
		t.Errorf("rendering L2 share = %v, want dominant", r.RenderFraction)
	}
}

func TestCaseStudyAsyncUpscale(t *testing.T) {
	r, err := CaseStudyAsyncUpscale(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Tensor-heavy upscaling complements FP/TEX-heavy rendering:
	// intra-SM sharing must beat dedicating whole SMs.
	if r.Norm[core.PolicyEven] <= 1.0 {
		t.Errorf("EVEN %v should beat MPS for the DLSS-analog pairing", r.Norm[core.PolicyEven])
	}
	// The QoS variant keeps throughput in the same neighborhood.
	if r.Norm[core.PolicyPriority] < 0.9*r.Norm[core.PolicyEven] {
		t.Errorf("Priority %v far below EVEN %v", r.Norm[core.PolicyPriority], r.Norm[core.PolicyEven])
	}
}

func TestCaseStudyQoS(t *testing.T) {
	r, err := CaseStudyQoS(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The priority policy must get the frame ready no later than plain
	// EVEN sharing.
	if r.FrameDone[core.PolicyPriority] > r.FrameDone[core.PolicyEven] {
		t.Errorf("frame ready under Priority (%d) later than EVEN (%d)",
			r.FrameDone[core.PolicyPriority], r.FrameDone[core.PolicyEven])
	}
	for _, pol := range []core.PolicyKind{core.PolicyMPS, core.PolicyEven, core.PolicyPriority} {
		if r.FrameDone[pol] <= 0 || r.FrameDone[pol] > r.Makespan[pol] {
			t.Errorf("%s: frame-ready %d outside (0, makespan %d]", pol, r.FrameDone[pol], r.Makespan[pol])
		}
	}
}

func TestFig3SweepPrefers96(t *testing.T) {
	r, err := Fig3Sweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != 96 {
		t.Errorf("best batch size = %d, want 96 (paper's tuning result)", r.Best)
	}
	if r.MAPE[96] >= r.MAPE[24] {
		t.Errorf("batch-96 MAPE %v should beat batch-24 %v", r.MAPE[96], r.MAPE[24])
	}
}
