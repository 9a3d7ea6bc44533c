package experiments

import (
	"fmt"
	"io"
	"strings"

	"crisp/internal/stats"
)

// A Figure is one of the paper's tables, figures or case studies as
// crispbench -exp regenerates it.
type Figure struct {
	Name  string
	Title string
	// Print runs the experiment and writes its rows, and the headline
	// numbers its claim rests on, to w. It returns the primary table
	// (written as CSV under crispbench -csv).
	Print func(w io.Writer, sc Scale) (*stats.Table, error)
}

// WriteFigures writes each of figs to w under a "==== NAME — Title ===="
// header, then a summary of which ran: what crispbench -exp prints, and
// for all of Figures what testdata/figures.golden holds. run prints one
// figure to w (crispbench guards it against panics and timeouts, and times
// it on stderr); if it fails, the summary says so and the rest still run.
// Nothing written depends on the host, durations included, so the bytes
// are the same at any GOMAXPROCS.
func WriteFigures(w io.Writer, figs []Figure, run func(Figure) error) {
	sum := &stats.Table{Header: []string{"run", "status", "detail"}}
	failed := 0
	for _, f := range figs {
		fmt.Fprintf(w, "==== %s — %s ====\n", strings.ToUpper(f.Name), f.Title)
		status, detail := "ok", ""
		if err := run(f); err != nil {
			failed++
			status, detail = "FAILED", err.Error()
			if len(detail) > 72 {
				detail = detail[:69] + "..."
			}
		}
		fmt.Fprintln(w)
		sum.AddRow(f.Name, status, detail)
	}
	fmt.Fprintf(w, "==== SUMMARY (%d/%d ok) ====\n%s", len(figs)-failed, len(figs), sum)
}

// Figures lists every figure in the order crispbench -exp all prints them.
var Figures = []Figure{
	{"table2", "Simulation configurations", func(w io.Writer, sc Scale) (*stats.Table, error) {
		t := Table2()
		fmt.Fprintln(w, t)
		return t, nil
	}},
	{"fig3", "Vertex shader invocations: simulator vs hardware profiler (batch size 96)", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig3(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		fmt.Fprintf(w, "correlation r = %.4f over %d drawcalls; mean warp-rounding over-count = %.1f%%\n",
			r.R, r.Points, 100*r.MeanRelErr)
		return r.Table, nil
	}},
	{"fig3sweep", "Vertex batch-size sweep: invocation-count error vs batch size", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig3Sweep(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		fmt.Fprintf(w, "best batch size = %d (paper fixes 96 after the same sweep)\n", r.Best)
		return r.Table, nil
	}},
	{"fig6", "Frame-time correlation vs RTX 3070 silicon stand-in (2K/4K classes)", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig6(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		fmt.Fprintf(w, "correlation r = %.4f; simulator reads high on %s of points (paper: all, for lack of driver optimizations)\n",
			r.R, stats.Pct(r.SimHighFraction))
		fmt.Fprintf(w, "2K→4K scaling: IT (vertex-bound) %.2fx, max across scenes %.2fx\n", r.ITScaling, r.MaxScaling)
		return r.Table, nil
	}},
	{"fig7", "Mip merge on a 4x4 texture: four level-0 requests collapse at level 1", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig7()
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		fmt.Fprintf(w, "distinct texels: level 0 = %d, level 1 = %d\n", r.Level0Distinct, r.Level1Distinct)
		return r.Table, nil
	}},
	{"fig9", "L1 texture accesses: LoD on vs off vs exact-LoD reference", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig9(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		fmt.Fprintf(w, "MAPE: LoD on = %s, LoD off = %s (%.1fx reduction; paper: 219%% → 33%%, 6.6x)\n",
			stats.Pct(r.MAPEOn), stats.Pct(r.MAPEOff), r.Improvement)
		fmt.Fprintf(w, "worst per-drawcall LoD-off inflation: %.1fx (paper: up to 6x)\n", r.MaxInflation)
		return r.Table, nil
	}},
	{"fig10", "TEX cache lines (128B) per CTA in one Sponza drawcall", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig10(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "drawcall %s:\n%s", r.Drawcall, r.Histogram)
		fmt.Fprintf(w, "mode = %d, mean = %.2f; per-drawcall means span %.2f–%.2f (paper: 2.54–21.19)\n",
			r.Mode, r.Mean, r.MeanMin, r.MeanMax)
		hist := &stats.Table{Header: []string{"tex-lines-per-CTA", "count"}}
		for v := 0; v <= 256; v++ {
			if n := r.Histogram.Count(v); n > 0 {
				hist.AddRow(fmt.Sprint(v), fmt.Sprint(n))
			}
		}
		return hist, nil
	}},
	{"fig11", "L2 composition by shading technique (PBR Pistol vs basic Sponza)", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig11(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		return r.Table, nil
	}},
	{"fig12", "Warped-slicer vs EVEN vs MPS on Jetson Orin (normalized to MPS)", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig12(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		fmt.Fprintf(w, "geomean: MPS %.3f, EVEN %.3f, Dynamic %.3f; best NN pairing %.3f\n",
			r.GeoMean["MPS"], r.GeoMean["EVEN"], r.GeoMean["WarpedSlicer"], r.BestNNSpeedup)
		return r.Table, nil
	}},
	{"fig13", "Warped-slicer occupancy timeline, PT+VIO on Jetson Orin", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig13(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		fmt.Fprintf(w, "peak resident warps %d; minimum while both tasks resident %d (register-limited dips)\n",
			r.PeakWarps, r.MinBusyWarps)
		return r.Table, nil
	}},
	{"fig14", "TAP vs MiG vs MPS on RTX 3070 (normalized to MPS)", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig14(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		fmt.Fprintf(w, "geomean: MPS %.3f, MiG %.3f, TAP %.3f\n",
			r.GeoMean["MPS"], r.GeoMean["MiG"], r.GeoMean["TAP"])
		return r.Table, nil
	}},
	{"fig15", "L2 composition under TAP, SPH+HOLO", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := Fig15(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		fmt.Fprintf(w, "rendering owns %s of valid L2 lines (TAP starves the compute-bound HOLO)\n",
			stats.Pct(r.RenderFraction))
		return r.Table, nil
	}},
	{"upscale", "Async-compute case study: low-res render + DLSS-analog tensor upscaling", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := CaseStudyAsyncUpscale(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		return r.Table, nil
	}},
	{"qos", "QoS case study: frame-ready time vs throughput, PT+VIO", func(w io.Writer, sc Scale) (*stats.Table, error) {
		r, err := CaseStudyQoS(sc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, r.Table)
		return r.Table, nil
	}},
}
