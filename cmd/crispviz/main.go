// Command crispviz renders ASCII visualizations of a concurrent run — the
// reproduction's analog of the artifact's visualizer logs: a per-task
// occupancy timeline (paper Fig. 13) and an L2 composition bar
// (paper Figs. 11/15).
//
//	crispviz -scene PT -compute VIO -policy WarpedSlicer -gpu JetsonOrin
//
// (crispsim -trace/-metrics exports the same run's trace and time series.)
//
// With -serve it instead points the embedded exploration UI (the same
// one crispd ships at /ui/) at a local results directory — a crispd
// state dir's results/ subdirectory — with no daemon required:
//
//	crispviz -serve 127.0.0.1:8090 -results /var/lib/crispd/results
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"

	"crisp"
	"crisp/internal/service"
	"crisp/internal/trace"
)

func main() {
	log.SetFlags(0)
	sceneName := flag.String("scene", "PT", "rendering workload")
	computeName := flag.String("compute", "VIO", "compute workload")
	policy := flag.String("policy", "EVEN", "partition policy")
	gpuName := flag.String("gpu", "JetsonOrin", "GPU config")
	width := flag.Int("width", 72, "chart width in columns")
	serveAddr := flag.String("serve", "", "serve the exploration UI over a results dir at this address instead of simulating")
	resultsDir := flag.String("results", "", "results directory for -serve (a crispd state dir's results/ subdirectory)")
	flag.Parse()

	if *serveAddr != "" {
		if *resultsDir == "" {
			log.Fatal("-serve requires -results <dir>")
		}
		if st, err := os.Stat(*resultsDir); err != nil || !st.IsDir() {
			log.Fatalf("-results %s: not a directory", *resultsDir)
		}
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving %s — open http://%s/ui/", *resultsDir, ln.Addr())
		log.Fatal(http.Serve(ln, service.StaticSite(*resultsDir)))
	}

	cfg, err := crisp.GPUByName(*gpuName)
	if err != nil {
		log.Fatal(err)
	}
	spec := crisp.SpecForPair(cfg, *sceneName, *computeName, crisp.PolicyKind(*policy), crisp.DefaultRenderOptions())
	res, err := crisp.RunSpec(context.Background(), spec, nil, crisp.WithMetrics(512))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s + %s on %s under %s: %d cycles\n\n",
		*sceneName, *computeName, cfg.Name, *policy, res.Cycles)

	fmt.Println("occupancy timeline (resident warps; r = render, c = compute):")
	plotTimeline(os.Stdout, res.Metrics, cfg.NumSMs*cfg.MaxWarpsPerSM, *width)

	fmt.Println("\nL2 composition:")
	plotComposition(res, *width)
}

// maxTimelineRows bounds the occupancy chart's height.
const maxTimelineRows = 40

// plotTimeline draws the two per-task occupancy series — the resident
// warps of the interval metrics series — as row-per-sample bars, every
// step-th sample so at most maxTimelineRows rows print.
func plotTimeline(w io.Writer, series *crisp.IntervalSeries, capacity, width int) {
	if series == nil || len(series.Samples) == 0 {
		fmt.Fprintln(w, "  (no samples)")
		return
	}
	samples := series.Samples
	step := (len(samples) + maxTimelineRows - 1) / maxTimelineRows
	for i := 0; i < len(samples); i += step {
		s := &samples[i]
		g, c := s.Warps(0), s.Warps(1)
		gw := g * width / capacity
		cw := c * width / capacity
		bar := strings.Repeat("r", gw) + strings.Repeat("c", cw)
		fmt.Fprintf(w, "  %9d | %-*s g=%-4d c=%-4d\n", s.Cycle, width, bar, g, c)
	}
}

// plotComposition draws the final L2 line ownership by data class.
func plotComposition(res *crisp.Result, width int) {
	if res.L2Lines == 0 {
		fmt.Println("  (empty)")
		return
	}
	classes := []trace.MemClass{trace.ClassTexture, trace.ClassPipeline, trace.ClassFramebuffer, trace.ClassCompute}
	for _, cl := range classes {
		n := res.L2ByClass[cl]
		w := n * width / res.L2Lines
		fmt.Printf("  %-12s |%-*s| %5.1f%% (%d lines)\n",
			cl, width, strings.Repeat("#", w), 100*float64(n)/float64(res.L2Lines), n)
	}
}
