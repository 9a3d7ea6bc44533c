// Package experiments regenerates every table and figure of the paper's
// evaluation (Table II and Figs. 3, 6, 7, 9, 10, 11, 12, 13, 14, 15).
// Each experiment returns both a printable table (the harness output) and
// the headline metrics its paper claim rests on, so benchmarks and tests
// can assert the *shape* of the results — who wins, by roughly what
// factor — without pinning absolute numbers.
//
// Every experiment that simulates reaches the simulator one way: it builds
// a list of job specs (core.SpecForPair, core.SpecForMix), hands it to Run,
// and reduces the results to its table and headline numbers.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/fanout"
	"crisp/internal/render"
	"crisp/internal/scenario"
	"crisp/internal/scene"
	"crisp/internal/snapshot"
	"crisp/internal/stats"
)

// Scale selects the resolution class pair used for experiments. Cycle
// simulating a full 2560×1440 frame is hours of CPU, so the default
// "2K-class"/"4K-class" pair keeps the exact 4× pixel ratio at reduced
// absolute size (see DESIGN.md substitutions).
type Scale struct {
	W2K, H2K int
}

// DefaultScale is the standard experiment scale.
var DefaultScale = Scale{W2K: 320, H2K: 180}

// QuickScale is a reduced scale for fast tests.
var QuickScale = Scale{W2K: 128, H2K: 72}

// Res returns the resolution of a class ("2K" or "4K").
func (s Scale) Res(class string) (int, int) {
	if class == "4K" {
		return s.W2K * 2, s.H2K * 2
	}
	return s.W2K, s.H2K
}

// NoSkip disables event-driven core sleeping for every experiment's jobs
// (crispbench -no-skip). Results are bit-identical either way; the knob
// exists to diff the fast path against the cycle-by-cycle oracle.
var NoSkip bool

// RenderScenes lists the rendering workloads in paper order.
var RenderScenes = []string{"SPH", "PL", "MT", "SPL", "PT", "IT"}

// ComputeWorkloads lists the compute workloads.
var ComputeWorkloads = []string{"VIO", "HOLO", "NN"}

// frontend memoizes the experiments' rendered frames and compute
// workloads: every figure replays the same few traces under many policies
// and configurations. Lookups of different scenes build concurrently.
var frontend = core.NewFrontend()

// frameOpts are the options every experiment frame is rendered with.
// CollectRefTex is always enabled so validation metrics are available.
func frameOpts(w, h int, lod bool) render.Options {
	opts := render.DefaultOptions()
	opts.W, opts.H = w, h
	opts.LoD = lod
	opts.CollectRefTex = true
	return opts
}

// grid lists the pair specs of scenes × computes × policies, nested in
// that order, every frame rendered with opts.
func grid(cfg config.GPU, scenes, computes []string, policies []core.PolicyKind, opts render.Options) []snapshot.Spec {
	var specs []snapshot.Spec
	for _, sn := range scenes {
		for _, cn := range computes {
			for _, pol := range policies {
				specs = append(specs, core.SpecForPair(cfg, sn, cn, pol, opts))
			}
		}
	}
	return specs
}

// Frame renders (and caches) a scene at the given size and LoD setting.
func Frame(sceneName string, w, h int, lod bool) (*render.Result, error) {
	return frontend.Frame(sceneName, frameOpts(w, h, lod))
}

// MaterialKinds maps drawcall names to their material kind for a scene
// (used by the silicon stand-in's cost model).
func MaterialKinds(sceneName string) (map[string]render.MaterialKind, error) {
	f, err := scene.ByName(sceneName)
	if err != nil {
		return nil, err
	}
	kinds := make(map[string]render.MaterialKind, len(f.Draws))
	for _, d := range f.Draws {
		kinds[d.Name] = d.Mat.Kind
	}
	return kinds, nil
}

// runKey is what Run memoizes a result under: the job digest, which
// keys the configuration by content rather than by name (a tweaked config
// that keeps its preset's name is a different simulation), plus the two
// observability cadences the digest leaves out, so a run asked for a
// metrics series is never answered with one that has none.
type runKey struct {
	digest                       string
	metricsInterval, digestEvery int64
}

func keyOf(spec snapshot.Spec) runKey {
	return runKey{spec.JobDigest(), spec.MetricsInterval, spec.DigestEvery}
}

// memo holds every simulation this process has finished (runKey →
// *core.Result). Figures rely on it: Figs. 11 and 15 read runs that
// Figs. 6 and 14 already made.
var memo sync.Map

// Run simulates specs and returns their results in spec order. It is the
// only route from a figure to the simulator. A spec this process already
// ran, or one repeated in specs, is answered from the memo; the rest run
// concurrently over the shared frontend, each an independent replay, so
// the results are the ones a serial loop would get. On failure Run returns
// the first failing spec's error, naming its workloads and policy; only
// successes are memoized.
func Run(specs []snapshot.Spec) ([]*core.Result, error) {
	runOpts := []core.RunOption{core.WithFrontend(frontend)}
	if NoSkip {
		runOpts = append(runOpts, core.WithNoSkip())
	}
	var firstErr error
	o := fanout.New(func(commit func()) { commit() })
	defer o.Close()
	started := map[runKey]bool{}
	for _, spec := range specs {
		k := keyOf(spec)
		if _, done := memo.Load(k); done || started[k] {
			continue
		}
		if firstErr != nil {
			break
		}
		started[k] = true
		o.Go(func() func() {
			res, err := core.RunSpec(context.Background(), spec, nil, runOpts...)
			return func() {
				if err == nil {
					memo.Store(k, res)
				} else if firstErr == nil {
					firstErr = fmt.Errorf("%s under %s: %w", specName(spec), spec.Policy, err)
				}
			}
		})
	}
	o.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([]*core.Result, len(specs))
	for i, spec := range specs {
		res, _ := memo.Load(keyOf(spec))
		out[i] = res.(*core.Result)
	}
	return out, nil
}

// specName names a spec's workloads as the figures do: "SCENE+COMPUTE"
// for a pair, the mix's name for a mix.
func specName(spec snapshot.Spec) string {
	if len(spec.Mix) > 0 {
		var mix scenario.MixSpec
		_ = json.Unmarshal(spec.Mix, &mix) // SpecForMix wrote it; only the name is read
		return "mix " + mix.Name
	}
	return strings.Trim(spec.Scene+"+"+spec.Compute, "+")
}

// Table2 renders the simulation-configuration table (paper Table II).
func Table2() *stats.Table {
	orin := config.JetsonOrin()
	rtx := config.RTX3070()
	t := &stats.Table{Header: []string{"", orin.Name, rtx.Name}}
	row := func(label string, f func(g config.GPU) string) {
		t.AddRow(label, f(orin), f(rtx))
	}
	row("# SMs", func(g config.GPU) string { return fmt.Sprint(g.NumSMs) })
	row("# Registers / SM", func(g config.GPU) string { return fmt.Sprint(g.RegistersPerSM) })
	row("L1D + Shared / SM (KB)", func(g config.GPU) string { return fmt.Sprint((g.L1Size + g.SharedMemPerSM) >> 10) })
	row("Warps/SM, Schedulers/SM", func(g config.GPU) string {
		return fmt.Sprintf("%d, %d", g.MaxWarpsPerSM, g.SchedulersPerSM)
	})
	row("# Exec Units", func(g config.GPU) string {
		return fmt.Sprintf("%d FPs, %d SFUs, %d INTs, %d TENSORs", g.FPUnits, g.SFUUnits, g.INTUnits, g.TensorUnits)
	})
	row("L2 Cache (MB)", func(g config.GPU) string { return fmt.Sprint(g.L2Size >> 20) })
	row("Core Clock (MHz)", func(g config.GPU) string { return fmt.Sprint(g.CoreClockMHz) })
	row("Memory", func(g config.GPU) string { return fmt.Sprintf("%s, %.0fGB/s", g.MemTech, g.MemBandwidthGBps) })
	return t
}
