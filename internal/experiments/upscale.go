package experiments

import (
	"strconv"

	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/stats"
)

// UpscaleResult is the async-compute case study the paper's background
// motivates: the scene renders at low resolution and a DLSS-analog
// tensor-core network upscales it. "DLSS uses tensor cores extensively,
// and fragment shaders use floating-point units. This makes DLSS
// post-processing and the rendering pipeline suitable for async compute
// to maximize system throughput."
type UpscaleResult struct {
	Table *stats.Table
	// Norm maps policy → performance normalized to MPS.
	Norm map[core.PolicyKind]float64
}

// CaseStudyAsyncUpscale runs low-res rendering + UPSCALE under MPS and
// EVEN on the RTX 3070 (frame N's upscale overlaps frame N+1's render,
// so the pair co-runs in steady state).
func CaseStudyAsyncUpscale(sc Scale) (*UpscaleResult, error) {
	cfg := config.RTX3070()
	policies := []core.PolicyKind{core.PolicyMPS, core.PolicyEven, core.PolicyPriority}
	out := &UpscaleResult{
		Table: &stats.Table{Header: []string{"policy", "cycles", "vs MPS"}},
		Norm:  map[core.PolicyKind]float64{},
	}
	results, err := Run(grid(cfg, []string{"SPL"}, []string{"UPSCALE"}, policies, frameOpts(sc.W2K, sc.H2K, true)))
	if err != nil {
		return nil, err
	}
	base := results[0].Cycles // MPS
	for i, pol := range policies {
		n := float64(base) / float64(results[i].Cycles)
		out.Norm[pol] = n
		out.Table.AddRow(string(pol), strconv.FormatInt(results[i].Cycles, 10), stats.F(n))
	}
	return out, nil
}
