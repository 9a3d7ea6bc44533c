package experiments

import (
	"fmt"

	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/scenario"
	"crisp/internal/snapshot"
	"crisp/internal/stats"
)

// QoSResult is the quality-of-service case study the paper's future work
// points toward: "XR workloads have distinct quality-of-service
// requirements, which must be considered in the system design as well."
// The rendering task has a frame deadline (motion-to-photon budget); the
// study measures when the frame finishes — not just aggregate throughput —
// under each sharing policy. The accounting runs on the scenario engine
// (Result.QoS of a mix run), the single source of truth for deadline
// bookkeeping.
type QoSResult struct {
	Table *stats.Table
	// FrameDone maps policy → cycle at which the frame completed (the
	// render tenant's last-done cycle).
	FrameDone map[core.PolicyKind]int64
	// Makespan maps policy → total cycles (all tenants done).
	Makespan map[core.PolicyKind]int64
	// DeadlinesMet maps policy → whether the frame met its deadline (set
	// at 2× the isolated frame time, i.e. 100% sharing slack).
	DeadlinesMet map[core.PolicyKind]bool
	// Slowdown maps policy → tenant name → shared/isolated turnaround —
	// the per-tenant interference cost of sharing.
	Slowdown map[core.PolicyKind]map[string]float64
}

// CaseStudyQoS co-runs PT (the frame) with VIO (the tracking service) on
// the Orin and compares frame-ready time, deadline outcome, and per-tenant
// slowdown versus isolated execution across MPS, EVEN, and Priority.
func CaseStudyQoS(sc Scale) (*QoSResult, error) {
	cfg := config.JetsonOrin()
	opts := frameOpts(sc.W2K, sc.H2K, true)
	tenants := []scenario.Tenant{
		{Name: "PT", Scene: "PT", Priority: 1},
		{Name: "VIO", Compute: "VIO"},
	}

	// Isolated baselines: each tenant alone on the whole GPU. Their
	// turnarounds anchor the slowdown metric, and the isolated frame time
	// sets the deadline at 2× (a 100% sharing budget).
	var specs []snapshot.Spec
	for _, tn := range tenants {
		spec, err := core.SpecForMix(cfg, scenario.MixSpec{Name: "isolated-" + tn.Name,
			Tenants: []scenario.Tenant{tn}}, core.PolicySerial, opts)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	results, err := Run(specs)
	if err != nil {
		return nil, err
	}
	isolated := make(map[string]int64, len(tenants))
	for i, tn := range tenants {
		tr := results[i].QoS.Tenants[0]
		isolated[tn.Name] = tr.LastDone - tr.FirstArrival
	}
	tenants[0].Deadline = 2 * isolated["PT"]

	policies := []core.PolicyKind{core.PolicyMPS, core.PolicyEven, core.PolicyPriority}
	out := &QoSResult{
		Table:        &stats.Table{Header: []string{"policy", "frame-ready", "deadline", "makespan", "slowdown-PT", "slowdown-VIO"}},
		FrameDone:    map[core.PolicyKind]int64{},
		Makespan:     map[core.PolicyKind]int64{},
		DeadlinesMet: map[core.PolicyKind]bool{},
		Slowdown:     map[core.PolicyKind]map[string]float64{},
	}
	specs = nil
	for _, pol := range policies {
		spec, err := core.SpecForMix(cfg, scenario.MixSpec{Name: "qos-case-study", Tenants: tenants}, pol, opts)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if results, err = Run(specs); err != nil {
		return nil, err
	}
	for i, pol := range policies {
		res := results[i]
		slow := make(map[string]float64, len(res.QoS.Tenants))
		for _, tr := range res.QoS.Tenants {
			if iso := isolated[tr.Name]; iso > 0 {
				slow[tr.Name] = float64(tr.LastDone-tr.FirstArrival) / float64(iso)
			}
		}
		frame := res.QoS.Tenants[0]
		out.FrameDone[pol] = frame.LastDone
		out.Makespan[pol] = res.Cycles
		out.DeadlinesMet[pol] = frame.DeadlinesMissed == 0
		out.Slowdown[pol] = slow
		verdict := "met"
		if frame.DeadlinesMissed > 0 {
			verdict = "MISS"
		}
		out.Table.AddRow(string(pol), fmt.Sprint(frame.LastDone), verdict,
			fmt.Sprint(res.Cycles),
			fmt.Sprintf("%.2f", slow["PT"]), fmt.Sprintf("%.2f", slow["VIO"]))
	}
	return out, nil
}
