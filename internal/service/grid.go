package service

// Grid is a sweep's decomposition: a policy × workload × config cross
// product expanded into concrete points in a deterministic order, so a
// sweep decomposed twice — or on two different coordinators — yields the
// same task list and therefore the same merged digest.
type Grid struct {
	// GPUs lists the GPU axis as opaque labels (decompose passes each
	// SweepSpec.GPUs element's JSON text); empty means one "" entry (the
	// default config).
	GPUs []string
	// Scenes and Computes list the render and compute workloads. An empty
	// list means one "" entry (axis absent); a "" element inside a
	// non-empty list is also allowed and means "no workload on this axis
	// for that point" (e.g. Computes: ["", "VIO"] sweeps render-only
	// against render+compute).
	Scenes   []string
	Computes []string
	// Policies lists partitioning policies; empty means one "" entry
	// (the serial default).
	Policies []string
	// Scenarios lists named scenario presets (scenario.PresetNames); each
	// entry crosses with GPUs and Policies to form N-tenant mix points,
	// appended after the pair points. Empty means no scenario points.
	Scenarios []string
}

// GridPoint is one concrete cell of the cross product. Either Scenario
// names an N-tenant mix (Scene/Compute empty), or Scene/Compute describe
// a pair.
type GridPoint struct {
	GPU      string
	Scene    string
	Compute  string
	Policy   string
	Scenario string
}

// Points expands the grid in GPU-major, scene, compute, policy-minor
// order, followed by the scenario × policy points for each GPU. Pair
// points with neither a scene nor a compute workload are skipped — they
// describe no simulation. The expansion is pure: no deduplication, no
// validation of the names themselves (callers resolve each point and
// reject unknown names there).
func (g Grid) Points() []GridPoint {
	axis := func(vals []string) []string {
		if len(vals) == 0 {
			return []string{""}
		}
		return vals
	}
	gpus, scenes := axis(g.GPUs), axis(g.Scenes)
	computes, policies := axis(g.Computes), axis(g.Policies)

	out := make([]GridPoint, 0, len(gpus)*(len(scenes)*len(computes)+len(g.Scenarios))*len(policies))
	for _, gpu := range gpus {
		for _, sc := range scenes {
			for _, comp := range computes {
				if sc == "" && comp == "" {
					continue
				}
				for _, pol := range policies {
					out = append(out, GridPoint{GPU: gpu, Scene: sc, Compute: comp, Policy: pol})
				}
			}
		}
		for _, scen := range g.Scenarios {
			if scen == "" {
				continue
			}
			for _, pol := range policies {
				out = append(out, GridPoint{GPU: gpu, Scenario: scen, Policy: pol})
			}
		}
	}
	return out
}
