package service

import (
	"encoding/json"
	"fmt"
	"slices"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/core"
	"crisp/internal/render"
	"crisp/internal/scenario"
	"crisp/internal/scene"
	"crisp/internal/snapshot"
)

// JobSpec is the submission body of POST /v1/jobs: a simulation described
// entirely by value — workload names, a named or inline GPU configuration,
// a policy, and render/run options — so the service can rebuild, digest,
// and deduplicate it without any client-held state.
type JobSpec struct {
	// GPU names a built-in configuration ("JetsonOrin", "RTX3070");
	// empty defaults to JetsonOrin. Ignored when Config is set.
	GPU string `json:"gpu,omitempty"`
	// Config is an inline JSON GPU configuration with the same semantics
	// as a -config file: any subset of fields overriding a "base" config.
	Config json.RawMessage `json:"config,omitempty"`
	// Scene and Compute name the workloads (either may be empty, not both).
	Scene   string `json:"scene,omitempty"`
	Compute string `json:"compute,omitempty"`
	// Scenario names an N-tenant mix preset (scenario.PresetNames); Mix is
	// an inline scenario.MixSpec JSON document. At most one may be set, and
	// a scenario job carries no Scene/Compute — the mix names its own
	// workloads. Width/Height/LoD still apply, to every render tenant.
	Scenario string          `json:"scenario,omitempty"`
	Mix      json.RawMessage `json:"mix,omitempty"`
	// Policy is the partitioning policy; empty = serial.
	Policy string `json:"policy,omitempty"`
	// Width/Height override the render resolution (0 = default).
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// LoD toggles mipmap LoD; nil = default (on).
	LoD *bool `json:"lod,omitempty"`
	// CycleBudget caps the run in simulated cycles (0 = the server's
	// default budget). Budgets bound runaway jobs; they do not key the
	// result cache, because only successful runs are cached and a
	// successful run is budget-independent.
	CycleBudget int64 `json:"cycle_budget,omitempty"`
	// WatchdogWindow overrides the forward-progress watchdog (0 = server
	// default, negative = off).
	WatchdogWindow int64 `json:"watchdog_window,omitempty"`
}

// resolved is a JobSpec after name resolution and validation: the one
// description the attempt runs (core.RunSpec) and its JobDigest — the cache
// key, and the spec_digest in the header of every snapshot the run writes —
// plus the two per-job limits that key nothing.
type resolved struct {
	spec     snapshot.Spec
	digest   string
	budget   int64
	watchdog int64
}

// resolve validates the spec and computes its canonical content digest.
// All errors are client errors (HTTP 400): the server's own failures
// surface later, from the run itself.
func (s *JobSpec) resolve() (*resolved, error) {
	var cfg config.GPU
	var err error
	switch {
	case len(s.Config) > 0:
		cfg, err = config.Parse(s.Config)
	case s.GPU != "":
		cfg, err = config.ByName(s.GPU)
	default:
		cfg = config.JetsonOrin()
	}
	if err != nil {
		return nil, err
	}

	// Normalize the empty policy to its canonical name so "" and "serial"
	// submissions share one digest.
	policy := core.PolicyKind(s.Policy)
	if policy == "" {
		policy = core.PolicySerial
	}
	if !core.KnownPolicy(policy) {
		return nil, fmt.Errorf("unknown policy %q (have %v)", s.Policy, core.PolicyKinds())
	}

	if s.Width < 0 || s.Height < 0 {
		return nil, fmt.Errorf("negative render resolution %dx%d", s.Width, s.Height)
	}
	opts := render.DefaultOptions()
	if s.Width > 0 {
		opts.W = s.Width
	}
	if s.Height > 0 {
		opts.H = s.Height
	}
	if s.LoD != nil {
		opts.LoD = *s.LoD
	}

	r := &resolved{budget: s.CycleBudget, watchdog: s.WatchdogWindow}
	switch {
	case s.Scenario != "" || len(s.Mix) > 0:
		if s.Scenario != "" && len(s.Mix) > 0 {
			return nil, fmt.Errorf("scenario and mix are mutually exclusive (a preset name or an inline spec, not both)")
		}
		if s.Scene != "" || s.Compute != "" {
			return nil, fmt.Errorf("a scenario job names its workloads inside the mix; scene/compute must be empty")
		}
		var mix scenario.MixSpec
		if s.Scenario != "" {
			mix, err = scenario.Preset(s.Scenario)
		} else if err = json.Unmarshal(s.Mix, &mix); err != nil {
			err = fmt.Errorf("parsing inline mix: %w", err)
		}
		if err != nil {
			return nil, err
		}
		if r.spec, err = core.SpecForMix(cfg, mix, policy, opts); err != nil {
			return nil, err
		}
	case s.Scene == "" && s.Compute == "":
		return nil, fmt.Errorf("job needs a scene and/or a compute workload (or a scenario)")
	default:
		if s.Scene != "" && !slices.Contains(scene.Names(), s.Scene) {
			return nil, fmt.Errorf("unknown scene %q (have %v)", s.Scene, scene.Names())
		}
		if s.Compute != "" && !slices.Contains(compute.Names(), s.Compute) {
			return nil, fmt.Errorf("unknown compute workload %q (have %v)", s.Compute, compute.Names())
		}
		r.spec = core.SpecForPair(cfg, s.Scene, s.Compute, policy, opts)
	}
	r.digest = r.spec.JobDigest()
	return r, nil
}
