package service

import (
	"encoding/json"
	"fmt"

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

// resolved is a JobSpec after name resolution and validation: everything
// an attempt needs, plus the job's content digest.
type resolved struct {
	cfg     config.GPU
	scene   string
	compute string
	policy  core.PolicyKind
	opts    render.Options
	budget  int64
	wdog    int64
	digest  string
	// mix/mixJSON are set for scenario jobs: the validated, normalized
	// MixSpec and its canonical JSON — the exact bytes core.BuildMixJob
	// embeds in snapshot specs, so cache key == snapshot header digest.
	mix     scenario.MixSpec
	mixJSON []byte
}

// isMix reports whether this job is an N-tenant scenario rather than a
// pair.
func (r *resolved) isMix() bool { return len(r.mixJSON) > 0 }

// mixHasRender reports whether any mix tenant renders (RenderOptions only
// key the digest when they affect the run).
func (r *resolved) mixHasRender() bool {
	for _, t := range r.mix.Tenants {
		if t.Scene != "" {
			return true
		}
	}
	return false
}

// resolve validates the spec and computes its canonical content digest.
// All errors are client errors (HTTP 400): the server's own failures
// surface later, from the run itself.
func (s *JobSpec) resolve() (*resolved, error) {
	r := &resolved{scene: s.Scene, compute: s.Compute, budget: s.CycleBudget, wdog: s.WatchdogWindow}

	var err error
	switch {
	case len(s.Config) > 0:
		r.cfg, err = config.Parse(s.Config)
	case s.GPU != "":
		r.cfg, err = config.ByName(s.GPU)
	default:
		r.cfg = config.JetsonOrin()
	}
	if err != nil {
		return nil, err
	}

	switch {
	case s.Scenario != "" || len(s.Mix) > 0:
		if s.Scenario != "" && len(s.Mix) > 0 {
			return nil, fmt.Errorf("scenario and mix are mutually exclusive (a preset name or an inline spec, not both)")
		}
		if s.Scene != "" || s.Compute != "" {
			return nil, fmt.Errorf("a scenario job names its workloads inside the mix; scene/compute must be empty")
		}
		if s.Scenario != "" {
			r.mix, err = scenario.Preset(s.Scenario)
			if err != nil {
				return nil, err
			}
		} else {
			if err := json.Unmarshal(s.Mix, &r.mix); err != nil {
				return nil, fmt.Errorf("parsing inline mix: %w", err)
			}
			if err := r.mix.Validate(); err != nil {
				return nil, err
			}
			r.mix.Normalize()
		}
		// Canonical bytes: presets come back normalized, inline mixes were
		// normalized above, so this marshal matches core.BuildMixJob's.
		r.mixJSON, err = json.Marshal(&r.mix)
		if err != nil {
			return nil, fmt.Errorf("canonicalizing mix: %w", err)
		}
	case s.Scene == "" && s.Compute == "":
		return nil, fmt.Errorf("job needs a scene and/or a compute workload (or a scenario)")
	default:
		if s.Scene != "" && !contains(scene.Names(), s.Scene) {
			return nil, fmt.Errorf("unknown scene %q (have %v)", s.Scene, scene.Names())
		}
		if s.Compute != "" && !contains(compute.Names(), s.Compute) {
			return nil, fmt.Errorf("unknown compute workload %q (have %v)", s.Compute, compute.Names())
		}
	}

	// Normalize the empty policy to its canonical name so "" and "serial"
	// submissions share one digest.
	r.policy = core.PolicyKind(s.Policy)
	if r.policy == "" {
		r.policy = core.PolicySerial
	}
	if !core.KnownPolicy(r.policy) {
		return nil, fmt.Errorf("unknown policy %q (have %v)", s.Policy, core.PolicyKinds())
	}

	r.opts = render.DefaultOptions()
	if s.Width > 0 {
		r.opts.W = s.Width
	}
	if s.Height > 0 {
		r.opts.H = s.Height
	}
	if s.LoD != nil {
		r.opts.LoD = *s.LoD
	}
	if s.Width < 0 || s.Height < 0 {
		return nil, fmt.Errorf("negative render resolution %dx%d", s.Width, s.Height)
	}

	spec := r.snapshotSpec()
	r.digest = spec.JobDigest()
	return r, nil
}

// snapshotSpec mirrors core's checkpoint spec construction for this job,
// so the service's cache key and the header digest of any snapshot the
// run writes are the same value (snapshot.Spec.JobDigest).
func (r *resolved) snapshotSpec() snapshot.Spec {
	spec := snapshot.Spec{
		GPU:     r.cfg,
		Scene:   r.scene,
		Compute: r.compute,
		Policy:  string(r.policy),
	}
	if r.isMix() {
		spec.Mix = r.mixJSON
		if r.mixHasRender() {
			if b, err := json.Marshal(r.opts); err == nil {
				spec.RenderOptions = b
			}
		}
		return spec
	}
	if r.scene != "" {
		if b, err := json.Marshal(r.opts); err == nil {
			spec.RenderOptions = b
		}
	}
	return spec
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}
