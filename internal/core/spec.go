package core

import (
	"context"
	"encoding/json"
	"fmt"

	"crisp/internal/config"
	"crisp/internal/render"
	"crisp/internal/robust"
	"crisp/internal/scenario"
	"crisp/internal/snapshot"
)

// This file is the one by-name description of a job. A snapshot.Spec —
// what a checkpoint carries and what JobDigest hashes — is made by
// SpecForPair or SpecForMix, turned into a Job by jobFromSpec, and run by
// RunSpec; RunPair, RunMix and Resume are callers of that one route.
// Traces are not part of it: rendering and workload generation are
// deterministic, so names plus options reproduce them exactly.

// SpecForPair describes a graphics/compute pair (either name may be "").
// Render options key the job only when it renders.
func SpecForPair(cfg config.GPU, sceneName, computeName string, policy PolicyKind, opts render.Options) snapshot.Spec {
	spec := snapshot.Spec{GPU: cfg, Scene: sceneName, Compute: computeName, Policy: string(policy), Complete: true}
	if sceneName != "" {
		spec.RenderOptions = optionsJSON(opts)
	}
	return spec
}

// optionsJSON is the form render options take in a spec and its digest.
func optionsJSON(opts render.Options) []byte {
	b, _ := json.Marshal(opts) // plain ints and bools: cannot fail
	return b
}

// SpecForMix describes an N-tenant mix: validated, normalized, and carried
// as its canonical JSON. opts applies to every render tenant and keys the
// job only when one exists.
func SpecForMix(cfg config.GPU, mix scenario.MixSpec, policy PolicyKind, opts render.Options) (snapshot.Spec, error) {
	if err := mix.Validate(); err != nil {
		return snapshot.Spec{}, err
	}
	mix.Tenants = append([]scenario.Tenant(nil), mix.Tenants...)
	mix.Normalize()
	mixJSON, err := json.Marshal(&mix)
	if err != nil {
		return snapshot.Spec{}, fmt.Errorf("core: marshaling mix spec: %w", err)
	}
	spec := snapshot.Spec{GPU: cfg, Policy: string(policy), Mix: mixJSON, Complete: true}
	for _, t := range mix.Tenants {
		if t.Scene != "" {
			spec.RenderOptions = optionsJSON(opts)
			break
		}
	}
	return spec, nil
}

// buildSpec is the spec a checkpoint of this job carries: the by-name half
// the job was built from (empty, so not Complete, for a job assembled from
// in-memory traces — it still checkpoints, for postmortems, but cannot
// resume) under the configuration, policy and run shape it has now.
func (j *Job) buildSpec() snapshot.Spec {
	spec := j.spec
	spec.GPU = j.GPU
	spec.Policy = string(j.Policy)
	spec.GraphicsWindow = j.GraphicsWindow
	spec.GraphicsFrames = j.GraphicsFrames
	spec.LRRScheduler = j.LRRScheduler
	spec.MetricsInterval = j.MetricsInterval
	spec.DigestEvery = j.DigestEvery
	return spec
}

// jobFromSpec is the one builder: the configuration, policy and run shape
// from the spec, its workloads materialized by name through env. Errors
// are the catalogs' own; the resume entry points wrap them (resumeErr).
func jobFromSpec(spec snapshot.Spec, env MixEnv) (*Job, error) {
	if !spec.Complete {
		return nil, fmt.Errorf("core: spec does not fully describe its job (unnamed or in-memory workloads)")
	}
	if !KnownPolicy(PolicyKind(spec.Policy)) {
		return nil, fmt.Errorf("core: unknown policy %q (have %v)", spec.Policy, PolicyKinds())
	}
	opts := render.DefaultOptions()
	if len(spec.RenderOptions) > 0 {
		if err := json.Unmarshal(spec.RenderOptions, &opts); err != nil {
			return nil, fmt.Errorf("core: unreadable render options: %w", err)
		}
	}
	if env.Render == nil {
		env.Render = RenderScene
	}
	if env.Compute == nil {
		env.Compute = (*Frontend)(nil).Compute
	}
	j := &Job{
		GPU:             spec.GPU,
		Policy:          PolicyKind(spec.Policy),
		GraphicsWindow:  spec.GraphicsWindow,
		GraphicsFrames:  spec.GraphicsFrames,
		LRRScheduler:    spec.LRRScheduler,
		MetricsInterval: spec.MetricsInterval,
		DigestEvery:     spec.DigestEvery,
		spec:            spec,
	}
	var err error
	if len(spec.Mix) > 0 {
		j.Tenants, err = lowerMix(spec.Mix, opts, env)
	} else {
		if spec.Scene != "" {
			j.Graphics, err = env.Render(spec.Scene, opts)
		}
		if err == nil && spec.Compute != "" {
			j.Compute, err = env.Compute(spec.Compute)
		}
	}
	if err != nil {
		return nil, err
	}
	return j, nil
}

// resumeErr types a failure to rebuild a snapshot's job as what a resume
// caller handles: a KindSnapshot SimError (nil stays nil).
func resumeErr(err error) error {
	if err == nil {
		return nil
	}
	return &robust.SimError{Kind: robust.KindSnapshot, Msg: "snapshot spec cannot be rebuilt for resume", Err: err}
}

// sameJob refuses a restore point some other job wrote: state restored
// into different workloads, configuration or policy runs to completion and
// reports numbers that belong to neither job. env == nil is a fresh run.
func sameJob(spec snapshot.Spec, env *snapshot.Envelope) error {
	if env == nil {
		return nil
	}
	if want, got := spec.JobDigest(), env.Spec.JobDigest(); got != want {
		return &robust.SimError{Kind: robust.KindSnapshot, Cycle: env.State.Arch.Cycle,
			Msg: fmt.Sprintf("snapshot belongs to job %s, not to job %s", got, want)}
	}
	return nil
}

// RunSpec is the one by-name entry point: build the job spec describes,
// apply runOpts, and run it — from cycle 0 when restore is nil, otherwise
// from restore's state, which must be a snapshot of the same job (equal
// JobDigest; a KindSnapshot error before anything is built if not).
func RunSpec(ctx context.Context, spec snapshot.Spec, restore *snapshot.Envelope, runOpts ...RunOption) (*Result, error) {
	if err := sameJob(spec, restore); err != nil {
		return nil, err
	}
	j, err := jobFromSpec(spec, frontendOf(runOpts).MixEnv())
	if err != nil {
		if restore != nil {
			err = resumeErr(err)
		}
		return nil, err
	}
	for _, o := range runOpts {
		o(j)
	}
	j.Restore = restore
	return j.RunContext(ctx)
}
