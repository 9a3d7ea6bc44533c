package core

import (
	"context"
	"path/filepath"
	"testing"

	"crisp/internal/config"
	"crisp/internal/robust"
	"crisp/internal/scenario"
	"crisp/internal/snapshot"
)

// pairMix is the two-tenant mix describing RunPair(scene, comp): one
// render tenant and one compute tenant, immediate arrivals, no deadlines,
// no priorities.
func pairMix(scene, comp string) scenario.MixSpec {
	return scenario.MixSpec{Name: "pair", Tenants: []scenario.Tenant{
		{Scene: scene},
		{Compute: comp},
	}}
}

// TestRunMixPairParity is the scenario engine's anchor acceptance: a
// two-tenant mix with immediate arrivals and no deadlines reproduces
// RunPair bit-identically (same cycle count, same stats digest) for every
// policy. Both sides put their streams on the GPU through addTenant, so
// what it proves is that what a mix installs on top — the QoS table and
// all-zero declared priorities — leaves the simulation unmoved. It proves
// nothing about the policies: both sides run two tasks through the same
// BuildPolicy (TestPolicyDigestsPinned is the guard there).
func TestRunMixPairParity(t *testing.T) {
	cfg := config.JetsonOrin()
	for _, pol := range PolicyKinds() {
		pair, err := RunPair(cfg, "SPL", "VIO", pol, tinyOpts())
		if err != nil {
			t.Fatalf("%s pair: %v", pol, err)
		}
		mix, err := RunMix(cfg, pairMix("SPL", "VIO"), pol, tinyOpts())
		if err != nil {
			t.Fatalf("%s mix: %v", pol, err)
		}
		if pair.Cycles != mix.Cycles {
			t.Errorf("%s: cycles diverge: pair %d, mix %d", pol, pair.Cycles, mix.Cycles)
		}
		if dp, dm := statsDigestOf(t, pair), statsDigestOf(t, mix); dp != dm {
			t.Errorf("%s: stats digests diverge: pair %016x, mix %016x", pol, dp, dm)
		}
		if mix.QoS == nil || len(mix.QoS.Tenants) != 2 {
			t.Fatalf("%s: mix run missing QoS report", pol)
		}
		for _, tr := range mix.QoS.Tenants {
			if tr.Completed != tr.Instances {
				t.Errorf("%s: tenant %s completed %d/%d instances", pol, tr.Name, tr.Completed, tr.Instances)
			}
		}
	}
}

// TestMixNWayDeterminism runs the 4-tenant n-way-fair preset under
// representative policies in both skip modes, asserting full-trajectory
// identity (stats digest plus the auditor's state-digest stream) — the
// N-way analog of the pair parity suite.
func TestMixNWayDeterminism(t *testing.T) {
	cfg := config.JetsonOrin()
	mix, err := scenario.Preset("n-way-fair")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []PolicyKind{PolicyMPS, PolicyEven, PolicyMiG, PolicyTAP, PolicyPriority} {
		ref, err := RunMix(cfg, mix, pol, tinyOpts(), WithStateDigest(10_000))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		noskip, err := RunMix(cfg, mix, pol, tinyOpts(), WithNoSkip(), WithStateDigest(10_000))
		if err != nil {
			t.Fatalf("%s -no-skip: %v", pol, err)
		}
		expectIdentical(t, ref, noskip, string(pol)+" no-skip")
	}
}

// TestMixArrivalsGateWork pins arrival semantics: a tenant with a large
// fixed offset contributes no completed instances before its arrival, and
// the run's QoS report places its first completion after the offset.
func TestMixArrivalsGateWork(t *testing.T) {
	cfg := config.JetsonOrin()
	const offset = 50_000
	mix := scenario.MixSpec{Name: "gated", Tenants: []scenario.Tenant{
		{Compute: "VIO"},
		{Compute: "NN", Arrival: scenario.Arrival{Kind: scenario.ArriveOffset, Offset: offset}},
	}}
	res, err := RunMix(cfg, mix, PolicyEven, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	nn := res.QoS.Tenants[1]
	if nn.Completed != 1 {
		t.Fatalf("NN completed %d instances, want 1", nn.Completed)
	}
	if nn.LastDone <= offset {
		t.Errorf("NN completed at cycle %d, before its arrival offset %d", nn.LastDone, offset)
	}
	if nn.FirstArrival != offset {
		t.Errorf("NN first arrival %d, want %d", nn.FirstArrival, offset)
	}
}

// TestMixCheckpointResume kills a 3-tenant mix mid-run — before the
// offset tenant has arrived — resumes it from the final snapshot in a
// job rebuilt purely from the snapshot spec, and asserts the resumed
// trajectory is bit-identical to the uninterrupted run.
func TestMixCheckpointResume(t *testing.T) {
	cfg := config.JetsonOrin()
	mix := scenario.MixSpec{Name: "resume-mix", Tenants: []scenario.Tenant{
		{Compute: "VIO", Deadline: 4_000_000},
		{Compute: "NN", Priority: 2},
		{Compute: "UPSCALE", Arrival: scenario.Arrival{Kind: scenario.ArriveOffset, Offset: 120_000}},
	}}
	pol := PolicyMPS

	full, err := RunMix(cfg, mix, pol, tinyOpts(), WithStateDigest(5_000))
	if err != nil {
		t.Fatal(err)
	}
	if full.Cycles <= 120_000 {
		t.Fatalf("mix finished in %d cycles; too short to cut before the offset tenant arrives", full.Cycles)
	}

	dir := t.TempDir()
	budget := int64(60_000) // well before UPSCALE's 120k arrival
	_, err = RunMix(cfg, mix, pol, tinyOpts(),
		WithCycleBudget(budget), WithCheckpointDir(dir), WithStateDigest(5_000))
	if se, ok := robust.AsSimError(err); !ok || robust.DeepestKind(se) != robust.KindBudget {
		t.Fatalf("budget kill: got %v", err)
	}

	env, err := LoadSnapshot(filepath.Join(dir, "final.crispsnap"))
	if err != nil {
		t.Fatal(err)
	}
	if !env.Spec.Complete || len(env.Spec.Mix) == 0 {
		t.Fatalf("mix snapshot spec incomplete: complete=%v mix=%dB", env.Spec.Complete, len(env.Spec.Mix))
	}
	resumed, err := ResumeContext(context.Background(), env, WithStateDigest(5_000))
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || resumed.ResumedFrom == 0 {
		t.Fatalf("resume metadata missing: %+v", resumed.Resumed)
	}
	if resumed.Cycles != full.Cycles {
		t.Errorf("cycles diverge: full %d, resumed %d", full.Cycles, resumed.Cycles)
	}
	if df, dr := statsDigestOf(t, full), statsDigestOf(t, resumed); df != dr {
		t.Errorf("stats digests diverge: full %016x, resumed %016x", df, dr)
	}
	if c, diverged := snapshot.FirstDivergence(full.Digests, resumed.Digests); diverged {
		t.Errorf("state digests first diverge at cycle %d", c)
	}
	// The offset tenant arrived and completed only after the resume point.
	up := resumed.QoS.Tenants[2]
	if up.Completed != 1 || up.LastDone <= resumed.ResumedFrom {
		t.Errorf("offset tenant: completed=%d lastDone=%d resumedFrom=%d", up.Completed, up.LastDone, resumed.ResumedFrom)
	}
}

// TestMixJobDigestStability pins cache-key behavior: the same mix digests
// identically across builds, a different mix digests differently, and a
// pair job's digest is untouched by the Mix field's existence.
func TestMixJobDigestStability(t *testing.T) {
	cfg := config.JetsonOrin()
	s1, err := SpecForMix(cfg, pairMix("SPL", "VIO"), PolicyMPS, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := BuildMixJobEnv(cfg, pairMix("SPL", "VIO"), PolicyMPS, tinyOpts(), MixEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if s2 := j2.buildSpec(); s1.JobDigest() != s2.JobDigest() {
		t.Error("a mix's spec and the job built from it produced different job digests")
	}
	s3, err := SpecForMix(cfg, pairMix("SPL", "NN"), PolicyMPS, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if s3.JobDigest() == s1.JobDigest() {
		t.Error("different mixes produced the same job digest")
	}
	ps := SpecForPair(cfg, "SPL", "VIO", PolicyMPS, tinyOpts())
	if len(ps.Mix) != 0 {
		t.Error("pair spec unexpectedly carries a mix")
	}
	if ps.JobDigest() == s1.JobDigest() {
		t.Error("pair and mix digests collide")
	}
}
