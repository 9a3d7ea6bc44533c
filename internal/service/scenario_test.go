package service

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// scenarioSpec is a fast scenario job: an inline two-tenant compute mix
// (no rendering), so the test costs two short compute runs.
func scenarioSpec(policy string) JobSpec {
	mix := json.RawMessage(`{"name":"svc-mix","tenants":[
		{"compute":"VIO","deadline":4000000},
		{"compute":"NN","arrival":{"kind":"offset","offset":20000}}]}`)
	return JobSpec{Mix: mix, Policy: policy}
}

// TestScenarioJobEndToEnd submits an inline-mix job, asserts the cached
// result is bit-identical to a direct crisp.RunMix of the resolved spec,
// carries the QoS summary, and that a resubmission is an instant cache hit.
func TestScenarioJobEndToEnd(t *testing.T) {
	spec := scenarioSpec("EVEN")

	s, err := New(Config{Workers: 1, ProgressInterval: 512})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	job, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateDone, 2*time.Minute)

	r, err := spec.resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	sr, ok := s.Result(r.digest)
	if !ok {
		t.Fatalf("no cached result for digest %s", r.digest)
	}
	if sr.Scenario != "svc-mix" {
		t.Errorf("stored scenario = %q, want svc-mix", sr.Scenario)
	}
	if sr.Tenants != 2 {
		t.Errorf("stored tenants = %d, want 2", sr.Tenants)
	}
	if sr.DeadlinesMet+sr.DeadlinesMissed != 1 {
		t.Errorf("deadline outcomes met=%d missed=%d, want exactly 1 total",
			sr.DeadlinesMet, sr.DeadlinesMissed)
	}

	direct := directRun(t, spec)
	dd, err := direct.StatsDigest()
	if err != nil {
		t.Fatalf("StatsDigest: %v", err)
	}
	if sr.Cycles != direct.Cycles {
		t.Errorf("service cycles %d != direct %d", sr.Cycles, direct.Cycles)
	}
	if want := fmt.Sprintf("%016x", dd); sr.StatsDigest != want {
		t.Errorf("service stats digest %s != direct %s", sr.StatsDigest, want)
	}

	// Resubmission: instant cache hit, no second execution.
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	again.mu.Lock()
	state, hit := again.state, again.cacheHit
	again.mu.Unlock()
	if state != StateDone || !hit {
		t.Errorf("resubmission: state=%s cacheHit=%v, want done cache hit", state, hit)
	}
}

// TestScenarioSpecValidation pins the admission rules: preset and inline
// mix are mutually exclusive, a scenario job carries no scene/compute, bad
// mixes and unknown presets are client errors, and a preset resolved by
// name digests identically to the same mix submitted inline (one cache
// entry, however the client phrased it).
func TestScenarioSpecValidation(t *testing.T) {
	bad := []JobSpec{
		{Scenario: "n-way-fair", Mix: json.RawMessage(`{"tenants":[{"compute":"VIO"}]}`)},
		{Scenario: "n-way-fair", Scene: "SPL"},
		{Scenario: "n-way-fair", Compute: "VIO"},
		{Scenario: "no-such-preset"},
		{Mix: json.RawMessage(`{"tenants":[]}`)},
		{Mix: json.RawMessage(`not json`)},
		{Mix: json.RawMessage(`{"tenants":[{"compute":"nope"}]}`)},
	}
	for i, spec := range bad {
		if _, err := spec.resolve(); err == nil {
			t.Errorf("case %d: invalid scenario spec accepted", i)
		}
	}

	presetSpec := JobSpec{Scenario: "n-way-fair", Policy: "MPS"}
	byName, err := presetSpec.resolve()
	if err != nil {
		t.Fatalf("preset resolve: %v", err)
	}
	inlineSpec := JobSpec{Mix: json.RawMessage(byName.spec.Mix), Policy: "MPS"}
	inline, err := inlineSpec.resolve()
	if err != nil {
		t.Fatalf("inline resolve: %v", err)
	}
	if byName.digest != inline.digest {
		t.Errorf("preset digest %s != inline digest %s", byName.digest, inline.digest)
	}
	pairSpec := tinySpec("SPL", "VIO", "MPS")
	pair, err := pairSpec.resolve()
	if err != nil {
		t.Fatalf("pair resolve: %v", err)
	}
	if pair.digest == byName.digest {
		t.Error("pair and scenario digests collide")
	}
}

// TestSweepScenarioGrid runs a sweep mixing a pair cell with a scenario ×
// policy grid, asserts every task commits with the single-node stats
// digest, and that resubmitting the sweep is answered entirely from the
// cache with an identical merged digest — the scenario-determinism
// observable crispd's CI smoke leans on.
func TestSweepScenarioGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep round trip is not short")
	}
	spec := SweepSpec{
		Computes:  []string{"VIO"},
		Scenarios: []string{"n-way-fair"},
		Policies:  []string{"EVEN", "MPS"},
	}
	specs, err := spec.decompose()
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	// 1 compute × 2 policies pair cells + 1 scenario × 2 policies.
	if len(specs) != 4 {
		t.Fatalf("decomposed into %d tasks, want 4", len(specs))
	}
	scenarios := 0
	for _, js := range specs {
		if js.Scenario != "" {
			scenarios++
		}
	}
	if scenarios != 2 {
		t.Fatalf("%d scenario tasks, want 2", scenarios)
	}
	want := expectedMergedDigest(t, spec)

	s, err := New(Config{Workers: 1, FleetWorkers: 2, ProgressInterval: 512})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	sw, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	v := waitSweep(t, s, sw.ID, StateDone, 4*time.Minute)
	if v.MergedDigest != want {
		t.Fatalf("sweep merged digest %s != single-node %s", v.MergedDigest, want)
	}

	// Resubmission: all cache hits, same merged digest.
	sw2, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	v2 := waitSweep(t, s, sw2.ID, StateDone, time.Minute)
	if v2.MergedDigest != want {
		t.Fatalf("resubmitted merged digest %s != %s", v2.MergedDigest, want)
	}
	for _, tv := range v2.Tasks {
		if !tv.Cached {
			t.Fatalf("task %d (%s/%s) re-executed instead of hitting the cache",
				tv.Index, tv.Spec.Scenario, tv.Spec.Policy)
		}
	}
}
