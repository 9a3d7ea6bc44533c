package core

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/obs"
	"crisp/internal/robust"
	"crisp/internal/scenario"
)

// dispatchMix is built to move every input the event-driven CTA
// dispatcher watches: a render tenant behind a narrow batch window whose
// frames arrive periodically, a compute tenant arriving in seeded bursts,
// and a third that arrives long after the first two have drained (an idle
// machine jumping to an arrival), under explicit, non-uniform placement
// priorities and WarpedSlicer, whose Tick flips every SM between sampling
// and its steady split after each launch.
func dispatchMix() scenario.MixSpec {
	return scenario.MixSpec{Name: "dispatch-parity", Tenants: []scenario.Tenant{
		{Scene: "SPL", Priority: 1, Deadline: 400_000,
			Arrival: scenario.Arrival{Kind: scenario.ArrivePeriodic, Period: 30_000, Count: 3}},
		{Compute: "HOLO", Priority: 3, Deadline: 150_000,
			Arrival: scenario.Arrival{Kind: scenario.ArriveBursty, Offset: 5_000, Period: 20_000, Count: 4, Seed: 3}},
		{Compute: "VIO", Priority: 2,
			Arrival: scenario.Arrival{Kind: scenario.ArriveOffset, Offset: lateArrival}},
	}}
}

const lateArrival = 2_000_000

// TestDispatchParity runs dispatchMix under {skip, no-skip} × {straight,
// killed on an idle machine before the late arrival and resumed under
// either skip mode}: every run must agree with the no-skip oracle on the
// stats digest, the whole state-digest stream and the QoS table.
func TestDispatchParity(t *testing.T) {
	if testing.Short() {
		t.Skip("eight mix simulations")
	}
	cfg := config.JetsonOrin()
	mix := dispatchMix()
	const policy = PolicyWarpedSlicer
	narrowWindow := func(j *Job) { j.GraphicsWindow = 4 }
	opts := func(noSkip bool, more ...RunOption) []RunOption {
		o := append([]RunOption{WithStateDigest(5_000), narrowWindow}, more...)
		if noSkip {
			o = append(o, WithNoSkip())
		}
		return o
	}

	oracle, err := RunMix(cfg, mix, policy, tinyOpts(), opts(true)...)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.DispatchSkipped != 0 {
		t.Errorf("the oracle skipped %d dispatch sweeps", oracle.DispatchSkipped)
	}
	// The machine drains when the last kernel launched before the late
	// arrival completes; a budget of that cycle stops the run at the first
	// iteration boundary after it.
	var drained int64
	for _, k := range oracle.Kernels {
		if k.Launched < lateArrival && k.Done > drained {
			drained = k.Done
		}
	}
	if drained == 0 || drained >= lateArrival || oracle.Cycles <= lateArrival {
		t.Fatalf("no idle gap: early tenants drained at %d, late arrival %d, makespan %d", drained, lateArrival, oracle.Cycles)
	}
	if oracle.QoS == nil {
		t.Fatal("mix ran without QoS accounting")
	}

	same := func(label string, res *Result) {
		t.Helper()
		expectIdentical(t, oracle, res, label)
		if !reflect.DeepEqual(oracle.QoS, res.QoS) {
			t.Errorf("%s: QoS tables differ:\n%v\nvs the oracle's\n%v", label, res.QoS, oracle.QoS)
		}
	}
	straight, err := RunMix(cfg, mix, policy, tinyOpts(), opts(false)...)
	if err != nil {
		t.Fatal(err)
	}
	same("straight", straight)
	if straight.DispatchSkipped < straight.DispatchSweeps {
		t.Errorf("%d sweeps, only %d skipped", straight.DispatchSweeps, straight.DispatchSkipped)
	}
	for _, noSkip := range []bool{false, true} {
		label := fmt.Sprintf("killed(noskip=%v)", noSkip)
		dir := t.TempDir()
		_, err := RunMix(cfg, mix, policy, tinyOpts(),
			opts(noSkip, WithCycleBudget(drained), WithCheckpointDir(dir))...)
		if se, ok := robust.AsSimError(err); !ok || robust.DeepestKind(se) != robust.KindBudget {
			t.Fatalf("%s: budget kill: got %v", label, err)
		}
		env, err := LoadSnapshot(filepath.Join(dir, "final.crispsnap"))
		if err != nil {
			t.Fatal(err)
		}
		arch := &env.State.Arch
		if arch.Cycle <= drained || arch.Cycle >= lateArrival {
			t.Fatalf("%s: killed at cycle %d, outside the idle gap (%d, %d)", label, arch.Cycle, drained, lateArrival)
		}
		for _, c := range arch.Cores {
			if len(c.CTAs) != 0 {
				t.Fatalf("%s: SM %d still holds %d CTAs at the kill cycle %d: the machine is not idle", label, c.ID, len(c.CTAs), arch.Cycle)
			}
		}
		// Resume under the other skip mode as well: the dispatcher's
		// flags are not in the snapshot, so either loop must pick the
		// idle machine up and find the arrival.
		for _, resumeNoSkip := range []bool{noSkip, !noSkip} {
			res, err := ResumeContext(context.Background(), env, opts(resumeNoSkip)...)
			if err != nil {
				t.Fatalf("%s: resume (noskip=%v): %v", label, resumeNoSkip, err)
			}
			if !res.Resumed || res.ResumedFrom != arch.Cycle {
				t.Fatalf("%s: resumed from %d, snapshot is at %d", label, res.ResumedFrom, arch.Cycle)
			}
			same(fmt.Sprintf("%s/resumed(noskip=%v)", label, resumeNoSkip), res)
		}
	}
}

// TestHotPathDigestsPinned holds three results to the stats digests, and
// two specs to the job digests, that commit 06b2d68 — the last one before
// the serial loop's dispatcher, fill table, bank-conflict count and issue
// memo were rewritten — computed for them. Three have moved since, each on
// purpose: the n-way-fair WarpedSlicer digest when the cap search replaced
// the water-fill at four tasks, and both job digests when config.GPU lost
// its sector size and again when JobDigest became the walk of the spec. The parity suites compare the fast paths with the
// -no-skip oracle, which shares the fill table and the bank-conflict count
// with them; these constants do not. The third job is the mem-bound
// benchmark's (4 L1 MSHRs, 8x DRAM latency), where the MSHR file is truly
// full and every miss asks the fill table for its minimum. The
// dispatcher's counters ride in Result and in every metrics sample, and
// must leave all of it unmoved.
func TestHotPathDigestsPinned(t *testing.T) {
	var last obs.Sample
	withSamples := []RunOption{WithMetrics(4096), WithMetricsSink(func(s obs.Sample) { last = s })}

	pair, err := RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyTAP, tinyOpts(), withSamples...)
	if err != nil {
		t.Fatal(err)
	}
	if got := statsDigestOf(t, pair); got != 0x3fb321e7e1beaf00 || pair.Cycles != 16710 {
		t.Errorf("SPL+VIO/TAP: stats digest %016x after %d cycles, pinned 3fb321e7e1beaf00 after 16710", got, pair.Cycles)
	}
	if pair.DispatchSweeps == 0 || pair.DispatchSkipped == 0 {
		t.Errorf("result carries no dispatcher counters: %d sweeps, %d skipped", pair.DispatchSweeps, pair.DispatchSkipped)
	}
	if last.DispatchSweeps != pair.DispatchSweeps || last.DispatchSkipped != pair.DispatchSkipped {
		t.Errorf("closing sample reads %d sweeps / %d skipped, the result %d / %d",
			last.DispatchSweeps, last.DispatchSkipped, pair.DispatchSweeps, pair.DispatchSkipped)
	}
	if spec := SpecForPair(config.JetsonOrin(), "SPL", "VIO", PolicyTAP, tinyOpts()); spec.JobDigest() != "317d323b62f7f78f" {
		t.Errorf("pair job digest %s, pinned 317d323b62f7f78f", spec.JobDigest())
	}

	preset, err := scenario.Preset("n-way-fair")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := RunMix(config.JetsonOrin(), preset, PolicyWarpedSlicer, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := statsDigestOf(t, mix); got != 0x113196d43f846089 || mix.Cycles != 105192 {
		t.Errorf("n-way-fair/WarpedSlicer: stats digest %016x after %d cycles, pinned 113196d43f846089 after 105192", got, mix.Cycles)
	}
	mixJob, err := BuildMixJobEnv(config.JetsonOrin(), preset, PolicyWarpedSlicer, tinyOpts(), MixEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if spec := mixJob.buildSpec(); spec.JobDigest() != "b16c16423f81d4f9" {
		t.Errorf("mix job digest %s, pinned b16c16423f81d4f9", spec.JobDigest())
	}

	narrow := config.RTX3070()
	narrow.SharedMemPerSM = 6 << 10
	narrow.L1MSHRs, narrow.L2MSHRs = 4, 16
	narrow.DRAMLatency *= 8
	nn, err := compute.ByName("NN", ComputeStreamBase)
	if err != nil {
		t.Fatal(err)
	}
	memBound, err := (&Job{GPU: narrow, Compute: nn, Policy: PolicyMPS}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := statsDigestOf(t, memBound); got != 0x57ac93ab64c18b00 || memBound.Cycles != 844529 {
		t.Errorf("NN/MPS on the narrowed RTX3070: stats digest %016x after %d cycles, pinned 57ac93ab64c18b00 after 844529", got, memBound.Cycles)
	}
}
