package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crisp/internal/config"
	"crisp/internal/robust"
	"crisp/internal/snapshot"
)

// This file gates the event-driven core sleeping (gpu.GPU's stepCores):
// the optimized skip-on path must be bit-identical to the -no-skip oracle
// — which steps every core every cycle on the legacy non-memoized path —
// across every policy and checkpoint boundary, and the bulk stall
// accounting must preserve the scheduler slot-conservation invariant.

// runSkipParity executes one scene+compute pairing under policy, with
// sleeping on or off and the determinism auditor armed.
func runSkipParity(t *testing.T, scene, comp string, policy PolicyKind, noSkip bool) *Result {
	t.Helper()
	opts := []RunOption{WithStateDigest(10_000)}
	if noSkip {
		opts = append(opts, WithNoSkip())
	}
	res, err := RunPair(config.JetsonOrin(), scene, comp, policy, tinyOpts(), opts...)
	if err != nil {
		t.Fatalf("%s+%s/%s noskip=%v: %v", scene, comp, policy, noSkip, err)
	}
	return res
}

// expectIdentical asserts two runs of the same job are bit-identical:
// same final cycle, same stats digest (every per-stream counter, stall
// attribution included), and the same architectural-state digest stream
// throughout the run — not merely the same endpoint.
func expectIdentical(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.Cycles != got.Cycles {
		t.Errorf("%s: cycles diverge: %d, want %d", label, got.Cycles, want.Cycles)
	}
	if dw, dg := statsDigestOf(t, want), statsDigestOf(t, got); dw != dg {
		t.Errorf("%s: stats digests diverge: %016x, want %016x", label, dg, dw)
	}
	if len(want.Digests) == 0 {
		t.Fatalf("%s: auditor produced no state digests", label)
	}
	if c, diverged := snapshot.FirstDivergence(want.Digests, got.Digests); diverged {
		t.Errorf("%s: state digests first diverge at cycle %d", label, c)
	}
}

// TestSkipParityAllPolicies is the sleeping oracle gate: for every
// partition policy, render-only and concurrent, a skip-on run must be
// bit-identical to the -no-skip oracle — final cycle, full stats digest
// (stall attribution included), and the auditor's state-digest stream
// across the whole run.
func TestSkipParityAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("skip-parity sweep is minutes of simulation")
	}
	for _, policy := range PolicyKinds() {
		policy := policy
		t.Run(string(policy)+"/render-only", func(t *testing.T) {
			oracle := runSkipParity(t, "SPL", "", policy, true)
			skip := runSkipParity(t, "SPL", "", policy, false)
			expectIdentical(t, oracle, skip, "SPL/"+string(policy))
		})
		t.Run(string(policy)+"/concurrent", func(t *testing.T) {
			oracle := runSkipParity(t, "SPL", "VIO", policy, true)
			skip := runSkipParity(t, "SPL", "VIO", policy, false)
			expectIdentical(t, oracle, skip, "SPL+VIO/"+string(policy))
			if oracle.StepsSkipped != 0 {
				t.Errorf("oracle accrued skipped steps: %d", oracle.StepsSkipped)
			}
		})
	}
}

// TestSkipSlotConservation asserts the bulk stall accounting preserves
// the scheduler slot invariant on a run that actually slept: every
// scheduler slot is an issue (per-stream WarpInsts), an attributed stall
// (per-stream Stalls), or an empty slot — including the slots synthesized
// in bulk at core wake.
func TestSkipSlotConservation(t *testing.T) {
	res := runSkipParity(t, "SPL", "VIO", PolicyEven, false)
	if res.StepsSkipped == 0 {
		t.Fatal("run never slept: skip machinery not exercised")
	}
	if res.BulkStallSlots == 0 {
		t.Error("run slept but accounted no bulk stall slots")
	}
	var issues, stalls int64
	for _, st := range res.PerStream {
		issues += st.WarpInsts
		for _, n := range st.Stalls {
			stalls += n
		}
	}
	if got := issues + stalls + res.EmptySlots; got != res.SchedSlots {
		t.Errorf("slot conservation violated: %d issues + %d stalls + %d empty = %d, want SchedSlots %d",
			issues, stalls, res.EmptySlots, got, res.SchedSlots)
	}
	// The histogram buckets must sum to the number of sleep windows,
	// each covering >= 1 skipped step.
	var windows int64
	for _, n := range res.SleepHist {
		windows += n
	}
	if windows == 0 {
		t.Error("run slept but the sleep histogram is empty")
	}
	if windows > res.StepsSkipped {
		t.Errorf("%d sleep windows cover only %d skipped steps", windows, res.StepsSkipped)
	}
}

// TestSkipCheckpointMidSleep proves a checkpoint taken while cores are
// asleep resumes bit-identically: wakeAt is captured and restored, and
// the accrued skip debt is settled before capture so the snapshot is
// exactly the one the -no-skip oracle would write at that cycle.
func TestSkipCheckpointMidSleep(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint round trip is slow")
	}
	const policy = PolicyEven
	base := runSkipParity(t, "SPL", "VIO", policy, false)

	dir := t.TempDir()
	_, err := RunPair(config.JetsonOrin(), "SPL", "VIO", policy, tinyOpts(),
		WithStateDigest(10_000), WithCheckpointDir(dir),
		WithCheckpointEvery(max(1, base.Cycles/16)), WithCycleBudget(base.Cycles/2))
	se, ok := robust.AsSimError(err)
	if !ok || se.Kind != robust.KindBudget {
		t.Fatalf("expected budget SimError from interrupted run, got %v", err)
	}

	// At least one checkpoint must have caught a core mid-sleep
	// (wakeAt beyond the capture cycle) — otherwise this test is not
	// exercising what it claims to.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	midSleep := false
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), snapshot.Ext) {
			continue
		}
		env, err := snapshot.LoadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("load %s: %v", e.Name(), err)
		}
		for _, cs := range env.State.Arch.Cores {
			if cs.WakeAt > env.State.Arch.Cycle {
				midSleep = true
			}
		}
	}
	if !midSleep {
		t.Fatal("no checkpoint captured a sleeping core (wakeAt > cycle)")
	}

	for _, noSkip := range []bool{false, true} {
		opts := []RunOption{WithStateDigest(10_000)}
		label := "resume-skip"
		if noSkip {
			opts = append(opts, WithNoSkip())
			label = "resume-noskip"
		}
		t.Run(label, func(t *testing.T) {
			res, err := ResumeFile(context.Background(), dir, opts...)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !res.Resumed || res.ResumedFrom <= 0 {
				t.Fatalf("resume metadata missing: resumed=%v from=%d", res.Resumed, res.ResumedFrom)
			}
			if res.Cycles != base.Cycles {
				t.Errorf("cycles diverge after resume: base %d, resumed %d", base.Cycles, res.Cycles)
			}
			if db, dr := statsDigestOf(t, base), statsDigestOf(t, res); db != dr {
				t.Errorf("stats digests diverge after resume: base %016x, resumed %016x", db, dr)
			}
			if c, diverged := snapshot.FirstDivergence(base.Digests, res.Digests); diverged {
				t.Errorf("state digests diverge at cycle %d after resuming from %d", c, res.ResumedFrom)
			}
		})
	}
}
