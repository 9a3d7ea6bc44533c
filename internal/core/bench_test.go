package core

import (
	"testing"
	"time"

	"crisp/internal/config"
)

// BenchmarkCheckpointOverhead quantifies what periodic checkpointing costs.
// Each iteration runs the same concurrent pair three ways — unarmed, armed
// at the default 100k-cycle cadence, and armed at a dense cadence that
// actually produces saves — and reports:
//
//	%overhead         — wall-time overhead of arming at the 100k default
//	%blocked-at-100k  — the run loop's time blocked per save (the capture
//	                    plus any wait for the previous write, which runs
//	                    beside the simulation) as a fraction of the time it
//	                    takes to simulate 100k cycles: the steady-state
//	                    overhead a long run pays at the default cadence
//	ms-blocked/save   — the same blocked time, per save
//
// The acceptance bar for the checkpoint subsystem is %blocked-at-100k < 2.
func BenchmarkCheckpointOverhead(b *testing.B) {
	const defaultEvery = 100_000
	const denseEvery = 2_000
	var base, armed time.Duration
	var saves int
	var saveTime time.Duration
	var cycles int64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r0, err := RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts())
		if err != nil {
			b.Fatal(err)
		}
		base += time.Since(t0)
		cycles = r0.Cycles

		t1 := time.Now()
		r1, err := RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts(),
			WithCheckpointDir(b.TempDir()), WithCheckpointEvery(defaultEvery))
		if err != nil {
			b.Fatal(err)
		}
		armed += time.Since(t1)
		if r1.Cycles != r0.Cycles {
			b.Fatalf("checkpointing perturbed the run: %d != %d cycles", r1.Cycles, r0.Cycles)
		}

		r2, err := RunPair(config.JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts(),
			WithCheckpointDir(b.TempDir()), WithCheckpointEvery(denseEvery))
		if err != nil {
			b.Fatal(err)
		}
		if r2.Cycles != r0.Cycles {
			b.Fatalf("dense checkpointing perturbed the run: %d != %d cycles", r2.Cycles, r0.Cycles)
		}
		if r2.CheckpointSaves == 0 {
			b.Fatalf("dense cadence produced no saves over %d cycles", r2.Cycles)
		}
		saves += r2.CheckpointSaves
		saveTime += r2.CheckpointSaveTime
	}
	b.ReportMetric(100*(armed-base).Seconds()/base.Seconds(), "%overhead")
	perSave := saveTime.Seconds() / float64(saves)
	per100kSim := base.Seconds() / float64(b.N) * float64(defaultEvery) / float64(cycles)
	b.ReportMetric(100*perSave/per100kSim, "%blocked-at-100k")
	b.ReportMetric(perSave*1e3, "ms-blocked/save")
}
