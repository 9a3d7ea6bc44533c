package core

import (
	"context"
	"fmt"

	"crisp/internal/gpu"
	"crisp/internal/robust"
	"crisp/internal/snapshot"
)

// This file is the job-level half of checkpoint/restore: writing periodic
// checkpoints beside the run and the final snapshot on failure, loading
// snapshots, and resuming an interrupted run in a fresh process (spec.go
// builds the spec every snapshot embeds).

// saveFinal writes the failure-time snapshot (final.crispsnap). Best
// effort: a capture or write failure here must never mask the primary
// simulation error, and a panic during capture (the machine may be
// mid-panic itself) is swallowed.
func (j *Job) saveFinal(g *gpu.GPU, store *snapshot.Store) {
	defer func() { recover() }()
	st, err := g.CaptureState()
	if err != nil {
		return
	}
	store.SaveFinal(&snapshot.Envelope{Version: snapshot.FormatVersion, Spec: j.buildSpec(), State: *st})
}

// saveBehind writes env into store on its own goroutine, so the run loop
// pays only for the capture. The channel yields the write's error, naming
// the checkpoint's cycle, once the file is durable or the write has failed;
// a panic in the write is recovered into that error instead of taking the
// process down.
func saveBehind(store *snapshot.Store, env *snapshot.Envelope) <-chan error {
	done := make(chan error, 1)
	go func() {
		var err error
		defer func() {
			if err != nil {
				err = fmt.Errorf("checkpoint at cycle %d: %w", env.State.Arch.Cycle, err)
			}
			done <- err
		}()
		defer robust.RecoverAsError(&err, "checkpoint write")
		_, err = store.Save(env)
	}()
	return done
}

// LoadSnapshot resolves arg (a snapshot file, or a checkpoint directory
// whose latest snapshot is taken) and decodes it.
func LoadSnapshot(arg string) (*snapshot.Envelope, error) {
	path, err := snapshot.Resolve(arg)
	if err != nil {
		return nil, err
	}
	return snapshot.LoadFile(path)
}

// ResumeContext rebuilds the job described by env's spec, restores the
// snapshot into it, and runs to completion. runOpts apply on top (e.g. to
// keep checkpointing into the same directory, or re-arm the auditor).
func ResumeContext(ctx context.Context, env *snapshot.Envelope, runOpts ...RunOption) (*Result, error) {
	return RunSpec(ctx, env.Spec, env, runOpts...)
}

// ResumeFile is ResumeContext on a snapshot path or checkpoint directory.
func ResumeFile(ctx context.Context, arg string, runOpts ...RunOption) (*Result, error) {
	env, err := LoadSnapshot(arg)
	if err != nil {
		return nil, err
	}
	return ResumeContext(ctx, env, runOpts...)
}

// WithCheckpointDir enables periodic checkpointing into dir (plus the
// final snapshot on failure).
func WithCheckpointDir(dir string) RunOption { return func(j *Job) { j.CheckpointDir = dir } }

// WithCheckpointEvery sets the checkpoint cadence in cycles
// (0 = DefaultCheckpointEvery).
func WithCheckpointEvery(n int64) RunOption { return func(j *Job) { j.CheckpointEvery = n } }

// WithCheckpointRetain bounds how many periodic checkpoints are kept
// (0 = snapshot.DefaultRetain; final.crispsnap is exempt).
func WithCheckpointRetain(n int) RunOption { return func(j *Job) { j.CheckpointRetain = n } }

// WithStateDigest arms the determinism auditor every n cycles.
func WithStateDigest(n int64) RunOption { return func(j *Job) { j.DigestEvery = n } }

// StatsDigest hashes the run's architectural results — makespan, scheduler
// slot counts, and every per-stream counter in stats.Stream's declaration
// order — into one comparable value. Two runs of the same job are
// bit-identical iff their stats digests (and cycle counts) match;
// observability settings do not participate. The hash is the snapshot
// schema walk into a snapshot.Hasher, a pure function of the stats:
// identical results digest identically in any process.
func (r *Result) StatsDigest() (uint64, error) {
	h := snapshot.NewHasher()
	h.PutI64(r.Cycles)
	h.PutI64(r.SchedSlots)
	h.PutI64(r.EmptySlots)
	h.Put(r.PerStream)
	return h.Sum64(), nil
}
