package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	crisp "crisp"
	"crisp/internal/experiments"
	"crisp/internal/snapshot"
)

// TestOneEntryPoint: every by-name way into the simulator is RunSpec on one
// description, so for a pair, a compute-only pair and an N-tenant scenario
// the facade's RunPair/RunMix, RunSpec itself, a resume from a mid-run
// checkpoint, experiments.Run (the figures' runner) and crispd's runDirect
// report the same cycles and stats digest.
func TestOneEntryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each job five ways")
	}
	ctx := context.Background()
	opts := crisp.DefaultRenderOptions()
	opts.W, opts.H = 128, 72
	for _, c := range []struct {
		name string
		spec JobSpec
	}{
		{"pair", tinySpec("SPL", "VIO", "TAP")},
		{"compute-only", tinySpec("", "HOLO", "EVEN")},
		{"n-way-fair", JobSpec{Scenario: "n-way-fair", Policy: "MPS", Width: 128, Height: 72}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := c.spec.resolve()
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			policy := crisp.PolicyKind(c.spec.Policy)
			var ref *crisp.Result
			if c.spec.Scenario != "" {
				mix, merr := crisp.MixPreset(c.spec.Scenario)
				if merr != nil {
					t.Fatal(merr)
				}
				ref, err = crisp.RunMix(crisp.JetsonOrin(), mix, policy, opts)
			} else {
				ref, err = crisp.RunPair(crisp.JetsonOrin(), c.spec.Scene, c.spec.Compute, policy, opts)
			}
			if err != nil {
				t.Fatalf("facade run: %v", err)
			}
			rd, _ := ref.StatsDigest()
			want := fmt.Sprintf("%d cycles, stats %016x", ref.Cycles, rd)
			check := func(route string, cycles int64, digest string) {
				t.Helper()
				if got := fmt.Sprintf("%d cycles, stats %s", cycles, digest); got != want {
					t.Errorf("%s: %s; RunPair/RunMix: %s", route, got, want)
				}
			}
			checkResult := func(route string, res *crisp.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", route, err)
				}
				d, _ := res.StatsDigest()
				check(route, res.Cycles, fmt.Sprintf("%016x", d))
			}

			res, err := crisp.RunSpec(ctx, r.spec, nil)
			checkResult("RunSpec", res, err)

			dir := t.TempDir()
			if _, err := crisp.RunSpec(ctx, r.spec, nil, crisp.WithCheckpointDir(dir), crisp.WithCycleBudget(ref.Cycles/2)); err == nil {
				t.Fatal("half-length budget did not interrupt the run")
			}
			env, err := crisp.LoadSnapshot(dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err = crisp.Resume(ctx, env)
			checkResult("Resume", res, err)
			if res != nil && !res.Resumed {
				t.Error("Resume ran from cycle 0")
			}

			results, err := experiments.Run([]snapshot.Spec{r.spec})
			if err == nil {
				res = results[0]
			}
			checkResult("experiments.Run", res, err)

			sr, err := runDirect(ctx, workerRequest{Spec: c.spec, ProgressInterval: 256}, r, nil, attemptHooks{})
			if err != nil {
				t.Fatalf("runDirect: %v", err)
			}
			check("runDirect", sr.Cycles, sr.StatsDigest)
		})
	}
}

// TestForeignJobCheckpointIsNotAResume: a snapshot of another job — left by
// a copied state dir, or restored from the wrong backup — is not a resume
// point. The attempt sets it aside, counts one fallback, and finishes from
// its own newest snapshot or from cycle 0 with the clean run's result; it
// used to restore the foreign state and report that.
func TestForeignJobCheckpointIsNotAResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the victim job four times")
	}
	ctx := context.Background()
	victim, foreign := tinySpec("", "HOLO", "EVEN"), tinySpec("", "VIO", "MPS")
	clean := directRun(t, victim)
	cd, _ := clean.StatsDigest()
	r, err := victim.resolve()
	if err != nil {
		t.Fatal(err)
	}
	foreignAt := directRun(t, foreign).Cycles / 2
	// attempt runs the victim as a new attempt beside the attempt
	// directory planted, reporting how many resume reports set files
	// aside and the cycle it restored.
	attempt := func(planted string) (sr *StoredResult, fallbacks int, from int64) {
		t.Helper()
		from = noResume
		req := workerRequest{Spec: victim, CheckpointDir: filepath.Join(filepath.Dir(planted), "a9"), ProgressInterval: 256}
		sr, err := runDirect(ctx, req, r, nil, attemptHooks{onResume: func(cycle int64, aside []string) {
			from = cycle
			if len(aside) > 0 {
				fallbacks++
			}
		}})
		if err != nil {
			t.Fatalf("runDirect beside %s: %v", planted, err)
		}
		if sr.Cycles != clean.Cycles || sr.StatsDigest != fmt.Sprintf("%016x", cd) || sr.Policy != "EVEN" {
			t.Errorf("got (policy %s, cycles %d, stats %s), the clean run is (EVEN, %d, %016x)",
				sr.Policy, sr.Cycles, sr.StatsDigest, clean.Cycles, cd)
		}
		return sr, fallbacks, from
	}

	// Only foreign snapshots: all set aside, one fallback, cycle 0.
	dir := filepath.Join(t.TempDir(), "a1")
	plantCheckpoints(t, foreign, dir, foreignAt)
	if sr, fallbacks, _ := attempt(dir); sr.Resumed || fallbacks != 1 {
		t.Errorf("resumed %v with %d fallbacks; want a run from cycle 0 and one fallback", sr.Resumed, fallbacks)
	}
	if left := snapshot.Candidates(dir); len(left) != 0 {
		t.Errorf("foreign snapshots still in place: %v", left)
	}

	// A newer foreign snapshot beside the job's own: the own one is resumed.
	root := t.TempDir()
	own := filepath.Join(root, "a1")
	plantCheckpoints(t, victim, own, clean.Cycles/2)
	final, err := os.ReadFile(filepath.Join(dir, "final"+snapshot.Ext+".corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	intruder := filepath.Join(own, fmt.Sprintf("ckpt-%016d%s", foreignAt, snapshot.Ext))
	if err := os.WriteFile(intruder, final, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := newestCycle(t, "0000000000000000", attemptDirs(root)...); got >= 0 {
		t.Errorf("newest snapshot at cycle %d for a job with no snapshot there", got)
	}
	ownAt := newestCycle(t, r.digest, attemptDirs(root)...)
	if ownAt < 0 {
		t.Fatal("the job's own snapshots are not ranked")
	}
	if sr, fallbacks, from := attempt(own); !sr.Resumed || fallbacks != 1 || from != ownAt {
		t.Errorf("resumed %v from cycle %d with %d fallbacks; want a resume from the job's own snapshot at %d and one fallback",
			sr.Resumed, from, fallbacks, ownAt)
	}
	if _, err := os.Stat(intruder + ".corrupt"); err != nil {
		t.Errorf("foreign snapshot not set aside: %v", err)
	}

	// Through the daemon: a state dir whose job directory holds another
	// job's checkpoints (copied, or restored from the wrong backup).
	state := t.TempDir()
	jdir := filepath.Join(state, "jobs", "j000001")
	plantCheckpoints(t, foreign, filepath.Join(jdir, "a1"), foreignAt)
	pj, _ := json.Marshal(persistedJob{ID: "j000001", Digest: r.digest, Spec: victim})
	if err := os.WriteFile(filepath.Join(jdir, "job.json"), pj, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, StateDir: state, ProgressInterval: 256, CheckpointEvery: 512})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(ctx)
	waitState(t, s, "j000001", StateDone, 2*time.Minute)
	sr, ok := s.Result(r.digest)
	if !ok {
		t.Fatal("no cached result")
	}
	if sr.Resumed || sr.Cycles != clean.Cycles || sr.StatsDigest != fmt.Sprintf("%016x", cd) {
		t.Errorf("daemon got (resumed %v, cycles %d, stats %s), want cycle 0 to (%d, %016x)",
			sr.Resumed, sr.Cycles, sr.StatsDigest, clean.Cycles, cd)
	}
	if st := s.Snapshot(); st.CheckpointFallbacks != 1 || st.Retries != 0 {
		t.Errorf("fallbacks = %d, retries = %d; want one fallback and no retry", st.CheckpointFallbacks, st.Retries)
	}
}

// TestCacheKeyIsSnapshotHeaderDigest: the promise docs/SERVICE.md makes —
// the digest a job is cached under is the spec_digest in the header of
// every snapshot its attempts write — checked on written files, for a pair
// and a scenario, in-process and isolated. A budget the job cannot meet and
// an attempt budget of one leave the job directory, checkpoints included,
// in place.
func TestCacheKeyIsSnapshotHeaderDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, isolate := range []bool{false, true} {
		dir := t.TempDir()
		s, err := New(Config{Workers: 1, StateDir: dir, ProgressInterval: 256, CheckpointEvery: 512, MaxAttempts: 1, Isolate: isolate})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.Start()
		for _, spec := range []JobSpec{
			{Scene: "SPL", Compute: "VIO", Policy: "EVEN", Width: 128, Height: 72, CycleBudget: 2048},
			{Scenario: "n-way-fair", Policy: "MPS", CycleBudget: 2048},
		} {
			job, err := s.Submit(spec)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			waitState(t, s, job.ID, StateQuarantined, 2*time.Minute)
			snaps := snapshot.Candidates(filepath.Join(dir, "jobs", job.ID, "a1"))
			if len(snaps) < 2 {
				t.Fatalf("isolate=%v %s: %d snapshots written, want periodic ones and the final", isolate, job.ID, len(snaps))
			}
			for _, path := range snaps {
				hdr, err := snapshot.PeekHeader(path)
				if err != nil {
					t.Fatal(err)
				}
				if hdr.SpecDigest != job.Digest {
					t.Errorf("isolate=%v %s: header spec_digest %s, job digest %s", isolate, path, hdr.SpecDigest, job.Digest)
				}
			}
		}
		s.Drain(context.Background())
	}
}
