package crisp

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"crisp/internal/snapshot"
)

// makeSnapshotFile produces a genuine on-disk snapshot by interrupting a
// tiny run with a cycle budget (the budget failure flushes final.crispsnap
// through the normal checkpoint path) and returns the file's bytes.
func makeSnapshotFile(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	_, err := RunPair(JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts(),
		WithCheckpointDir(dir), WithCycleBudget(512))
	if err == nil {
		t.Fatal("budgeted run succeeded; expected an interrupt leaving a snapshot")
	}
	b, rerr := os.ReadFile(filepath.Join(dir, "final.crispsnap"))
	if rerr != nil {
		t.Fatalf("reading final snapshot: %v", rerr)
	}
	return b
}

// wantResumeSnapshotError runs ResumeFile on a damaged snapshot and
// asserts the failure is a typed ErrSnapshot SimError — the documented
// contract is that hostile or damaged input never panics and never
// surfaces an untyped decoding error.
func wantResumeSnapshotError(t *testing.T, path, what string) {
	t.Helper()
	res, err := ResumeFile(context.Background(), path)
	if err == nil {
		t.Fatalf("%s: ResumeFile succeeded (cycles=%d), want ErrSnapshot", what, res.Cycles)
	}
	se, ok := AsSimError(err)
	if !ok || se.Kind != ErrSnapshot {
		t.Fatalf("%s: err = %v (%T), want ErrSnapshot SimError", what, err, err)
	}
}

// TestResumeFileRejectsDamagedSnapshots covers the resume error paths a
// deployment actually hits: files cut short by a full disk or a killed
// writer, and files whose body bits rotted (checksum mismatch).
func TestResumeFileRejectsDamagedSnapshots(t *testing.T) {
	good := makeSnapshotFile(t)
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		path := filepath.Join(dir, name+snapshot.Ext)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		return path
	}

	// Sanity: the pristine bytes resume fine.
	if res, err := ResumeFile(context.Background(), write("pristine", good)); err != nil {
		t.Fatalf("pristine snapshot did not resume: %v", err)
	} else if !res.Resumed || res.Cycles <= 512 {
		t.Fatalf("pristine resume: resumed=%v cycles=%d", res.Resumed, res.Cycles)
	}

	for _, n := range []int{1, 16, len(good) / 2, len(good) - 1} {
		wantResumeSnapshotError(t, write("truncated", good[:n]), "truncated snapshot")
	}

	for _, off := range []int{len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		wantResumeSnapshotError(t, write("corrupted", bad), "checksum-corrupted snapshot")
	}

	if _, err := ResumeFile(context.Background(), filepath.Join(dir, "missing"+snapshot.Ext)); err == nil {
		t.Fatal("ResumeFile on a missing path succeeded")
	}
}

// TestResumeBeforeFirstSample resumes, with interval metrics on, a
// checkpoint taken before any sample existed — what a daemon restarted
// over a job drained in its first progress interval does. It used to
// panic in the sampler on the restored, empty baseline.
func TestResumeBeforeFirstSample(t *testing.T) {
	path := filepath.Join(t.TempDir(), "early"+snapshot.Ext)
	if err := os.WriteFile(path, makeSnapshotFile(t), 0o644); err != nil {
		t.Fatal(err)
	}
	samples := 0
	res, err := ResumeFile(context.Background(), path, WithMetrics(256), WithMetricsSink(func(MetricsSample) { samples++ }))
	if err != nil {
		t.Fatalf("resume with metrics on: %v", err)
	}
	want, err := RunPair(JetsonOrin(), "SPL", "VIO", PolicyEven, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.StatsDigest()
	ref, _ := want.StatsDigest()
	if got != ref || samples == 0 {
		t.Fatalf("resumed digest %016x after %d samples, uninterrupted %016x", got, samples, ref)
	}
}
