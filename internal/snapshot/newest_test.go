package snapshot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCandidatesNewestFirst(t *testing.T) {
	dir := t.TempDir()
	st := &Store{Dir: dir}
	for _, c := range []int64{100, 300} {
		if _, err := st.Save(sampleEnvelope(c)); err != nil {
			t.Fatalf("save %d: %v", c, err)
		}
	}
	// A final snapshot that is OLDER than the newest periodic checkpoint:
	// Candidates must order by header cycle, not by name or kind.
	if _, err := st.SaveFinal(sampleEnvelope(200)); err != nil {
		t.Fatalf("save final: %v", err)
	}
	cands := Candidates(dir)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3: %v", len(cands), cands)
	}
	wantOrder := []int64{300, 200, 100}
	for i, p := range cands {
		hdr, err := PeekHeader(p)
		if err != nil {
			t.Fatalf("peek %s: %v", p, err)
		}
		if hdr.Cycle != wantOrder[i] {
			t.Fatalf("candidate %d = cycle %d, want %d (order %v)", i, hdr.Cycle, wantOrder[i], cands)
		}
	}
	if filepath.Base(cands[1]) != "final"+Ext {
		t.Fatalf("middle candidate = %s, want final%s", cands[1], Ext)
	}
}

func TestLoadNewestFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	st := &Store{Dir: dir}
	for _, c := range []int64{100, 200} {
		if _, err := st.Save(sampleEnvelope(c)); err != nil {
			t.Fatalf("save %d: %v", c, err)
		}
	}
	newest := filepath.Join(dir, fileName(200))
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	env, corrupt, err := LoadNewest(dir, "")
	if err != nil {
		t.Fatalf("LoadNewest: %v", err)
	}
	if env.State.Arch.Cycle != 100 {
		t.Fatalf("resumed from cycle %d, want fallback to 100", env.State.Arch.Cycle)
	}
	if len(corrupt) != 1 || corrupt[0] != newest {
		t.Fatalf("corrupt = %v, want [%s]", corrupt, newest)
	}
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Fatalf("damaged file not renamed aside: %v", err)
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatalf("damaged file still under its checkpoint name: %v", err)
	}
}

func TestLoadNewestAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	st := &Store{Dir: dir}
	if _, err := st.Save(sampleEnvelope(100)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(100))
	if err := os.WriteFile(path, []byte("not a snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	env, corrupt, err := LoadNewest(dir, "")
	if env != nil || err == nil {
		t.Fatalf("LoadNewest on all-corrupt dir: env=%v err=%v", env, err)
	}
	if len(corrupt) != 1 {
		t.Fatalf("corrupt = %v, want exactly the one damaged file", corrupt)
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("error should be a snapshot error: %v", err)
	}
}

func TestLoadNewestEmptyDir(t *testing.T) {
	if env, _, err := LoadNewest(t.TempDir(), ""); env != nil || err == nil {
		t.Fatalf("LoadNewest on empty dir: env=%v err=%v", env, err)
	}
}

// TestForeignVersionIsNotAResumePoint: a header this build cannot load is
// not a checkpoint to rank or report, whatever cycle it claims.
func TestForeignVersionIsNotAResumePoint(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, fileName(900))
	if err := os.WriteFile(foreign, []byte(`{"magic":"crispsnap","version":1,"cycle":900,"policy":"EVEN","body_len":0,"body_fnv":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekHeader(foreign); err == nil {
		t.Fatal("PeekHeader accepted a version-1 header")
	}
	if c, ok := NewestCycle(dir, ""); ok {
		t.Fatalf("NewestCycle = %d over a directory holding only a version-1 file, want none", c)
	}
	if _, err := (&Store{Dir: dir}).Save(sampleEnvelope(100)); err != nil {
		t.Fatal(err)
	}
	if c, ok := NewestCycle(dir, ""); !ok || c != 100 {
		t.Fatalf("NewestCycle = %d, %v; want the loadable checkpoint at 100", c, ok)
	}
	if cands := Candidates(dir); len(cands) != 2 || cands[1] != foreign {
		t.Fatalf("Candidates = %v, want the version-1 file last", cands)
	}
}

// TestForeignJobIsNotAResumePoint: asked for one job's snapshots, the
// directory scan neither ranks nor loads another job's, whatever cycle it
// reached — and a load sets it aside like any file it had to pass over.
func TestForeignJobIsNotAResumePoint(t *testing.T) {
	dir := t.TempDir()
	st := &Store{Dir: dir}
	mine, theirs := sampleEnvelope(100), sampleEnvelope(900)
	theirs.Spec.Policy = "MPS"
	job := mine.Spec.JobDigest()
	if job == theirs.Spec.JobDigest() {
		t.Fatal("the two sample specs share a digest")
	}
	foreign, err := st.Save(theirs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := NewestCycle(dir, job); ok {
		t.Fatal("NewestCycle ranked another job's snapshot")
	}
	if _, err := st.Save(mine); err != nil {
		t.Fatal(err)
	}
	if c, ok := NewestCycle(dir, job); !ok || c != 100 {
		t.Fatalf("NewestCycle = %d, %v; want the job's own checkpoint at 100", c, ok)
	}
	if c, ok := NewestCycle(dir, ""); !ok || c != 900 {
		t.Fatalf("NewestCycle for any job = %d, %v; want 900", c, ok)
	}
	env, aside, err := LoadNewest(dir, job)
	if err != nil || env.State.Arch.Cycle != 100 {
		t.Fatalf("LoadNewest = %v, %v; want the job's own checkpoint", env, err)
	}
	if len(aside) != 1 || aside[0] != foreign {
		t.Fatalf("set aside %v, want [%s]", aside, foreign)
	}
	if _, err := os.Stat(foreign + ".corrupt"); err != nil {
		t.Fatalf("foreign snapshot not renamed: %v", err)
	}
}

// TestHeaderDigestNamesTheJob: a snapshot belongs to the job its header's
// spec_digest names, for LoadNewest as for NewestCycle. One whose header
// an older JobDigest stamped is another job's, though its body is this
// job's spec: it is set aside, not loaded.
func TestHeaderDigestNamesTheJob(t *testing.T) {
	dir := t.TempDir()
	env := sampleEnvelope(100)
	path, err := (&Store{Dir: dir}).Save(env)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	job := env.Spec.JobDigest()
	old := strings.Replace(string(raw), `"spec_digest":"`+job+`"`, `"spec_digest":"0123456789abcdef"`, 1)
	if old == string(raw) {
		t.Fatal("header carries no spec_digest")
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := NewestCycle(dir, job); ok {
		t.Fatal("NewestCycle ranked a snapshot whose header names another job")
	}
	got, aside, err := LoadNewest(dir, job)
	if got != nil || err == nil || len(aside) != 1 || aside[0] != path {
		t.Fatalf("LoadNewest loaded %v, set aside %v, err %v; want nothing loaded and %s set aside", got != nil, aside, err, path)
	}
}
