package snapshot

import (
	"fmt"
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

	env, corrupt, err := LoadNewest("", dir)
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
	env, corrupt, err := LoadNewest("", dir)
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
	if env, _, err := LoadNewest("", t.TempDir()); env != nil || err == nil {
		t.Fatalf("LoadNewest on empty dir: env=%v err=%v", env, err)
	}
}

// truncateBody cuts path's body in half and leaves its header line
// intact, as a crash mid-write or chaos corrupt=truncate does: the file
// still ranks by its header's cycle but no longer decodes.
func truncateBody(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := strings.IndexByte(string(raw), '\n') + 1
	if err := os.WriteFile(path, raw[:hdr+(len(raw)-hdr)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadNewestAcrossDirs: the resume scan ranks every directory's
// snapshots together, newest header cycle first, and falls back across
// directories — a newer attempt's directory holding only body-corrupt
// checkpoints hands over to an older attempt's readable one, not to
// cycle 0.
func TestLoadNewestAcrossDirs(t *testing.T) {
	root := t.TempDir()
	a1, a2 := filepath.Join(root, "a1"), filepath.Join(root, "a2")
	for dir, cycles := range map[string][]int64{a1: {100, 300}, a2: {200, 400}} {
		for _, c := range cycles {
			if _, err := (&Store{Dir: dir}).Save(sampleEnvelope(c)); err != nil {
				t.Fatalf("save %d: %v", c, err)
			}
		}
	}
	var got []int64
	for _, p := range Candidates(a1, a2) {
		hdr, err := PeekHeader(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, hdr.Cycle)
	}
	if fmt.Sprint(got) != "[400 300 200 100]" {
		t.Fatalf("Candidates over both directories ranks cycles %v, want [400 300 200 100]", got)
	}

	bad := []string{filepath.Join(a2, fileName(400)), filepath.Join(a2, fileName(200))}
	for _, p := range bad {
		truncateBody(t, p)
	}
	env, aside, err := LoadNewest(sampleEnvelope(0).Spec.JobDigest(), a2, a1)
	if err != nil || env.State.Arch.Cycle != 300 {
		t.Fatalf("LoadNewest = %v, %v; want a1's checkpoint at 300", env, err)
	}
	if len(aside) != 1 || aside[0] != bad[0] {
		t.Fatalf("set aside %v, want only the file ranked above the one loaded, %s", aside, bad[0])
	}

	// With a1's newer checkpoint gone, the scan passes over a2's corrupt
	// 200 to reach a1's 100.
	os.Remove(filepath.Join(a1, fileName(300)))
	env, aside, err = LoadNewest("", a1, a2)
	if err != nil || env.State.Arch.Cycle != 100 {
		t.Fatalf("LoadNewest = %v, %v; want a1's checkpoint at 100", env, err)
	}
	if len(aside) != 1 || aside[0] != bad[1] {
		t.Fatalf("set aside %v, want [%s]", aside, bad[1])
	}
	for _, p := range bad {
		if _, err := os.Stat(p + ".corrupt"); err != nil {
			t.Errorf("%s not set aside: %v", p, err)
		}
	}
}

// TestForeignVersionIsNotAResumePoint: a header this build cannot load is
// not a checkpoint to rank or load, whatever cycle it claims.
func TestForeignVersionIsNotAResumePoint(t *testing.T) {
	root := t.TempDir()
	a1, a2 := filepath.Join(root, "a1"), filepath.Join(root, "a2")
	version1 := func(dir string) string {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fileName(900))
		if err := os.WriteFile(path, []byte(`{"magic":"crispsnap","version":1,"cycle":900,"policy":"EVEN","body_len":0,"body_fnv":0}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	foreign := version1(a2)
	if _, err := PeekHeader(foreign); err == nil {
		t.Fatal("PeekHeader accepted a version-1 header")
	}
	if env, aside, err := LoadNewest("", a1, a2); env != nil || err == nil || len(aside) != 1 || aside[0] != foreign {
		t.Fatalf("LoadNewest over only a version-1 file loaded %v (err %v), set aside %v; want nothing loaded and %s set aside",
			env != nil, err, aside, foreign)
	}
	foreign = version1(a2)
	if _, err := (&Store{Dir: a1}).Save(sampleEnvelope(100)); err != nil {
		t.Fatal(err)
	}
	if cands := Candidates(a2, a1); len(cands) != 2 || cands[1] != foreign {
		t.Fatalf("Candidates = %v, want the version-1 file last", cands)
	}
	if env, aside, err := LoadNewest("", a2, a1); err != nil || env.State.Arch.Cycle != 100 || len(aside) != 0 {
		t.Fatalf("LoadNewest = %v, set aside %v, %v; want the loadable checkpoint at 100 and nothing set aside", env, aside, err)
	}
}

// TestForeignJobIsNotAResumePoint: asked for one job's snapshots, the
// scan does not load another job's, whatever cycle it reached or whichever
// directory holds it — and sets it aside like any file it had to pass
// over. Asked for any job, it loads the newest.
func TestForeignJobIsNotAResumePoint(t *testing.T) {
	root := t.TempDir()
	a1, a2 := filepath.Join(root, "a1"), filepath.Join(root, "a2")
	mine, theirs := sampleEnvelope(100), sampleEnvelope(900)
	theirs.Spec.Policy = "MPS"
	job := mine.Spec.JobDigest()
	if job == theirs.Spec.JobDigest() {
		t.Fatal("the two sample specs share a digest")
	}
	foreign, err := (&Store{Dir: a2}).Save(theirs)
	if err != nil {
		t.Fatal(err)
	}
	if env, aside, err := LoadNewest(job, a1); env != nil || err == nil || len(aside) != 0 {
		t.Fatalf("LoadNewest over a directory without the job's snapshots = %v, %v, %v", env, aside, err)
	}
	if _, err := (&Store{Dir: a1}).Save(mine); err != nil {
		t.Fatal(err)
	}
	if env, _, err := LoadNewest("", a1, a2); err != nil || env.State.Arch.Cycle != 900 {
		t.Fatalf("LoadNewest for any job = %v, %v; want 900", env, err)
	}
	env, aside, err := LoadNewest(job, a1, a2)
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
// spec_digest names. One whose header an older JobDigest stamped is
// another job's, though its body is this job's spec: it is set aside, not
// loaded.
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
	got, aside, err := LoadNewest(job, dir)
	if got != nil || err == nil || len(aside) != 1 || aside[0] != path {
		t.Fatalf("LoadNewest loaded %v, set aside %v, err %v; want nothing loaded and %s set aside", got != nil, aside, err, path)
	}
}
