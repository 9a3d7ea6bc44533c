package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"crisp/internal/config"
	"crisp/internal/robust"
)

// sampleEnvelope builds a small but fully populated envelope: every schema
// branch carries data so round-trip tests exercise the whole tree.
func sampleEnvelope(cycle int64) *Envelope {
	return &Envelope{
		Version: FormatVersion,
		Spec: Spec{
			GPU:         config.JetsonOrin(),
			Scene:       "SPL",
			Compute:     "VIO",
			Policy:      "EVEN",
			DigestEvery: 512,
			Complete:    true,
		},
		State: GPUState{
			Arch: ArchState{
				Cycle:       cycle,
				TotalIssued: 12345,
				MaxTask:     1,
				PolicyName:  "EVEN",
				Streams: []StreamState{{
					ID: 0, NextKernel: 2, Active: true, Started: true,
					Stat: StreamCounters{Cycles: cycle, WarpInsts: 99, Stalls: []int64{1, 2, 3}},
				}},
				Running:       []LaunchState{{StreamID: 0, KernelIdx: 1, NextCTA: 4, DoneCTAs: 2}},
				Kernels:       []KernelStatState{{Name: "k0", Stream: 0, Done: 7, CTAs: 3}},
				InstsBySMTask: [][]int64{{5, 6}, {7, 8}},
				Cores: []CoreState{{
					ID: 0, ArrivalSeq: 9, SchedSlots: 100, EmptySlots: 40,
					CTAs: []CTAState{{Ref: 0, KernelIdx: 1, CTAIdx: 2, WarpsLeft: 1, BarWaiting: []int{0}}},
					Scheds: []SchedState{{
						LastWarp: 0, UnitFree: []int64{10, 20},
						Warps: []WarpState{{Ref: 0, CTA: 0, WarpIdx: 3, PC: 42, BlockedUntil: 50,
							PendingRegs: []RegState{{Reg: 7, Ready: 60, FromMem: true}}}},
					}},
				}},
				Mem: MemState{
					L1:           []CacheState{{Lines: []LineState{{Idx: 1, Tag: 0xabc, Dirty: true}}}},
					L1Pending:    []PendingFills{{Fills: []Fill{{Granule: 0x100, Ready: 70}}}},
					L2:           []CacheState{{}},
					L2Pending:    []PendingFills{{}},
					L2NextFree:   []int64{5},
					DRAMNextFree: []int64{6},
					Counters:     []StreamCounterState{{Stream: 0, L1Accesses: 11, DRAMReadB: 256}},
				},
			},
			Obs: ObsState{
				Loop:  LoopState{NextCheckpoint: cycle + 100, NextDigest: cycle + 50, Iter: 77},
				MPrev: []TaskSnapState{{WarpInsts: 99, HasStreams: true}},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	env := sampleEnvelope(1000)
	var buf bytes.Buffer
	if err := Encode(&buf, env); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip altered the envelope:\n got %+v\nwant %+v", got, env)
	}
	d1, err := ArchDigest(&env.State.Arch)
	if err != nil {
		t.Fatalf("ArchDigest: %v", err)
	}
	d2, err := ArchDigest(&got.State.Arch)
	if err != nil {
		t.Fatalf("ArchDigest(decoded): %v", err)
	}
	if d1 != d2 {
		t.Fatalf("digest changed across round trip: %#x != %#x", d1, d2)
	}
}

func TestArchDigestIsStateSensitive(t *testing.T) {
	a, b := sampleEnvelope(1000), sampleEnvelope(1000)
	b.State.Arch.Cores[0].Scheds[0].Warps[0].PC++
	da, _ := ArchDigest(&a.State.Arch)
	db, _ := ArchDigest(&b.State.Arch)
	if da == db {
		t.Fatalf("digests identical despite differing warp PC")
	}
	// Observability state must NOT feed the digest.
	c := sampleEnvelope(1000)
	c.State.Obs.Loop.Iter = 999999
	dc, _ := ArchDigest(&c.State.Arch)
	if dc != da {
		t.Fatalf("digest perturbed by observability-only change")
	}
}

// wantSnapErr asserts err is a structured snapshot SimError — the contract
// for every decode failure mode.
func wantSnapErr(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: no error", what)
	}
	se, ok := robust.AsSimError(err)
	if !ok || se.Kind != robust.KindSnapshot {
		t.Fatalf("%s: err = %v, want KindSnapshot SimError", what, err)
	}
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleEnvelope(2000)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	good := buf.Bytes()

	t.Run("empty", func(t *testing.T) {
		_, err := Decode(bytes.NewReader(nil))
		wantSnapErr(t, err, "empty input")
	})
	t.Run("bad-magic", func(t *testing.T) {
		_, err := Decode(strings.NewReader("{\"magic\":\"notasnap\"}\n"))
		wantSnapErr(t, err, "bad magic")
	})
	t.Run("version-mismatch", func(t *testing.T) {
		hacked := bytes.Replace(good, []byte(`"version":2`), []byte(`"version":999`), 1)
		_, err := Decode(bytes.NewReader(hacked))
		wantSnapErr(t, err, "future version")
		for _, want := range []string{"version 999", "version 2", "re-checkpoint"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want it to say %q", err, want)
			}
		}
	})
	t.Run("schema-mismatch", func(t *testing.T) {
		hacked := bytes.Replace(good, []byte(`"schema":"`+schema), []byte(`"schema":"0`+schema[1:]), 1)
		if schema[0] == '0' {
			hacked = bytes.Replace(good, []byte(`"schema":"`+schema), []byte(`"schema":"1`+schema[1:]), 1)
		}
		_, err := Decode(bytes.NewReader(hacked))
		wantSnapErr(t, err, "foreign schema")
		if !strings.Contains(err.Error(), "re-checkpoint") {
			t.Errorf("err = %v, want it to say re-checkpoint", err)
		}
	})
	t.Run("body-runs-on", func(t *testing.T) {
		raw := append(encodeBody(sampleEnvelope(2000)), 0)
		_, err := Decode(bytes.NewReader(reframe(t, good, raw)))
		wantSnapErr(t, err, "trailing byte")
	})
	t.Run("body-ends-early", func(t *testing.T) {
		raw := encodeBody(sampleEnvelope(2000))
		for _, n := range []int{0, 1, len(raw) / 2, len(raw) - 1} {
			_, err := Decode(bytes.NewReader(reframe(t, good, raw[:n])))
			wantSnapErr(t, err, "short body")
		}
	})
	t.Run("overlong-varint", func(t *testing.T) {
		raw := bytes.Repeat([]byte{0xff}, 11)
		_, err := Decode(bytes.NewReader(reframe(t, good, raw)))
		wantSnapErr(t, err, "11-byte varint")
	})
	t.Run("hostile-body-len", func(t *testing.T) {
		line := good[:bytes.IndexByte(good, '\n')+1]
		hacked := bytes.Replace(line, []byte(`"body_len":`), []byte(`"body_len":9999999999999,"x":`), 1)
		_, err := Decode(bytes.NewReader(hacked))
		wantSnapErr(t, err, "hostile body length")
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{1, 10, len(good) / 2, len(good) - 1} {
			if _, err := Decode(bytes.NewReader(good[:n])); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
		}
	})
	t.Run("corrupted-body", func(t *testing.T) {
		headerEnd := bytes.IndexByte(good, '\n') + 1
		for _, off := range []int{headerEnd, headerEnd + (len(good)-headerEnd)/2, len(good) - 1} {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0xff
			_, err := Decode(bytes.NewReader(bad))
			wantSnapErr(t, err, "flipped body byte")
		}
	})
}

// reframe returns the file good with its body replaced by raw: gzipped,
// and the header's length and checksum made to match, so Decode's framing
// checks pass and the body decoder is what faces raw.
func reframe(t testing.TB, good, raw []byte) []byte {
	t.Helper()
	var hdr Header
	if err := json.Unmarshal(good[:bytes.IndexByte(good, '\n')], &hdr); err != nil {
		t.Fatalf("reframe: %v", err)
	}
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	zw.Write(raw)
	zw.Close()
	h := fnv.New64a()
	h.Write(body.Bytes())
	hdr.BodyLen, hdr.BodyFNV = int64(body.Len()), h.Sum64()
	line, _ := json.Marshal(hdr)
	return append(append(line, '\n'), body.Bytes()...)
}

// hostileBodies are well-framed files whose bodies lie about how much
// follows: a first count of 2^40, and a nest of counts that each claim
// every byte left in the input.
func hostileBodies(t testing.TB, good []byte) [][]byte {
	huge := binary.AppendVarint(binary.AppendVarint(nil, FormatVersion), 1<<40)

	// The walk up to ArchState.Cores' count is the common prefix of two
	// envelopes that differ only there; the claims after it nest three
	// deep (Cores, CTAs, BarWaiting).
	a, b := sampleEnvelope(1), sampleEnvelope(1)
	a.State.Arch.Cores, b.State.Arch.Cores = nil, []CoreState{{}}
	ra, rb := encodeBody(a), encodeBody(b)
	at := 0
	for ra[at] == rb[at] {
		at++
	}
	// Built back to front: each varint is the number of bytes after it.
	var rev []byte
	for len(rev) < 16<<10 {
		claim := binary.AppendVarint(nil, int64(len(rev)))
		slices.Reverse(claim)
		rev = append(rev, claim...)
	}
	slices.Reverse(rev)
	nested := append(ra[:at:at], rev...)
	return [][]byte{reframe(t, good, huge), reframe(t, good, nested)}
}

// TestDecodeHostileCountsAllocateLittle: a count is a claim, and memory is
// committed only as the elements it promises arrive.
func TestDecodeHostileCountsAllocateLittle(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleEnvelope(1)); err != nil {
		t.Fatal(err)
	}
	for i, file := range hostileBodies(t, buf.Bytes()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(file))
		runtime.ReadMemStats(&after)
		wantSnapErr(t, err, "hostile counts")
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("hostile body %d: Decode allocated %d bytes refusing a %d-byte file", i, got, len(file))
		}
	}
}

// TestParentWrittenSnapshotRefused: each fixture is sampleEnvelope(1000) as
// an earlier build wrote it — parent-v1 by the last version-1 build (gob
// body, no schema field), parent-v2 by the last build whose metrics
// baseline had no stall vector, parent-v3 by the last build whose spec and
// loop cursors still carried an occupancy-timeline cadence, parent-v4 by
// the last build whose cache lines carried a sector mask (same version,
// other schemas). Every way in must refuse them all and say what to do.
func TestParentWrittenSnapshotRefused(t *testing.T) {
	for file, says := range map[string]string{
		"parent-v1.crispsnap": "version 1",
		"parent-v2.crispsnap": `schema "2605a451a14992ed"`,
		"parent-v3.crispsnap": `schema "b4c56ae3d8abcabe"`,
		"parent-v4.crispsnap": `schema "69b4e52395460c79"`,
	} {
		path := filepath.Join("testdata", file)
		_, errLoad := LoadFile(path)
		_, errPeek := PeekHeader(path)
		for _, err := range []error{errLoad, errPeek} {
			wantSnapErr(t, err, file)
			for _, want := range []string{says, "version 2", "re-checkpoint with this build"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: err = %v, want it to say %q", file, err, want)
				}
			}
		}
	}
}

func TestStoreRetentionAndLatest(t *testing.T) {
	dir := t.TempDir()
	st := &Store{Dir: dir, Retain: 2}
	for _, c := range []int64{100, 200, 300, 400} {
		if _, err := st.Save(sampleEnvelope(c)); err != nil {
			t.Fatalf("Save(%d): %v", c, err)
		}
	}
	names := listCheckpoints(dir)
	if len(names) != 2 {
		t.Fatalf("retention kept %d checkpoints (%v), want 2", len(names), names)
	}
	if names[0] != fileName(300) || names[1] != fileName(400) {
		t.Fatalf("retention kept %v, want the two newest (300, 400)", names)
	}

	// Without a final snapshot, the directory resolves to the newest
	// periodic checkpoint.
	p, err := Resolve(dir)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if filepath.Base(p) != fileName(400) {
		t.Fatalf("Resolve = %s, want %s", p, fileName(400))
	}

	// A newer final snapshot wins; an older one does not.
	if _, err := st.SaveFinal(sampleEnvelope(450)); err != nil {
		t.Fatalf("SaveFinal: %v", err)
	}
	if p, _ = Resolve(dir); filepath.Base(p) != "final"+Ext {
		t.Fatalf("Resolve = %s, want final snapshot at cycle 450", p)
	}
	if _, err := st.SaveFinal(sampleEnvelope(50)); err != nil {
		t.Fatalf("SaveFinal: %v", err)
	}
	if p, _ = Resolve(dir); filepath.Base(p) != fileName(400) {
		t.Fatalf("Resolve = %s, want newest periodic over a stale final", p)
	}

	// Final snapshots survive further retention rounds.
	if _, err := st.Save(sampleEnvelope(500)); err != nil {
		t.Fatalf("Save(500): %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "final"+Ext)); err != nil {
		t.Fatalf("final snapshot pruned by retention: %v", err)
	}

	// No stray temp files remain after atomic writes.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestResolve(t *testing.T) {
	dir := t.TempDir()
	st := &Store{Dir: dir}
	path, err := st.Save(sampleEnvelope(123))
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if p, err := Resolve(path); err != nil || p != path {
		t.Fatalf("Resolve(file) = %s, %v; want the file itself", p, err)
	}
	if p, err := Resolve(dir); err != nil || p != path {
		t.Fatalf("Resolve(dir) = %s, %v; want latest checkpoint %s", p, err, path)
	}
	if _, err := Resolve(filepath.Join(dir, "missing")); err == nil {
		t.Fatalf("Resolve accepted a missing path")
	}
	if _, err := Resolve(t.TempDir()); err == nil {
		t.Fatalf("Resolve accepted an empty directory")
	}
}

func TestFirstDivergence(t *testing.T) {
	mk := func(pairs ...int64) []DigestEntry {
		var out []DigestEntry
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, DigestEntry{Cycle: pairs[i], Digest: uint64(pairs[i+1])})
		}
		return out
	}
	cases := []struct {
		name     string
		a, b     []DigestEntry
		cycle    int64
		diverged bool
	}{
		{"identical", mk(10, 1, 20, 2), mk(10, 1, 20, 2), 0, false},
		{"empty", nil, mk(10, 1), 0, false},
		{"resumed-suffix", mk(10, 1, 20, 2, 30, 3), mk(20, 2, 30, 3), 0, false},
		{"digest-mismatch", mk(10, 1, 20, 2), mk(10, 1, 20, 9), 20, true},
		{"misaligned-cycles", mk(10, 1, 20, 2), mk(10, 1, 25, 2), 20, true},
		{"diverged-suffix", mk(10, 1, 20, 2, 30, 3), mk(20, 2, 30, 9), 30, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, d := FirstDivergence(tc.a, tc.b)
			if d != tc.diverged || (d && c != tc.cycle) {
				t.Fatalf("FirstDivergence = (%d, %v), want (%d, %v)", c, d, tc.cycle, tc.diverged)
			}
		})
	}
}
