package snapshot

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// perturb is a loading sink that hands every leaf back as it came except
// the k-th, which it changes: a word's low bit flipped, a string or []byte
// one byte longer, a slice one (zero) element longer. n counts leaves.
type perturb struct{ k, n int }

func (p *perturb) hit() bool { p.n++; return p.n-1 == p.k }
func (p *perturb) word(x uint64) uint64 {
	if p.hit() {
		return x ^ 1
	}
	return x
}
func (p *perturb) bytes(b []byte) []byte {
	if p.hit() {
		return append(bytes.Clone(b), 'x')
	}
	return b
}
func (p *perturb) count(n int) int {
	if p.hit() {
		return n + 1
	}
	return n
}
func (p *perturb) loads() bool { return true }

// leaves counts the leaves visit reaches under v.
func leaves(v any) int {
	p := perturb{k: -1}
	visit(&p, reflect.ValueOf(v))
	return p.n
}

// perturbed is sampleEnvelope(1000) with its k-th leaf changed.
func perturbed(t *testing.T, k int) *Envelope {
	t.Helper()
	env := sampleEnvelope(1000)
	visit(&perturb{k: k}, reflect.ValueOf(env))
	if reflect.DeepEqual(env, sampleEnvelope(1000)) {
		t.Fatalf("leaf %d: the perturbation changed nothing", k)
	}
	return env
}

// TestArchDigestSensitivity: the digest must see every leaf of ArchState
// and nothing else. The walk itself enumerates the leaves, so a field
// added to the schema is covered the moment it is declared.
func TestArchDigestSensitivity(t *testing.T) {
	sample := sampleEnvelope(1000)
	base, _ := ArchDigest(&sample.State.Arch)
	archFrom := leaves(&sample.Version) + leaves(&sample.Spec)
	archTo := archFrom + leaves(&sample.State.Arch)
	total := leaves(sample)
	if archTo-archFrom < 100 || total <= archTo {
		t.Fatalf("leaf census: arch [%d,%d) of %d; the sample is not populated", archFrom, archTo, total)
	}
	for k := 0; k < total; k++ {
		env := perturbed(t, k)
		d, _ := ArchDigest(&env.State.Arch)
		if inArch := archFrom <= k && k < archTo; inArch && d == base {
			t.Errorf("leaf %d: changing an ArchState leaf did not move the digest", k)
		} else if !inArch && d != base {
			t.Errorf("leaf %d: a leaf outside ArchState moved the digest", k)
		}
	}
}

// structTypes collects every struct type reachable from t.
func structTypes(t reflect.Type, into map[reflect.Type]bool) {
	switch t.Kind() {
	case reflect.Struct:
		into[t] = true
		for i := 0; i < t.NumField(); i++ {
			structTypes(t.Field(i).Type, into)
		}
	case reflect.Slice, reflect.Array, reflect.Pointer:
		structTypes(t.Elem(), into)
	}
}

// structValues collects the type of every struct value present under v.
func structValues(v reflect.Value, into map[reflect.Type]bool) {
	switch v.Kind() {
	case reflect.Struct:
		into[v.Type()] = true
		for i := 0; i < v.NumField(); i++ {
			structValues(v.Field(i), into)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			structValues(v.Index(i), into)
		}
	case reflect.Pointer:
		structValues(v.Elem(), into)
	}
}

// TestRoundTripEveryLeaf: whatever single leaf differs from the sample,
// the file carries it — Decode(Encode(env)) is env, digest included. The
// sample must hold a value of every struct type the schema can reach, so
// a new schema type cannot go untested.
func TestRoundTripEveryLeaf(t *testing.T) {
	sample := sampleEnvelope(1000)
	want, have := map[reflect.Type]bool{}, map[reflect.Type]bool{}
	structTypes(reflect.TypeOf(sample), want)
	structValues(reflect.ValueOf(sample), have)
	for typ := range want {
		if !have[typ] {
			t.Errorf("sampleEnvelope holds no %s; add one so the walk over it is tested", typ)
		}
	}
	// Leaf 0 is Envelope.Version, which the header check owns
	// (TestDecodeRejectsHostileInput).
	for k := 1; k < leaves(sample); k++ {
		env := perturbed(t, k)
		var buf bytes.Buffer
		if err := Encode(&buf, env); err != nil {
			t.Fatalf("leaf %d: Encode: %v", k, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("leaf %d: Decode: %v", k, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("leaf %d: round trip altered the envelope:\n got %+v\nwant %+v", k, got, env)
		}
		d1, _ := ArchDigest(&env.State.Arch)
		d2, _ := ArchDigest(&got.State.Arch)
		if d1 != d2 {
			t.Fatalf("leaf %d: digest changed across round trip: %#x != %#x", k, d1, d2)
		}
	}
}

// kinds holds what the schema reachable from Envelope does not: arrays, a
// pointer to allocate, the narrow integer widths.
type kinds struct {
	A  [3]int16
	P  *struct{ F float64 }
	U8 uint8
	I8 int8
	B  bool
	S  string
}

func decodeInto(raw []byte, into any) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%v", rec)
		}
	}()
	visit(&decoder{r: bufio.NewReader(bytes.NewReader(raw))}, reflect.ValueOf(into))
	return nil
}

// TestVisitKinds covers the cases of visit that the Envelope round trip
// cannot reach, and the refusals of values a field cannot hold.
func TestVisitKinds(t *testing.T) {
	in := kinds{A: [3]int16{-1, 2, 300}, P: &struct{ F float64 }{1.5}, U8: 255, I8: -128, B: true, S: "ab"}
	var e encoder
	visit(&e, reflect.ValueOf(&in))
	var out kinds
	if err := decodeInto(e.buf, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v (P %+v), want %+v", out, out.P, in)
	}

	// The hash sink frames an array as PutI64s frames a slice and widens
	// every width to one word.
	h1, h2 := NewHasher(), NewHasher()
	h1.Put(&in)
	h2.PutI64s([]int64{-1, 2, 300})
	h2.PutU64(0x3ff8000000000000) // 1.5
	h2.PutU8(255)
	h2.PutInt(-128)
	h2.PutBool(true)
	h2.PutStr("ab")
	if h1.Sum64() != h2.Sum64() {
		t.Errorf("Put(kinds) = %016x, the Put* sequence = %016x", h1.Sum64(), h2.Sum64())
	}

	enc := func(v any) []byte {
		var e encoder
		visit(&e, reflect.ValueOf(v))
		return e.buf
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		into any
		want string
	}{
		{"int8 overflow", enc(int64(128)), new(int8), "int8 holds 128"},
		{"uint8 overflow", enc(uint64(256)), new(uint8), "uint8 holds 256"},
		{"bool out of range", enc(uint64(2)), new(bool), "bool holds 2"},
		{"array count", enc([]int16{1, 2}), new([3]int16), "holds 2 elements"},
		{"negative count", enc(int64(-1)), new([]int64), "count -1"},
		{"short", enc([]int64{1, 2, 3})[:2], new([]int64), "unexpected EOF"},
	} {
		if err := decodeInto(tc.raw, tc.into); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to say %q", tc.name, err, tc.want)
		}
	}

	defer func() {
		if rec := recover(); rec == nil || !strings.Contains(rec.(string), "map") {
			t.Errorf("walking a map: recovered %v, want a panic naming the kind", rec)
		}
	}()
	NewHasher().Put(map[string]int{})
}
