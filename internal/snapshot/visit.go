package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
)

// sink receives one walk. A reading sink (Hasher, encoder) consumes what
// it is handed and returns it; a loading sink (decoder) ignores what it
// is handed and returns what its input holds, which visit stores.
type sink interface {
	word(uint64) uint64     // an integer, a bool or a float64's bit pattern
	bytes([]byte) []byte    // a string or a []byte, framed by its length
	count(have int) (n int) // the element count of a slice or array
	loads() bool
}

// visit walks v: integers, bools and float64 bit patterns as one word
// each, strings and []byte length-prefixed, every other slice and array as
// its count then its elements, structs field by field, pointers through.
// The schema is map-free by construction; any other kind panics by name.
func visit(s sink, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		var x uint64
		if v.Bool() {
			x = 1
		}
		if x = s.word(x); s.loads() {
			if x > 1 {
				fail("bool holds %d", x)
			}
			v.SetBool(x == 1)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if x := int64(s.word(uint64(v.Int()))); s.loads() {
			if v.OverflowInt(x) {
				fail("%s holds %d", v.Type(), x)
			}
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if x := s.word(v.Uint()); s.loads() {
			if v.OverflowUint(x) {
				fail("%s holds %d", v.Type(), x)
			}
			v.SetUint(x)
		}
	case reflect.Float64:
		if x := s.word(math.Float64bits(v.Float())); s.loads() {
			v.SetFloat(math.Float64frombits(x))
		}
	case reflect.String:
		if b := s.bytes([]byte(v.String())); s.loads() {
			v.SetString(string(b))
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if b := s.bytes(v.Bytes()); s.loads() {
				v.SetBytes(b)
			}
			return
		}
		// A loading sink's count is a claim, not a fact: it is trusted
		// for at most 1024 elements (trace.Load's cap), past which memory
		// doubles as elements arrive, so a hostile count fails where the
		// input ends instead of allocating up front.
		n := s.count(v.Len())
		for i := 0; i < n; i++ {
			if i == v.Len() {
				if i == v.Cap() {
					v.Grow(max(i+1, min(n-i, 1024)))
				}
				v.SetLen(i + 1)
			}
			visit(s, v.Index(i))
		}
	case reflect.Array:
		if n := s.count(v.Len()); n != v.Len() {
			fail("%s holds %d elements", v.Type(), n)
		}
		for i := 0; i < v.Len(); i++ {
			visit(s, v.Index(i))
		}
	case reflect.Struct:
		for i, n := 0, v.NumField(); i < n; i++ {
			visit(s, v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() && s.loads() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		visit(s, v.Elem())
	default:
		panic(fmt.Sprintf("snapshot: cannot walk a %s", v.Kind()))
	}
}

// schemaOf fingerprints the shape visit walks from t down — kinds and
// field names, in order. The checkpoint body is positional, so a file is
// readable exactly when its writer's fingerprint equals the reader's.
func schemaOf(t reflect.Type) string {
	h := NewHasher()
	var shape func(reflect.Type)
	shape = func(t reflect.Type) {
		h.PutStr(t.Kind().String())
		switch t.Kind() {
		case reflect.Struct:
			h.PutInt(t.NumField())
			for i := 0; i < t.NumField(); i++ {
				h.PutStr(t.Field(i).Name)
				shape(t.Field(i).Type)
			}
		case reflect.Slice, reflect.Array, reflect.Pointer:
			shape(t.Elem())
		}
	}
	shape(t)
	return fmt.Sprintf("%016x", h.Sum64())
}

// schema is the fingerprint of what this build writes and reads.
var schema = schemaOf(reflect.TypeOf(Envelope{}))

// Put hashes v — any value built from the kinds visit walks — as the Put*
// methods would, called leaf by leaf in declaration order.
func (h *Hasher) Put(v any) { visit(h, reflect.ValueOf(v)) }

// The Hasher as a sink: every word and count widened to 64 bits.
func (h *Hasher) word(x uint64) uint64  { h.PutU64(x); return x }
func (h *Hasher) bytes(b []byte) []byte { h.PutBytes(b); return b }
func (h *Hasher) count(n int) int       { h.PutU64(uint64(n)); return n }
func (h *Hasher) loads() bool           { return false }

// encoder appends a walk to one buffer as zigzag varints: simulator state
// is mostly small integers, and the few negative ones (-1 "none" refs)
// stay one byte.
type encoder struct{ buf []byte }

func (e *encoder) word(x uint64) uint64 {
	e.buf = binary.AppendVarint(e.buf, int64(x))
	return x
}
func (e *encoder) bytes(b []byte) []byte {
	e.count(len(b))
	e.buf = append(e.buf, b...)
	return b
}
func (e *encoder) count(n int) int { e.word(uint64(n)); return n }
func (e *encoder) loads() bool     { return false }

// encodeBody is env's walk, uncompressed.
func encodeBody(env *Envelope) []byte {
	var e encoder
	visit(&e, reflect.ValueOf(env))
	return e.buf
}

// decoder reads a walk back. It trusts nothing: every failure — input
// that ends early, a varint that overflows, a value its field cannot
// hold — panics with an error, which Decode recovers and reports.
type decoder struct{ r *bufio.Reader }

func fail(format string, args ...any) { panic(fmt.Errorf(format, args...)) }

// must fails on a read error; inside a walk, end of input is early.
func must(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		fail("%w", err)
	}
}

func (d *decoder) word(uint64) uint64 {
	buf, err := d.r.Peek(binary.MaxVarintLen64) // short only where input ends
	x, n := binary.Varint(buf)
	if n == 0 {
		must(err)
	} else if n < 0 {
		fail("varint overflows 64 bits")
	}
	d.r.Discard(n)
	return uint64(x)
}

func (d *decoder) count(int) int {
	n := int64(d.word(0))
	if n < 0 || int64(int(n)) != n {
		fail("count %d out of range", n)
	}
	return int(n)
}

// bytes commits memory as the bytes arrive, not as the count claims.
func (d *decoder) bytes([]byte) []byte {
	var b bytes.Buffer
	_, err := io.CopyN(&b, d.r, int64(d.count(0)))
	must(err)
	return append([]byte(nil), b.Bytes()...) // nil when empty, as written
}
func (d *decoder) loads() bool { return true }

// decodeBody reads one envelope and nothing else from r.
func decodeBody(r io.Reader) *Envelope {
	d := decoder{r: bufio.NewReader(r)}
	env := new(Envelope)
	visit(&d, reflect.ValueOf(env))
	if _, err := d.r.ReadByte(); err == nil {
		fail("trailing bytes after the envelope")
	} else if err != io.EOF {
		fail("%w", err)
	}
	return env
}
