package snapshot

// Hasher accumulates a canonical FNV-1a/64 digest. Values must be fed in
// a fixed order; variable-length data (strings, byte slices, repeated
// groups) must be preceded by its length so distinct structures can never
// collide by concatenation.
type Hasher struct {
	sum uint64
}

// NewHasher returns a Hasher primed with the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{sum: fnvOffset} }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPow[k] is fnvPrime^k: hashing k zero bytes multiplies the sum by it.
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// PutU64 hashes one fixed-width unsigned value, as its eight
// little-endian bytes; the zero high bytes of a small value cost one
// multiplication together.
func (h *Hasher) PutU64(v uint64) {
	s, zeros := h.sum, 8
	for ; v != 0; v >>= 8 {
		s = (s ^ v&0xff) * fnvPrime
		zeros--
	}
	h.sum = s * fnvPow[zeros]
}

// PutI64 hashes one fixed-width signed value.
func (h *Hasher) PutI64(v int64) { h.PutU64(uint64(v)) }

// PutInt hashes an int (widened to 64 bits so the digest is identical on
// 32- and 64-bit builds).
func (h *Hasher) PutInt(v int) { h.PutU64(uint64(int64(v))) }

// PutU32 hashes one 32-bit unsigned value (widened).
func (h *Hasher) PutU32(v uint32) { h.PutU64(uint64(v)) }

// PutU8 hashes one byte-sized value (widened).
func (h *Hasher) PutU8(v uint8) { h.PutU64(uint64(v)) }

// PutBool hashes a bool as one full-width word.
func (h *Hasher) PutBool(v bool) {
	if v {
		h.PutU64(1)
	} else {
		h.PutU64(0)
	}
}

// PutStr hashes a length-prefixed string.
func (h *Hasher) PutStr(s string) { h.PutBytes([]byte(s)) }

// PutBytes hashes a length-prefixed byte slice (nil and empty hash alike:
// both are zero-length).
func (h *Hasher) PutBytes(b []byte) {
	h.PutU64(uint64(len(b)))
	for _, x := range b {
		h.sum = (h.sum ^ uint64(x)) * fnvPrime
	}
}

// PutI64s hashes a length-prefixed []int64.
func (h *Hasher) PutI64s(vs []int64) {
	h.PutU64(uint64(len(vs)))
	for _, v := range vs {
		h.PutI64(v)
	}
}

// Sum64 returns the digest accumulated so far.
func (h *Hasher) Sum64() uint64 { return h.sum }

// ArchDigest is the determinism digest: the schema walk (visit.go) over
// the architectural state into a Hasher. It is a pure function of the
// state — identical machine states digest identically in any process and
// any binary — so any digest mismatch is a real simulation divergence.
func ArchDigest(a *ArchState) (uint64, error) {
	h := NewHasher()
	h.Put(a)
	return h.Sum64(), nil
}
