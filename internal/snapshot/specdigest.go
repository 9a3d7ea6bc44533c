package snapshot

import (
	"fmt"

	"crisp/internal/config"
)

// ConfigDigest is the content address of a GPU configuration: the walk of
// g into a Hasher, as 16 lowercase hex digits. Two configs digest alike
// iff every field is equal, however they were built (preset constructor,
// JSON file, inline literal): every field of config.GPU is simulated
// hardware, and a host-execution knob does not belong in it.
func ConfigDigest(g config.GPU) string {
	h := NewHasher()
	h.Put(g)
	return fmt.Sprintf("%016x", h.Sum64())
}

// JobDigest is the content address of the simulation a Spec describes:
// the walk of the spec with MetricsInterval, DigestEvery and Complete
// zeroed. Those three never change a simulated result; every other field,
// present or future, keys the job by being a field. Within one build, two
// specs digest alike iff they produce bit-identical results. It is the
// batch service's result-cache key and the spec_digest of every snapshot
// header.
func (s *Spec) JobDigest() string {
	c := *s
	c.MetricsInterval, c.DigestEvery, c.Complete = 0, 0, false
	h := NewHasher()
	h.Put(&c)
	return fmt.Sprintf("%016x", h.Sum64())
}
