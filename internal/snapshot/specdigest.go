package snapshot

import (
	"fmt"
	"hash/fnv"

	"crisp/internal/config"
)

// JobDigest is the canonical content address of the simulation a Spec
// describes: two specs digest identically iff they produce bit-identical
// simulation results. It is the cache key of the batch service's
// content-addressed result store and the identity stamped into every
// snapshot file header, built from the same canonical config hash
// (config.Digest) in both places.
//
// Only result-determining fields participate: the GPU configuration (via
// config.Digest), the workload names, the policy, the render options, and
// the structural run shape (graphics window/frames, scheduler variant).
// Observability cadences (metrics and digest sampling) are excluded
// — they never perturb architectural results, so runs differing only in
// instrumentation share one digest.
func (s *Spec) JobDigest() string {
	h := fnv.New64a()
	field := func(name, value string) {
		h.Write([]byte(name))
		h.Write([]byte{'='})
		h.Write([]byte(value))
		h.Write([]byte{0})
	}
	field("gpu", config.Digest(s.GPU))
	field("scene", s.Scene)
	field("compute", s.Compute)
	field("policy", s.Policy)
	field("render_options", string(s.RenderOptions))
	field("graphics_window", fmt.Sprint(s.GraphicsWindow))
	field("graphics_frames", fmt.Sprint(s.GraphicsFrames))
	field("lrr", fmt.Sprint(s.LRRScheduler))
	// Appended only when present so every pre-mix pair spec keeps its
	// original digest (the service's cache keys stay valid).
	if len(s.Mix) > 0 {
		field("mix", string(s.Mix))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
