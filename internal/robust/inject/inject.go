// Package inject is a deterministic fault-injection harness for hardening
// tests: it perturbs execution traces and GPU configurations in the ways
// real trace collectors and hand-written configs go wrong — truncated
// warps, empty CTAs, missing barriers, oversized resource footprints,
// malformed memory operands — and records, for each fault, which layer of
// the simulator is expected to catch it. Tests drive the catalog to prove
// that no fault escalates past its containment layer into a hang or a
// panic.
//
// All perturbations are driven by a caller-provided *rand.Rand, so a fixed
// seed reproduces the exact same mutation. Warps share programs and a clone
// shares them with its original, so a fault never writes into a program or
// an arena: it gives the warp a new one (copy-on-write).
package inject

import (
	"math/rand"
	"slices"

	"crisp/internal/config"
	"crisp/internal/isa"
	"crisp/internal/trace"
)

// Expect names the simulator layer that must contain a fault.
type Expect int

const (
	// ExpectValidation faults are rejected by trace.Kernel.Validate (and
	// therefore by gpu.AddStream before any simulation starts).
	ExpectValidation Expect = iota
	// ExpectAddStream faults pass Validate but describe a CTA that can
	// never fit a whole SM; gpu.AddStream rejects them with a static
	// deadlock SimError.
	ExpectAddStream
	// ExpectRuntime faults pass all static checks and hang the machine at
	// run time (e.g. a warp missing a barrier); the forward-progress
	// watchdog or barrier-livelock detection must convert the hang into a
	// watchdog SimError.
	ExpectRuntime
	// ExpectIntraSM faults produce kernels that place on a whole SM but
	// not inside a half-SM envelope: they complete under whole-SM policies
	// (Serial, MPS, MiG) and must fail with a deadlock SimError under
	// intra-SM split policies (EVEN, Priority).
	ExpectIntraSM
	// ExpectTolerated faults are benign perturbations the simulator must
	// absorb: the run completes normally.
	ExpectTolerated
)

var expectNames = map[Expect]string{
	ExpectValidation: "validation",
	ExpectAddStream:  "addstream",
	ExpectRuntime:    "runtime",
	ExpectIntraSM:    "intra-sm",
	ExpectTolerated:  "tolerated",
}

func (e Expect) String() string { return expectNames[e] }

// Fault is one trace perturbation.
type Fault struct {
	Name   string
	Expect Expect
	// Apply mutates kernels in place (callers clone first; see
	// CloneKernels), drawing randomness only from rng. It reports whether
	// the fault was applicable to the given trace — e.g. drop-barrier
	// needs a multi-warp CTA with a BAR instruction.
	Apply func(kernels []*trace.Kernel, rng *rand.Rand) bool
}

// Catalog returns the trace-fault catalog. The returned faults are
// stateless; the same slice contents are returned on every call.
func Catalog() []Fault {
	return []Fault{
		{
			// A trace writer died mid-warp: the warp's instruction list is
			// cut short and loses its terminating EXIT.
			Name:   "truncate-warp",
			Expect: ExpectValidation,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				w := pickWarp(ks, rng, func(w *trace.Warp) bool { return len(w.Insts) >= 1 })
				if w == nil {
					return false
				}
				w.Insts = w.Insts[:len(w.Insts)-1]
				if len(w.Insts) > 0 && w.Insts[len(w.Insts)-1].Op == isa.OpEXIT {
					// Trailing EXIT duplicated; cut again so it is gone.
					w.Insts = w.Insts[:len(w.Insts)-1]
				}
				return true
			},
		},
		{
			// A zero-size CTA: the grid entry exists but carries no warps.
			Name:   "zero-cta",
			Expect: ExpectValidation,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				k := ks[rng.Intn(len(ks))]
				if len(k.CTAs) == 0 {
					return false
				}
				k.CTAs[rng.Intn(len(k.CTAs))].Warps = nil
				return true
			},
		},
		{
			// An instruction with no active lanes — a corrupted mask.
			Name:   "empty-mask",
			Expect: ExpectValidation,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				w, i := pickInst(ks, rng, func(*trace.Inst) bool { return true })
				if w == nil {
					return false
				}
				w.Insts = slices.Clone(w.Insts)
				w.Insts[i].Mask = 0
				return true
			},
		},
		{
			// A global memory instruction whose per-lane address list does
			// not match its active mask: one address too few, so the
			// record is shorter than its form byte and the mask say and
			// the warp's records no longer tile the arena.
			Name:   "addr-mismatch",
			Expect: ExpectValidation,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				w, i := pickInst(ks, rng, func(in *trace.Inst) bool {
					return isa.SpaceOf(in.Op) == isa.SpaceGlobal && in.HasAddrs() && in.ActiveLanes() >= 2
				})
				return w != nil && dropLastAddr(w, i)
			},
		},
		{
			// A non-memory instruction dragging address operands along.
			Name:   "nonmem-addrs",
			Expect: ExpectValidation,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				w, i := pickInst(ks, rng, func(in *trace.Inst) bool {
					return !isa.IsMemory(in.Op) && in.Op != isa.OpEXIT
				})
				if w == nil {
					return false
				}
				w.SetAddrs(i, []uint64{0xDEAD0000})
				return true
			},
		},
		{
			// A trace tool re-homed a warp's instructions under a warp
			// header built elsewhere: the instructions' address records
			// and line-table entries now point past the new header's
			// (empty) arenas.
			Name:   "stale-line-table",
			Expect: ExpectValidation,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				w := pickWarp(ks, rng, func(w *trace.Warp) bool { return lastAddrInst(w, 1) >= 0 })
				if w == nil {
					return false
				}
				b := trace.NewBuilder("donor", trace.KindCompute, 0, isa.WarpSize, 1, 0)
				b.BeginCTA()
				b.BeginWarp()
				donor := b.Finish().CTAs[0].Warps[0] // one EXIT, arenas with nothing in them
				donor.ID, donor.Insts = w.ID, w.Insts
				*w = donor
				return true
			},
		},
		{
			// A trace writer died mid-arena: the warp's last address
			// record is a lane short and runs past the arena's end.
			Name:   "addr-arena-overrun",
			Expect: ExpectValidation,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				w := pickWarp(ks, rng, func(w *trace.Warp) bool { return lastAddrInst(w, 2) >= 0 })
				return w != nil && dropLastAddr(w, lastAddrInst(w, 2))
			},
		},
		{
			// A CTA bigger than a whole SM: more warps than any SM holds.
			// Validate passes (the trace is internally consistent); only
			// the launch-time fit check can reject it.
			Name:   "oversize-cta",
			Expect: ExpectAddStream,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				k := ks[rng.Intn(len(ks))]
				k.ThreadsPerCTA = 65 * isa.WarpSize // 65 warps: one more than an Ampere SM holds
				return true
			},
		},
		{
			// One warp of a multi-warp CTA lost a BAR: its siblings arrive
			// at the barrier and wait forever. Static checks cannot see
			// this; the watchdog must.
			Name:   "drop-barrier",
			Expect: ExpectRuntime,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				w := pickWarpInMultiWarpCTA(ks, rng, func(w *trace.Warp) bool {
					for i := range w.Insts {
						if w.Insts[i].Op == isa.OpBAR {
							return true
						}
					}
					return false
				})
				if w == nil {
					return false
				}
				for i := range w.Insts {
					if w.Insts[i].Op == isa.OpBAR {
						w.Insts = slices.Delete(slices.Clone(w.Insts), i, i+1)
						break
					}
				}
				return true
			},
		},
		{
			// A source-register dependence on a register no prior
			// instruction wrote. The scoreboard only tracks in-flight
			// writes, so a dangling dependence resolves immediately — the
			// simulator must tolerate it.
			Name:   "dangling-dep",
			Expect: ExpectTolerated,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				w, i := pickInst(ks, rng, func(in *trace.Inst) bool {
					return in.Op != isa.OpEXIT && in.Op != isa.OpBAR
				})
				if w == nil {
					return false
				}
				w.Insts = slices.Clone(w.Insts)
				w.Insts[i].SrcA = isa.Reg(250) // far above any builder-allocated register
				return true
			},
		},
		{
			// Shared-memory oversubscription: the CTA fits a whole SM but
			// not half of one. Whole-SM policies run it; intra-SM split
			// policies can never place it and must report deadlock rather
			// than spin.
			Name:   "oversubscribe",
			Expect: ExpectIntraSM,
			Apply: func(ks []*trace.Kernel, rng *rand.Rand) bool {
				k := ks[rng.Intn(len(ks))]
				k.SharedMem = 48 << 10 // 48 KB of the 64 KB SM: > half, ≤ whole
				return true
			},
		},
	}
}

// ByName returns the catalog fault with the given name, or nil.
func ByName(name string) *Fault {
	for _, f := range Catalog() {
		if f.Name == name {
			ff := f
			return &ff
		}
	}
	return nil
}

// ConfigFault is one GPU-configuration perturbation that config.Validate
// (and therefore gpu.New) must reject.
type ConfigFault struct {
	Name  string
	Apply func(*config.GPU)
}

// ConfigCatalog returns the config-fault catalog; every entry must be
// rejected by (*config.GPU).Validate.
func ConfigCatalog() []ConfigFault {
	return []ConfigFault{
		{Name: "zero-sms", Apply: func(g *config.GPU) { g.NumSMs = 0 }},
		{Name: "bad-l2-banks", Apply: func(g *config.GPU) { g.L2Banks = 3 }},
		{Name: "negative-bandwidth", Apply: func(g *config.GPU) { g.MemBandwidthGBps = -1 }},
		{Name: "warps-not-multiple", Apply: func(g *config.GPU) { g.MaxWarpsPerSM = 63 }},
	}
}

// dropLastAddr re-packs instruction i of w with its last lane's address
// missing (Warp.SetAddrs: the warp loses its line table with it, so a run
// that got past validation would derive lines from the edited addresses).
// It reports false for an instruction whose record an earlier fault already
// put out of reach.
func dropLastAddr(w *trace.Warp, i int) bool {
	var lanes [isa.WarpSize]uint64
	addrs := w.Addrs(w.CursorAt(i), &w.Insts[i], &lanes)
	if len(addrs) == 0 {
		return false
	}
	w.SetAddrs(i, addrs[:len(addrs)-1])
	return true
}

// lastAddrInst returns the index of w's last instruction that carries
// addresses, if it has at least lanes active lanes; otherwise -1.
func lastAddrInst(w *trace.Warp, lanes int) int {
	for i := len(w.Insts) - 1; i >= 0; i-- {
		if in := &w.Insts[i]; in.HasAddrs() {
			if in.ActiveLanes() >= lanes {
				return i
			}
			break
		}
	}
	return -1
}

// CloneKernels copies kernels, CTAs and warps so faults can be applied
// without disturbing the caller's traces. The copies share the originals'
// programs, address arenas and line tables, which no fault writes into (see
// the package comment).
func CloneKernels(kernels []*trace.Kernel) []*trace.Kernel {
	out := make([]*trace.Kernel, len(kernels))
	for i, k := range kernels {
		kk := *k
		kk.CTAs = slices.Clone(k.CTAs)
		for c := range kk.CTAs {
			kk.CTAs[c].Warps = slices.Clone(k.CTAs[c].Warps)
		}
		out[i] = &kk
	}
	return out
}

// pickWarp selects a uniformly random warp satisfying ok, or nil.
func pickWarp(ks []*trace.Kernel, rng *rand.Rand, ok func(*trace.Warp) bool) *trace.Warp {
	var candidates []*trace.Warp
	for _, k := range ks {
		for c := range k.CTAs {
			for w := range k.CTAs[c].Warps {
				if ok(&k.CTAs[c].Warps[w]) {
					candidates = append(candidates, &k.CTAs[c].Warps[w])
				}
			}
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[rng.Intn(len(candidates))]
}

// pickWarpInMultiWarpCTA is pickWarp restricted to CTAs with ≥ 2 warps
// (so a dropped barrier actually strands the siblings).
func pickWarpInMultiWarpCTA(ks []*trace.Kernel, rng *rand.Rand, ok func(*trace.Warp) bool) *trace.Warp {
	var candidates []*trace.Warp
	for _, k := range ks {
		for c := range k.CTAs {
			if len(k.CTAs[c].Warps) < 2 {
				continue
			}
			for w := range k.CTAs[c].Warps {
				if ok(&k.CTAs[c].Warps[w]) {
					candidates = append(candidates, &k.CTAs[c].Warps[w])
				}
			}
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[rng.Intn(len(candidates))]
}

// pickInst selects a uniformly random instruction satisfying ok and returns
// its warp and its index there, or nil.
func pickInst(ks []*trace.Kernel, rng *rand.Rand, ok func(*trace.Inst) bool) (*trace.Warp, int) {
	type ref struct {
		w *trace.Warp
		i int
	}
	var candidates []ref
	for _, k := range ks {
		for c := range k.CTAs {
			for w := range k.CTAs[c].Warps {
				warp := &k.CTAs[c].Warps[w]
				for l := range warp.Insts {
					if ok(&warp.Insts[l]) {
						candidates = append(candidates, ref{warp, l})
					}
				}
			}
		}
	}
	if len(candidates) == 0 {
		return nil, 0
	}
	r := candidates[rng.Intn(len(candidates))]
	return r.w, r.i
}
