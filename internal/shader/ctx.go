// Package shader implements CRISP's unified shader model: one execution
// context serves vertex shaders, fragment shaders, and compute kernels.
//
// A shader here is a Go function written against Ctx's operation set.
// Every operation does two things at once: it computes the real per-lane
// float values (the functional model — actual positions, texels, colors),
// and it lowers itself to one or more SASS-like trace instructions with
// register dependencies and per-lane memory addresses (the timing model's
// input). This mirrors the paper's flow, where the functional simulator
// executes shaders and records SASS-compatible traces for Accel-Sim.
//
// A Val is a handle: its lanes live in an arena the Ctx owns, and every
// operation writes its result lanes there, in place. A Val is valid until
// its Ctx's next Reset, which hands the same slots to the next warp; a Ctx
// belongs to one goroutine.
package shader

import (
	"math"
	"math/bits"

	"crisp/internal/gmath"
	"crisp/internal/isa"
	"crisp/internal/texture"
	"crisp/internal/trace"
)

// Lanes is the SIMT width of one warp.
const Lanes = isa.WarpSize

// Val is an SSA value: a virtual register and a handle to its lanes, one
// float per lane, in the arena of the Ctx that made it.
type Val struct {
	Reg isa.Reg
	V   *[Lanes]float32
}

// slabVals is how many lane vectors one arena slab holds. The arena grows
// by whole slabs, so a slot never moves once handed out.
const slabVals = 32

type slab [slabVals][Lanes]float32

// Ctx executes one warp of a shader, emitting its trace as it goes.
type Ctx struct {
	B    *trace.Builder
	Mask uint32
	// LodEnabled selects mipmapped sampling; when false every TEX
	// references mip level 0 (the paper's "LoD off" configuration).
	LodEnabled bool
	// Filter is the texture filter applied by TexSample.
	Filter texture.Filter

	// RefFootprint, when set, is the exact per-quad LoD basis (the
	// hardware reference); TexSample then also samples at it and reports
	// the reference addresses through OnTex, which the LoD validation
	// study (paper Fig. 9) consumes.
	RefFootprint *[Lanes]float32
	// OnTex, when non-nil, is told of each TEX instruction: the number of
	// cache lines its simulated addresses touch, and the exact-LoD
	// reference addresses (nil without RefFootprint), which are scratch,
	// valid during the call only.
	OnTex func(simLines int, refAddrs []uint64)

	// addrs is scratch for the per-lane addresses of the memory
	// instruction being emitted, and then of a TEX's exact-LoD reference;
	// the Builder and OnTex do not retain them.
	addrs [Lanes]uint64

	// slabs is the lane arena; slots [0, used) belong to the current warp.
	slabs []*slab
	used  int
}

// NewCtx starts a warp-execution context over builder b with the given
// active mask. LoD defaults to enabled with trilinear filtering.
func NewCtx(b *trace.Builder, mask uint32) *Ctx {
	c := &Ctx{}
	c.Reset(b, mask)
	return c
}

// Reset starts the next warp on c, over builder b with the given active
// mask, as NewCtx would, keeping the arena: every Val c made before is
// invalid from here on.
func (c *Ctx) Reset(b *trace.Builder, mask uint32) {
	c.B, c.Mask = b, mask
	c.LodEnabled, c.Filter = true, texture.FilterTrilinear
	c.RefFootprint, c.OnTex = nil, nil
	c.used = 0
}

// ActiveLanes reports the number of active lanes.
func (c *Ctx) ActiveLanes() int { return bits.OnesCount32(c.Mask) }

// slot hands out the next lane vector of the arena. It holds whatever an
// earlier warp left there: its caller writes every lane.
func (c *Ctx) slot() *[Lanes]float32 {
	s, i := c.used/slabVals, c.used%slabVals
	if s == len(c.slabs) {
		c.slabs = append(c.slabs, new(slab))
	}
	c.used++
	return &c.slabs[s][i]
}

func (c *Ctx) newVal() Val { return Val{Reg: c.B.NewReg(), V: c.slot()} }

// zeroVal is newVal with every lane 0, for producers with no functional
// value.
func (c *Ctx) zeroVal() Val {
	v := c.newVal()
	*v.V = [Lanes]float32{}
	return v
}

// Imm materializes an immediate constant into a register (MOV).
func (c *Ctx) Imm(x float32) Val {
	v := c.newVal()
	for i := range v.V {
		v.V[i] = x
	}
	c.B.ALU(isa.OpMOV, v.Reg, c.Mask)
	return v
}

// Uniform loads a uniform scalar through the constant cache (LDC).
func (c *Ctx) Uniform(x float32) Val {
	v := c.newVal()
	for i := range v.V {
		v.V[i] = x
	}
	c.B.Mem(isa.OpLDC, v.Reg, c.Mask, nil, trace.ClassNone)
	return v
}

// Add returns a+b (FADD).
func (c *Ctx) Add(a, b Val) Val {
	r := c.newVal()
	x, y, z := a.V, b.V, r.V
	for i := range z {
		z[i] = x[i] + y[i]
	}
	c.B.ALU(isa.OpFADD, r.Reg, c.Mask, a.Reg, b.Reg)
	return r
}

// Sub returns a-b (FADD with negated operand).
func (c *Ctx) Sub(a, b Val) Val {
	r := c.newVal()
	x, y, z := a.V, b.V, r.V
	for i := range z {
		z[i] = x[i] - y[i]
	}
	c.B.ALU(isa.OpFADD, r.Reg, c.Mask, a.Reg, b.Reg)
	return r
}

// Mul returns a*b (FMUL).
func (c *Ctx) Mul(a, b Val) Val {
	r := c.newVal()
	x, y, z := a.V, b.V, r.V
	for i := range z {
		z[i] = x[i] * y[i]
	}
	c.B.ALU(isa.OpFMUL, r.Reg, c.Mask, a.Reg, b.Reg)
	return r
}

// FMA returns a*b+d (FFMA).
func (c *Ctx) FMA(a, b, d Val) Val {
	r := c.newVal()
	x, y, w, z := a.V, b.V, d.V, r.V
	for i := range z {
		z[i] = x[i]*y[i] + w[i]
	}
	c.B.ALU(isa.OpFFMA, r.Reg, c.Mask, a.Reg, b.Reg, d.Reg)
	return r
}

// Min returns min(a, b) (FMNMX).
func (c *Ctx) Min(a, b Val) Val {
	r := c.newVal()
	x, y, z := a.V, b.V, r.V
	for i := range z {
		z[i] = gmath.Min(x[i], y[i])
	}
	c.B.ALU(isa.OpFMNMX, r.Reg, c.Mask, a.Reg, b.Reg)
	return r
}

// Max returns max(a, b) (FMNMX).
func (c *Ctx) Max(a, b Val) Val {
	r := c.newVal()
	x, y, z := a.V, b.V, r.V
	for i := range z {
		z[i] = gmath.Max(x[i], y[i])
	}
	c.B.ALU(isa.OpFMNMX, r.Reg, c.Mask, a.Reg, b.Reg)
	return r
}

// mufu starts a one-source MUFU op: it emits the instruction and returns
// the result value with the source and result lanes to fill.
func (c *Ctx) mufu(op isa.Opcode, a Val) (r Val, x, z *[Lanes]float32) {
	r = c.newVal()
	c.B.ALU(op, r.Reg, c.Mask, a.Reg)
	return r, a.V, r.V
}

// wide returns the lanes of v as float64s, for a MUFU op that calls into
// float64 math. Converting each lane on its way into the call instead would
// write the half of a register whose other half still holds the previous
// lane's result: a false dependency that chains every lane's call behind the
// one before.
func wide(v *[Lanes]float32) (w [Lanes]float64) {
	for i := range w {
		w[i] = float64(v[i])
	}
	return w
}

// Rcp returns 1/a (MUFU.RCP).
func (c *Ctx) Rcp(a Val) Val {
	r, x, z := c.mufu(isa.OpMUFURCP, a)
	for i := range z {
		if x[i] == 0 {
			z[i] = float32(math.Inf(1))
		} else {
			z[i] = 1 / x[i]
		}
	}
	return r
}

// Rsqrt returns 1/sqrt(a) (MUFU.RSQ).
func (c *Ctx) Rsqrt(a Val) Val {
	r, x, z := c.mufu(isa.OpMUFURSQ, a)
	for i := range z {
		if x[i] <= 0 {
			z[i] = 0
		} else {
			z[i] = 1 / gmath.Sqrt(x[i])
		}
	}
	return r
}

// Sqrt returns sqrt(a) as RSQ followed by RCP, like compiled code does.
func (c *Ctx) Sqrt(a Val) Val { return c.Rcp(c.Rsqrt(a)) }

// Sin returns sin(a) (MUFU.SIN).
func (c *Ctx) Sin(a Val) Val {
	r, x, z := c.mufu(isa.OpMUFUSIN, a)
	w := wide(x)
	for i := range z {
		z[i] = float32(math.Sin(w[i]))
	}
	return r
}

// Cos returns cos(a) (MUFU.COS).
func (c *Ctx) Cos(a Val) Val {
	r, x, z := c.mufu(isa.OpMUFUCOS, a)
	w := wide(x)
	for i := range z {
		z[i] = float32(math.Cos(w[i]))
	}
	return r
}

// Ex2 returns 2^a (MUFU.EX2).
func (c *Ctx) Ex2(a Val) Val {
	r, x, z := c.mufu(isa.OpMUFUEX2, a)
	w := wide(x)
	for i := range z {
		z[i] = float32(math.Pow(2, w[i]))
	}
	return r
}

// Lg2 returns log2(a) (MUFU.LG2).
func (c *Ctx) Lg2(a Val) Val {
	r, x, z := c.mufu(isa.OpMUFULG2, a)
	w := wide(x)
	for i := range z {
		if w[i] <= 0 {
			z[i] = -126
		} else {
			z[i] = float32(math.Log2(w[i]))
		}
	}
	return r
}

// Pow returns a^b lowered to EX2(b*LG2(a)), the standard expansion.
func (c *Ctx) Pow(a, b Val) Val { return c.Ex2(c.Mul(b, c.Lg2(a))) }

// Clamp returns a limited to [lo, hi] using two FMNMX.
func (c *Ctx) Clamp(a Val, lo, hi float32) Val {
	return c.Min(c.Max(a, c.Imm(lo)), c.Imm(hi))
}

// Lerp returns a + (b-a)*t (two instructions: FADD, FFMA).
func (c *Ctx) Lerp(a, b, t Val) Val { return c.FMA(t, c.Sub(b, a), a) }

// Input binds pipeline-provided per-lane values (vertex attributes or
// interpolated varyings) to a register, modeled as a global load of the
// given class from the given per-lane addresses.
func (c *Ctx) Input(values *[Lanes]float32, addrs []uint64, class trace.MemClass) Val {
	v := c.newVal()
	*v.V = *values
	c.B.Mem(isa.OpLDG, v.Reg, c.Mask, addrs, class)
	return v
}

// ride binds values to a register produced by the same wide fetch as lead:
// a MOV dependent on the lead load, carrying no extra memory traffic
// (vector attributes load with one LDG.128 on real hardware).
func (c *Ctx) ride(values *[Lanes]float32, lead Val) Val {
	v := c.newVal()
	*v.V = *values
	c.B.ALU(isa.OpMOV, v.Reg, c.Mask, lead.Reg)
	return v
}

// InputVec2 loads a two-component attribute with one fetch.
func (c *Ctx) InputVec2(x, y *[Lanes]float32, addrs []uint64, class trace.MemClass) (Val, Val) {
	vx := c.Input(x, addrs, class)
	return vx, c.ride(y, vx)
}

// InputVec3 loads a three-component attribute with one fetch.
func (c *Ctx) InputVec3(x, y, z *[Lanes]float32, addrs []uint64, class trace.MemClass) Vec3V {
	vx := c.Input(x, addrs, class)
	return Vec3V{vx, c.ride(y, vx), c.ride(z, vx)}
}

// Load emits a global load from per-lane addrs; the returned value's lanes
// are 0 (the kernels that load are pure-timing).
func (c *Ctx) Load(addrs []uint64, class trace.MemClass) Val {
	v := c.zeroVal()
	c.B.Mem(isa.OpLDG, v.Reg, c.Mask, addrs, class)
	return v
}

// Store emits a global store of v to per-lane addrs.
func (c *Ctx) Store(v Val, addrs []uint64, class trace.MemClass) {
	c.B.Mem(isa.OpSTG, isa.RegNone, c.Mask, addrs, class, v.Reg)
}

// SharedStore emits an STS of v with no lane offsets (conflict-free).
func (c *Ctx) SharedStore(v Val) {
	c.B.Shared(isa.OpSTS, isa.RegNone, c.Mask, v.Reg)
}

// SharedLoad emits an LDS returning a fresh value (conflict-free) whose
// lanes are 0.
func (c *Ctx) SharedLoad() Val {
	v := c.zeroVal()
	c.B.Shared(isa.OpLDS, v.Reg, c.Mask)
	return v
}

// SharedStoreAt emits an STS with per-active-lane byte offsets within the
// CTA's shared segment, so the timing model derives bank conflicts.
func (c *Ctx) SharedStoreAt(v Val, offsets []uint64) {
	c.B.SharedAddr(isa.OpSTS, isa.RegNone, c.Mask, offsets, v.Reg)
}

// SharedLoadAt emits an LDS with per-active-lane byte offsets; the value's
// lanes are 0.
func (c *Ctx) SharedLoadAt(offsets []uint64) Val {
	v := c.zeroVal()
	c.B.SharedAddr(isa.OpLDS, v.Reg, c.Mask, offsets)
	return v
}

// Barrier emits a CTA-wide barrier.
func (c *Ctx) Barrier() { c.B.Barrier() }

// Tensor emits a tensor-core HMMA operating on two sources; the result's
// lanes are 0.
func (c *Ctx) Tensor(a, b Val) Val {
	r := c.zeroVal()
	c.B.ALU(isa.OpHMMA, r.Reg, c.Mask, a.Reg, b.Reg)
	return r
}

// Vec4V is a 4-component vector of Vals.
type Vec4V struct{ X, Y, Z, W Val }

// TexSample samples tex at per-lane (u, v), layer, and UV-space footprint
// (UV units per screen pixel, used for LoD selection). It emits one TEX
// instruction carrying the sampled texel address per active lane and
// returns the RGBA components, all dependent on the TEX result register;
// inactive lanes read 0.
func (c *Ctx) TexSample(tex *texture.Texture, u, v Val, layer *[Lanes]int, footprint *[Lanes]float32) Vec4V {
	reg := c.B.NewReg()
	out := Vec4V{Val{reg, c.slot()}, Val{reg, c.slot()}, Val{reg, c.slot()}, Val{reg, c.slot()}}
	x, y, z, w := out.X.V, out.Y.V, out.Z.V, out.W.V

	addrs := c.addrs[:0]
	// The rasterizer gives every fragment of a triangle the same footprint,
	// so the LoD is computed once per run of equal footprints. ±0 give the
	// same LoD; a NaN is never equal to the last one and is recomputed.
	lod, lastFp, known := float32(0), float32(0), false
	for i := 0; i < Lanes; i++ {
		if c.Mask&(1<<uint(i)) == 0 {
			x[i], y[i], z[i], w[i] = 0, 0, 0, 0
			continue
		}
		if c.LodEnabled && (!known || footprint[i] != lastFp) {
			lod, lastFp, known = tex.Lod(footprint[i]), footprint[i], true
		}
		col, addr := tex.Sample(u.V[i], v.V[i], layer[i], lod, c.Filter)
		x[i], y[i], z[i], w[i] = col.X, col.Y, col.Z, col.W
		addrs = append(addrs, addr)
	}
	lines := c.B.Mem(isa.OpTEX, reg, c.Mask, addrs, trace.ClassTexture, u.Reg, v.Reg)
	if c.OnTex == nil {
		return out
	}
	// Mem has packed the simulated addresses, so the scratch takes the
	// reference ones; a Ctx stays one address buffer in size.
	var refAddrs []uint64
	if c.RefFootprint != nil {
		refAddrs = c.addrs[:0]
		for i := 0; i < Lanes; i++ {
			if c.Mask&(1<<uint(i)) == 0 {
				continue
			}
			_, refAddr := tex.Sample(u.V[i], v.V[i], layer[i], tex.Lod(c.RefFootprint[i]), c.Filter)
			refAddrs = append(refAddrs, refAddr)
		}
	}
	c.OnTex(lines, refAddrs)
	return out
}

// CmpGT returns per-lane 1.0 where a > b, else 0.0 (FSET).
func (c *Ctx) CmpGT(a, b Val) Val {
	r := c.newVal()
	x, y, z := a.V, b.V, r.V
	for i := range z {
		if x[i] > y[i] {
			z[i] = 1
		} else {
			z[i] = 0
		}
	}
	c.B.ALU(isa.OpFSET, r.Reg, c.Mask, a.Reg, b.Reg)
	return r
}

// Select returns per-lane a where cond ≠ 0, else b — the predicated SEL
// compiled shaders use for small divergence.
func (c *Ctx) Select(cond, a, b Val) Val {
	r := c.newVal()
	p, x, y, z := cond.V, a.V, b.V, r.V
	for i := range z {
		if p[i] != 0 {
			z[i] = x[i]
		} else {
			z[i] = y[i]
		}
	}
	c.B.ALU(isa.OpSEL, r.Reg, c.Mask, cond.Reg, a.Reg, b.Reg)
	return r
}

// Masked runs fn with the active mask narrowed to lanes where cond ≠ 0 —
// one side of a divergent branch. Instructions emitted inside carry the
// reduced mask (SIMT predication); memory operations inside must supply
// addresses for exactly the reduced lane set. The previous mask is
// restored afterwards. fn is skipped entirely when no lane qualifies.
func (c *Ctx) Masked(cond Val, fn func()) {
	sub := uint32(0)
	for i := 0; i < Lanes; i++ {
		if c.Mask&(1<<uint(i)) != 0 && cond.V[i] != 0 {
			sub |= 1 << uint(i)
		}
	}
	if sub == 0 {
		return
	}
	prev := c.Mask
	c.Mask = sub
	fn()
	c.Mask = prev
}
