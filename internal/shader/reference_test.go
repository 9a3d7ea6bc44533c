package shader

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"crisp/internal/gmath"
	"crisp/internal/isa"
	"crisp/internal/texture"
	"crisp/internal/trace"
)

// texSampleRef is TexSample as it was, lane by lane: the LoD of every
// active lane computed from its own footprint, the reference LoD likewise.
// It returns the colour channels and the simulated and reference addresses
// of the active lanes in lane order.
func texSampleRef(c *Ctx, tex *texture.Texture, u, v Val, layer [Lanes]int, footprint [Lanes]float32) (out [4][Lanes]float32, addrs, refAddrs []uint64) {
	maxDim := float32(tex.W)
	if tex.H > tex.W {
		maxDim = float32(tex.H)
	}
	lodOf := func(fp float32) float32 {
		d := fp * maxDim
		if d <= 1 {
			return 0
		}
		return gmath.Clamp(gmath.Log2(d), 0, float32(tex.Levels()-1))
	}
	for i := 0; i < Lanes; i++ {
		if c.Mask&(1<<uint(i)) == 0 {
			continue
		}
		lod := float32(0)
		if c.LodEnabled {
			lod = lodOf(footprint[i])
		}
		col, addr := tex.Sample(u.V[i], v.V[i], layer[i], lod, c.Filter)
		out[0][i], out[1][i], out[2][i], out[3][i] = col.X, col.Y, col.Z, col.W
		addrs = append(addrs, addr)
		if c.RefFootprint != nil {
			_, refAddr := tex.Sample(u.V[i], v.V[i], layer[i], lodOf(c.RefFootprint[i]), c.Filter)
			refAddrs = append(refAddrs, refAddr)
		}
	}
	return out, addrs, refAddrs
}

// TestTexSampleMatchesReference holds TexSample to the lane-by-lane
// reference over footprint patterns the per-run LoD must not confuse: one
// footprint for every lane, a different one per lane, runs that alternate,
// ±0 side by side, NaN (never equal to itself) and +Inf, under full and
// partial masks, LoD on and off, every filter, with and without the exact
// reference. Every output lane, the TEX record's addresses and its line
// count, and the reference addresses must come out the same.
func TestTexSampleMatchesReference(t *testing.T) {
	tex := texture.Noise("n", texture.FormatRGBA8, 128, 64, 3, 9)
	tex.Bind(0x20000)
	rng := rand.New(rand.NewSource(28))
	negZero := float32(math.Copysign(0, -1))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))

	for _, p := range []struct {
		name string
		fp   func(i int) float32
	}{
		{"equal", func(int) float32 { return 0.03 }},
		{"distinct", func(i int) float32 { return float32(i+1) / 256 }},
		{"runs", func(i int) float32 { return []float32{0.01, 0.01, 0.2, 0.2, 0.2, 0.01}[i%6] }},
		{"signed-zero", func(i int) float32 { return []float32{0, negZero}[i%2] }},
		{"nan", func(i int) float32 { return []float32{0.05, nan, nan, 0.05}[i%4] }},
		{"inf", func(i int) float32 { return []float32{inf, inf, 0.5, inf}[i%4] }},
		{"mixed", func(i int) float32 { return []float32{negZero, 0, nan, inf, 0.004, 0.004, 1e-30}[i%7] }},
	} {
		for _, mask := range []uint32{trace.FullMask, 0x0F0F00F1, 1 << 31} {
			for _, lodOn := range []bool{true, false} {
				for _, filter := range []texture.Filter{texture.FilterNearest, texture.FilterBilinear, texture.FilterTrilinear} {
					for _, withRef := range []bool{false, true} {
						u, v := Val{V: new([Lanes]float32)}, Val{V: new([Lanes]float32)}
						var layer [Lanes]int
						var foot, exact [Lanes]float32
						for i := 0; i < Lanes; i++ {
							u.V[i], v.V[i] = rng.Float32()*3-1, rng.Float32()*3-1
							layer[i] = rng.Intn(5) - 1
							foot[i] = p.fp(i)
							exact[i] = p.fp(Lanes - 1 - i)
						}

						b := trace.NewBuilder("ref", trace.KindFragment, 0, 32, 32, 0)
						b.BeginCTA()
						b.BeginWarp()
						c := NewCtx(b, mask)
						c.LodEnabled, c.Filter = lodOn, filter
						var gotRef []uint64
						calls, gotLines := 0, 0
						c.OnTex = func(lines int, ref []uint64) {
							calls++
							gotLines = lines
							gotRef = append(gotRef[:0], ref...)
						}
						if withRef {
							c.RefFootprint = &exact
						}
						got := c.TexSample(tex, u, v, &layer, &foot)
						want, wantAddrs, wantRef := texSampleRef(c, tex, u, v, layer, foot)

						what := fmt.Sprintf("%s lod=%v filter=%d ref=%v mask=%#x", p.name, lodOn, filter, withRef, mask)
						for i := 0; i < Lanes; i++ {
							if mask&(1<<uint(i)) == 0 {
								continue
							}
							for ch, g := range [4]float32{got.X.V[i], got.Y.V[i], got.Z.V[i], got.W.V[i]} {
								if math.Float32bits(g) != math.Float32bits(want[ch][i]) {
									t.Fatalf("%s lane %d channel %d: %v, reference %v", what, i, ch, g, want[ch][i])
								}
							}
						}

						rec := texAddrs(b.Finish())
						if !slices.Equal(rec, wantAddrs) {
							t.Fatalf("%s: TEX record %#x, reference %#x", what, rec, wantAddrs)
						}
						if calls != 1 {
							t.Fatalf("%s: OnTex called %d times", what, calls)
						}
						if want := len(trace.Coalesce(nil, wantAddrs, trace.CacheLineSize)); gotLines != want {
							t.Fatalf("%s: OnTex told of %d lines, the reference addresses touch %d", what, gotLines, want)
						}
						if withRef && !slices.Equal(gotRef, wantRef) {
							t.Fatalf("%s: reference addresses %#x, want %#x", what, gotRef, wantRef)
						}
						if !withRef && len(gotRef) != 0 {
							t.Fatalf("%s: reference addresses without a reference footprint", what)
						}
					}
				}
			}
		}
	}
}

// refVal and refCtx are Val and Ctx as they were: lanes carried by value,
// lane-wise ops built from per-lane closures, a zero Val wherever an op has
// no functional result. The handles and direct loops that replaced them
// must compute the same bits and emit the same instructions.
type refVal struct {
	Reg isa.Reg
	V   [Lanes]float32
}

type refCtx struct {
	B    *trace.Builder
	Mask uint32
}

func (c *refCtx) newVal() refVal { return refVal{Reg: c.B.NewReg()} }

func (c *refCtx) Imm(x float32) refVal {
	v := c.newVal()
	for i := range v.V {
		v.V[i] = x
	}
	c.B.ALU(isa.OpMOV, v.Reg, c.Mask)
	return v
}

func (c *refCtx) Uniform(x float32) refVal {
	v := c.newVal()
	for i := range v.V {
		v.V[i] = x
	}
	c.B.Mem(isa.OpLDC, v.Reg, c.Mask, nil, trace.ClassNone)
	return v
}

func (c *refCtx) bin(op isa.Opcode, a, b refVal, f func(x, y float32) float32) refVal {
	r := c.newVal()
	for i := range r.V {
		r.V[i] = f(a.V[i], b.V[i])
	}
	c.B.ALU(op, r.Reg, c.Mask, a.Reg, b.Reg)
	return r
}

func (c *refCtx) un(op isa.Opcode, a refVal, f func(x float32) float32) refVal {
	r := c.newVal()
	for i := range r.V {
		r.V[i] = f(a.V[i])
	}
	c.B.ALU(op, r.Reg, c.Mask, a.Reg)
	return r
}

func (c *refCtx) Add(a, b refVal) refVal {
	return c.bin(isa.OpFADD, a, b, func(x, y float32) float32 { return x + y })
}

func (c *refCtx) Sub(a, b refVal) refVal {
	return c.bin(isa.OpFADD, a, b, func(x, y float32) float32 { return x - y })
}

func (c *refCtx) Mul(a, b refVal) refVal {
	return c.bin(isa.OpFMUL, a, b, func(x, y float32) float32 { return x * y })
}

func (c *refCtx) FMA(a, b, d refVal) refVal {
	r := c.newVal()
	for i := range r.V {
		r.V[i] = a.V[i]*b.V[i] + d.V[i]
	}
	c.B.ALU(isa.OpFFMA, r.Reg, c.Mask, a.Reg, b.Reg, d.Reg)
	return r
}

func (c *refCtx) Min(a, b refVal) refVal { return c.bin(isa.OpFMNMX, a, b, gmath.Min) }
func (c *refCtx) Max(a, b refVal) refVal { return c.bin(isa.OpFMNMX, a, b, gmath.Max) }

func (c *refCtx) Rcp(a refVal) refVal {
	return c.un(isa.OpMUFURCP, a, func(x float32) float32 {
		if x == 0 {
			return float32(math.Inf(1))
		}
		return 1 / x
	})
}

func (c *refCtx) Rsqrt(a refVal) refVal {
	return c.un(isa.OpMUFURSQ, a, func(x float32) float32 {
		if x <= 0 {
			return 0
		}
		return 1 / gmath.Sqrt(x)
	})
}

func (c *refCtx) Sqrt(a refVal) refVal { return c.Rcp(c.Rsqrt(a)) }
func (c *refCtx) Sin(a refVal) refVal  { return c.un(isa.OpMUFUSIN, a, gmath.Sin) }
func (c *refCtx) Cos(a refVal) refVal  { return c.un(isa.OpMUFUCOS, a, gmath.Cos) }

func (c *refCtx) Ex2(a refVal) refVal {
	return c.un(isa.OpMUFUEX2, a, func(x float32) float32 { return gmath.Pow(2, x) })
}

func (c *refCtx) Lg2(a refVal) refVal {
	return c.un(isa.OpMUFULG2, a, func(x float32) float32 {
		if x <= 0 {
			return -126
		}
		return gmath.Log2(x)
	})
}

func (c *refCtx) Pow(a, b refVal) refVal { return c.Ex2(c.Mul(b, c.Lg2(a))) }

func (c *refCtx) Clamp(a refVal, lo, hi float32) refVal {
	return c.Min(c.Max(a, c.Imm(lo)), c.Imm(hi))
}

func (c *refCtx) Lerp(a, b, t refVal) refVal { return c.FMA(t, c.Sub(b, a), a) }

func (c *refCtx) Input(values [Lanes]float32, addrs []uint64, class trace.MemClass) refVal {
	v := refVal{Reg: c.B.NewReg(), V: values}
	c.B.Mem(isa.OpLDG, v.Reg, c.Mask, addrs, class)
	return v
}

func (c *refCtx) ride(values [Lanes]float32, lead refVal) refVal {
	v := refVal{Reg: c.B.NewReg(), V: values}
	c.B.ALU(isa.OpMOV, v.Reg, c.Mask, lead.Reg)
	return v
}

func (c *refCtx) Load(addrs []uint64, class trace.MemClass) refVal {
	v := c.newVal()
	c.B.Mem(isa.OpLDG, v.Reg, c.Mask, addrs, class)
	return v
}

func (c *refCtx) Store(v refVal, addrs []uint64, class trace.MemClass) {
	c.B.Mem(isa.OpSTG, isa.RegNone, c.Mask, addrs, class, v.Reg)
}

func (c *refCtx) SharedLoad() refVal {
	v := c.newVal()
	c.B.Shared(isa.OpLDS, v.Reg, c.Mask)
	return v
}

func (c *refCtx) SharedStoreAt(v refVal, offsets []uint64) {
	c.B.SharedAddr(isa.OpSTS, isa.RegNone, c.Mask, offsets, v.Reg)
}

func (c *refCtx) SharedLoadAt(offsets []uint64) refVal {
	v := c.newVal()
	c.B.SharedAddr(isa.OpLDS, v.Reg, c.Mask, offsets)
	return v
}

func (c *refCtx) Tensor(a, b refVal) refVal {
	r := c.newVal()
	c.B.ALU(isa.OpHMMA, r.Reg, c.Mask, a.Reg, b.Reg)
	return r
}

func (c *refCtx) Masked(cond refVal, fn func()) {
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

func (c *refCtx) CmpGT(a, b refVal) refVal {
	return c.bin(isa.OpFSET, a, b, func(x, y float32) float32 {
		if x > y {
			return 1
		}
		return 0
	})
}

func (c *refCtx) Select(cond, a, b refVal) refVal {
	r := c.newVal()
	for i := range r.V {
		if cond.V[i] != 0 {
			r.V[i] = a.V[i]
		} else {
			r.V[i] = b.V[i]
		}
	}
	c.B.ALU(isa.OpSEL, r.Reg, c.Mask, cond.Reg, a.Reg, b.Reg)
	return r
}

// specialLane draws a lane value, often one the float rules single out:
// NaN, ±0, ±Inf, a denormal, or a value an op branches on.
func specialLane(rng *rand.Rand) float32 {
	specials := []float32{
		float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		1, -1, 2, 0.5, math.MaxFloat32, -math.MaxFloat32,
	}
	if rng.Intn(3) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(12)-6)))
}

// opCase is one Ctx operation and its reference, applied to three operand
// values (the op uses as many as it takes) and the active lanes' addresses.
type opCase struct {
	name string
	op   func(c *Ctx, a, b, d Val, addrs []uint64) Val
	ref  func(c *refCtx, a, b, d refVal, addrs []uint64) refVal
}

var opCases = []opCase{
	{"Imm", func(c *Ctx, a, _, _ Val, _ []uint64) Val { return c.Imm(a.V[3]) },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal { return c.Imm(a.V[3]) }},
	{"Uniform", func(c *Ctx, a, _, _ Val, _ []uint64) Val { return c.Uniform(a.V[5]) },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal { return c.Uniform(a.V[5]) }},
	{"Add", func(c *Ctx, a, b, _ Val, _ []uint64) Val { return c.Add(a, b) },
		func(c *refCtx, a, b, _ refVal, _ []uint64) refVal { return c.Add(a, b) }},
	{"Sub", func(c *Ctx, a, b, _ Val, _ []uint64) Val { return c.Sub(a, b) },
		func(c *refCtx, a, b, _ refVal, _ []uint64) refVal { return c.Sub(a, b) }},
	{"Mul", func(c *Ctx, a, b, _ Val, _ []uint64) Val { return c.Mul(a, b) },
		func(c *refCtx, a, b, _ refVal, _ []uint64) refVal { return c.Mul(a, b) }},
	{"FMA", func(c *Ctx, a, b, d Val, _ []uint64) Val { return c.FMA(a, b, d) },
		func(c *refCtx, a, b, d refVal, _ []uint64) refVal { return c.FMA(a, b, d) }},
	{"Min", func(c *Ctx, a, b, _ Val, _ []uint64) Val { return c.Min(a, b) },
		func(c *refCtx, a, b, _ refVal, _ []uint64) refVal { return c.Min(a, b) }},
	{"Max", func(c *Ctx, a, b, _ Val, _ []uint64) Val { return c.Max(a, b) },
		func(c *refCtx, a, b, _ refVal, _ []uint64) refVal { return c.Max(a, b) }},
	{"Rcp", func(c *Ctx, a, _, _ Val, _ []uint64) Val { return c.Rcp(a) },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal { return c.Rcp(a) }},
	{"Rsqrt", func(c *Ctx, a, _, _ Val, _ []uint64) Val { return c.Rsqrt(a) },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal { return c.Rsqrt(a) }},
	{"Sqrt", func(c *Ctx, a, _, _ Val, _ []uint64) Val { return c.Sqrt(a) },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal { return c.Sqrt(a) }},
	{"Sin", func(c *Ctx, a, _, _ Val, _ []uint64) Val { return c.Sin(a) },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal { return c.Sin(a) }},
	{"Cos", func(c *Ctx, a, _, _ Val, _ []uint64) Val { return c.Cos(a) },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal { return c.Cos(a) }},
	{"Ex2", func(c *Ctx, a, _, _ Val, _ []uint64) Val { return c.Ex2(a) },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal { return c.Ex2(a) }},
	{"Lg2", func(c *Ctx, a, _, _ Val, _ []uint64) Val { return c.Lg2(a) },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal { return c.Lg2(a) }},
	{"Pow", func(c *Ctx, a, b, _ Val, _ []uint64) Val { return c.Pow(a, b) },
		func(c *refCtx, a, b, _ refVal, _ []uint64) refVal { return c.Pow(a, b) }},
	{"Clamp", func(c *Ctx, a, b, d Val, _ []uint64) Val { return c.Clamp(a, b.V[0], d.V[1]) },
		func(c *refCtx, a, b, d refVal, _ []uint64) refVal { return c.Clamp(a, b.V[0], d.V[1]) }},
	{"Lerp", func(c *Ctx, a, b, d Val, _ []uint64) Val { return c.Lerp(a, b, d) },
		func(c *refCtx, a, b, d refVal, _ []uint64) refVal { return c.Lerp(a, b, d) }},
	{"CmpGT", func(c *Ctx, a, b, _ Val, _ []uint64) Val { return c.CmpGT(a, b) },
		func(c *refCtx, a, b, _ refVal, _ []uint64) refVal { return c.CmpGT(a, b) }},
	{"Select", func(c *Ctx, a, b, d Val, _ []uint64) Val { return c.Select(a, b, d) },
		func(c *refCtx, a, b, d refVal, _ []uint64) refVal { return c.Select(a, b, d) }},
	{"Input", func(c *Ctx, a, _, _ Val, addrs []uint64) Val { return c.Input(a.V, addrs, trace.ClassPipeline) },
		func(c *refCtx, a, _, _ refVal, addrs []uint64) refVal {
			return c.Input(a.V, addrs, trace.ClassPipeline)
		}},
	{"InputVec3", func(c *Ctx, a, b, d Val, addrs []uint64) Val {
		v := c.InputVec3(a.V, b.V, d.V, addrs, trace.ClassPipeline)
		return c.FMA(v.X, v.Y, v.Z)
	}, func(c *refCtx, a, b, d refVal, addrs []uint64) refVal {
		x := c.Input(a.V, addrs, trace.ClassPipeline)
		return c.FMA(x, c.ride(b.V, x), c.ride(d.V, x))
	}},
	{"Load", func(c *Ctx, _, _, _ Val, addrs []uint64) Val { return c.Load(addrs, trace.ClassCompute) },
		func(c *refCtx, _, _, _ refVal, addrs []uint64) refVal { return c.Load(addrs, trace.ClassCompute) }},
	{"Store", func(c *Ctx, a, _, _ Val, addrs []uint64) Val { c.Store(a, addrs, trace.ClassFramebuffer); return a },
		func(c *refCtx, a, _, _ refVal, addrs []uint64) refVal {
			c.Store(a, addrs, trace.ClassFramebuffer)
			return a
		}},
	{"SharedLoad", func(c *Ctx, _, _, _ Val, _ []uint64) Val { return c.SharedLoad() },
		func(c *refCtx, _, _, _ refVal, _ []uint64) refVal { return c.SharedLoad() }},
	{"SharedAt", func(c *Ctx, a, _, _ Val, addrs []uint64) Val {
		offs := c.offsetAddrs(addrs, 0)
		for i := range offs {
			offs[i] %= 4096
		}
		c.SharedStoreAt(a, offs)
		return c.SharedLoadAt(offs)
	}, func(c *refCtx, a, _, _ refVal, addrs []uint64) refVal {
		offs := slices.Clone(addrs)
		for i := range offs {
			offs[i] %= 4096
		}
		c.SharedStoreAt(a, offs)
		return c.SharedLoadAt(offs)
	}},
	{"SharedStore", func(c *Ctx, a, _, _ Val, _ []uint64) Val { c.SharedStore(a); c.Barrier(); return c.SharedLoad() },
		func(c *refCtx, a, _, _ refVal, _ []uint64) refVal {
			c.B.Shared(isa.OpSTS, isa.RegNone, c.Mask, a.Reg)
			c.B.Barrier()
			return c.SharedLoad()
		}},
	{"Masked", func(c *Ctx, a, b, d Val, _ []uint64) Val {
		r := a
		c.Masked(a, func() { r = c.Add(b, d) })
		return c.Mul(r, b)
	}, func(c *refCtx, a, b, d refVal, _ []uint64) refVal {
		r := a
		c.Masked(a, func() { r = c.Add(b, d) })
		return c.Mul(r, b)
	}},
	{"Tensor", func(c *Ctx, a, b, _ Val, _ []uint64) Val { return c.Tensor(a, b) },
		func(c *refCtx, a, b, _ refVal, _ []uint64) refVal { return c.Tensor(a, b) }},
}

// TestEveryOpMatchesReference holds every lane-wise Ctx op to the by-value,
// closure-based reference, bit for bit on every lane, over operands full of
// NaN, ±0, ±Inf and denormals, under full and partial masks; the trace each
// side emits must be the same bytes. The Ctx side runs every case of a
// trial on one arena, reset between cases, so each result lands in a slot
// an earlier case dirtied.
func TestEveryOpMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	c := NewCtx(nil, 0)
	for _, mask := range []uint32{trace.FullMask, 0x0F0F00F1, 1 << 31, 0xFFFF0000} {
		for trial := 0; trial < 25; trial++ {
			var lanes [3][Lanes]float32
			for k := range lanes {
				for i := range lanes[k] {
					lanes[k][i] = specialLane(rng)
				}
			}
			var addrs []uint64
			for i := 0; i < Lanes; i++ {
				if mask&(1<<uint(i)) != 0 {
					addrs = append(addrs, 0x4000+uint64(rng.Intn(64))*4)
				}
			}
			for _, oc := range opCases {
				what := fmt.Sprintf("%s mask=%#x trial %d", oc.name, mask, trial)
				gotB, wantB := opBuilder(), opBuilder()
				c.Reset(gotB, mask)
				rc := &refCtx{B: wantB, Mask: mask}
				var args [3]Val
				var refArgs [3]refVal
				for k := range args {
					args[k] = c.Input(&lanes[k], addrs, trace.ClassCompute)
					refArgs[k] = rc.Input(lanes[k], addrs, trace.ClassCompute)
				}
				got := oc.op(c, args[0], args[1], args[2], addrs)
				want := oc.ref(rc, refArgs[0], refArgs[1], refArgs[2], addrs)
				if got.Reg != want.Reg {
					t.Fatalf("%s: register %d, reference %d", what, got.Reg, want.Reg)
				}
				for i := 0; i < Lanes; i++ {
					if g, w := math.Float32bits(got.V[i]), math.Float32bits(want.V[i]); g != w {
						t.Fatalf("%s lane %d: %v (%#x), reference %v (%#x); operands %v %v %v",
							what, i, got.V[i], g, want.V[i], w, lanes[0][i], lanes[1][i], lanes[2][i])
					}
				}
				if g, w := gotB.Finish(), wantB.Finish(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: the trace differs from the reference's", what)
				}
			}
		}
	}
}

func opBuilder() *trace.Builder {
	b := trace.NewBuilder("ops", trace.KindCompute, 0, 32, 32, 4096)
	b.BeginCTA()
	b.BeginWarp()
	return b
}
