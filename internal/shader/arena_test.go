package shader

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crisp/internal/gmath"
	"crisp/internal/texture"
	"crisp/internal/trace"
)

// laneBits appends the bits of every lane of vs to out.
func laneBits(out []uint32, vs ...*[Lanes]float32) []uint32 {
	for _, v := range vs {
		for _, x := range v {
			out = append(out, math.Float32bits(x))
		}
	}
	return out
}

// activeAddrs returns one address per active lane of mask, stride apart
// from base.
func activeAddrs(mask uint32, base, stride uint64) []uint64 {
	var a []uint64
	for i := 0; i < Lanes; i++ {
		if mask&(1<<uint(i)) != 0 {
			a = append(a, base+uint64(i)*stride)
		}
	}
	return a
}

// holoBody is the shape of the HOLO workload's per-warp body, with the
// shared and tensor loads of the NN matmul beside it; it shifts its arena
// slots by the warp index so that each warp's results land where another
// program left something else.
func holoBody(c *Ctx, w int) []uint32 {
	for i := 0; i < w%5; i++ {
		c.Imm(float32(w) + 0.25)
	}
	addrs := activeAddrs(c.Mask, 0x10000, 4)
	px := c.Load(addrs, trace.ClassCompute)
	shared := c.SharedLoadAt(activeAddrs(c.Mask, 0, 4))
	mma := c.Tensor(px, shared)
	accRe, accIm := c.Imm(0), c.Imm(0)
	x := c.Mul(c.Add(px, c.Add(mma, c.SharedLoad())), c.Imm(0.01))
	for p := 0; p < 6; p++ {
		dx := c.Add(x, c.Imm(float32(p)*0.13+float32(w)))
		d2 := c.FMA(dx, dx, c.Imm(1))
		d2 = c.FMA(x, x, d2)
		invd := c.Rsqrt(d2)
		ph := c.Mul(d2, c.Imm(6.28318*0.37))
		accRe = c.FMA(c.Cos(ph), invd, accRe)
		accIm = c.FMA(c.Sin(ph), invd, accIm)
	}
	ratio := c.Mul(accIm, c.Rcp(c.Max(accRe, c.Imm(1e-6))))
	c.Store(ratio, addrs, trace.ClassCompute)
	return laneBits(nil, px.V, shared.V, mma.V, ratio.V)
}

// TestArenaReuseMatchesFreshCtx runs the standard vertex shader, the PBR
// fragment shader and a compute body over several warps with mixed masks,
// once on one Ctx Reset for every warp of all three and once on a fresh
// NewCtx per warp: every output lane and every trace must be the same
// bits. A slot one warp reads without writing it would carry another
// program's values into the first run only.
func TestArenaReuseMatchesFreshCtx(t *testing.T) {
	maps := &PBRMaps{}
	for i, p := range []**texture.Texture{&maps.Albedo, &maps.Normal, &maps.Metallic, &maps.Roughness, &maps.AO, &maps.Irradiance, &maps.Prefilter, &maps.BRDF} {
		*p = texture.Noise("pbr", texture.FormatRGBA8, 64, 32, 2, int64(i))
		(*p).Bind(0x100000 * uint64(i+1))
	}
	light := Light{Dir: gmath.V3(0.36, 0.8, 0.48), Color: gmath.V3(1, 0.9, 0.8), Ambient: gmath.V3(0.1, 0.1, 0.12), CameraPos: gmath.V3(0, 1, 4)}
	model := gmath.Translate(gmath.V3(0.5, 0, -2)).Mul(gmath.RotateY(0.7))
	mvp := gmath.Perspective(1, 16.0/9, 0.1, 50).Mul(model)

	const warps = 9
	rng := rand.New(rand.NewSource(30))
	masks := make([]uint32, warps)
	vsIn := make([]VSIn, warps)
	fsIn := make([]FSIn, warps)
	for w := range masks {
		masks[w] = []uint32{trace.FullMask, rng.Uint32() | 1, 0x0000FFFF, 1 << 31}[w%4]
		in, fs := &vsIn[w], &fsIn[w]
		for i := 0; i < Lanes; i++ {
			in.PosX[i], in.PosY[i], in.PosZ[i] = rng.Float32()*2-1, rng.Float32()*2-1, rng.Float32()*2-1
			in.NrmX[i], in.NrmY[i], in.NrmZ[i] = rng.Float32()-0.5, rng.Float32(), rng.Float32()-0.5
			in.U[i], in.V[i], in.Layer[i] = rng.Float32(), rng.Float32(), float32(rng.Intn(2))
			fs.U[i], fs.V[i] = rng.Float32()*1.5, rng.Float32()*1.5
			fs.NrmX[i], fs.NrmY[i], fs.NrmZ[i] = rng.Float32()-0.5, rng.Float32(), rng.Float32()-0.5
			fs.WPosX[i], fs.WPosY[i], fs.WPosZ[i] = rng.Float32(), rng.Float32(), rng.Float32()
			fs.Layer[i] = rng.Intn(2)
			fs.Footprint[i] = float32(1+i/8) / 64
		}
		in.PosAddrs = activeAddrs(masks[w], 0x2000, 36)
		in.NrmAddrs = activeAddrs(masks[w], 0x2000+12, 36)
		in.UVAddrs = activeAddrs(masks[w], 0x2000+24, 36)
		fs.VaryingAddrs = activeAddrs(masks[w], 0x8000, 48)
		fs.OutAddrs = activeAddrs(masks[w], 0x40000, 4)
	}
	programs := []func(c *Ctx, w int) []uint32{
		func(c *Ctx, w int) []uint32 {
			o := TransformVS(c, &vsIn[w], model, mvp, activeAddrs(c.Mask, 0x6000, 48))
			return laneBits(nil, &o.ClipX, &o.ClipY, &o.ClipZ, &o.ClipW, &o.WNrmX, &o.WNrmY, &o.WNrmZ,
				&o.WPosX, &o.WPosY, &o.WPosZ, &o.U, &o.V, &o.Layer)
		},
		func(c *Ctx, w int) []uint32 {
			o := PBRFS(c, &fsIn[w], maps, light)
			return laneBits(nil, &o.R, &o.G, &o.B, &o.A)
		},
		holoBody,
	}

	run := func(reuse bool) (outs [][]uint32, kernels []*trace.Kernel) {
		var bs []*trace.Builder
		for range programs {
			bs = append(bs, trace.NewBuilder("arena", trace.KindCompute, 0, Lanes, 32, 4096))
		}
		shared := NewCtx(nil, 0)
		for w := 0; w < warps; w++ {
			for p, prog := range programs {
				bs[p].BeginCTA()
				bs[p].BeginWarp()
				c := shared
				if reuse {
					c.Reset(bs[p], masks[w])
				} else {
					c = NewCtx(bs[p], masks[w])
				}
				outs = append(outs, prog(c, w))
			}
		}
		for _, b := range bs {
			kernels = append(kernels, b.Finish())
		}
		return outs, kernels
	}
	freshOuts, freshKernels := run(false)
	reusedOuts, reusedKernels := run(true)
	for i := range freshOuts {
		if !reflect.DeepEqual(reusedOuts[i], freshOuts[i]) {
			t.Fatalf("warp %d of program %d: lanes differ on a reused Ctx", i/len(programs), i%len(programs))
		}
	}
	for p := range programs {
		if !reflect.DeepEqual(reusedKernels[p], freshKernels[p]) {
			t.Fatalf("program %d: the trace differs on a reused Ctx", p)
		}
	}
}

// TestResetZeroFilledProducersReadZero dirties every slot of a few slabs,
// resets, and asks each producer with no functional value for a result:
// every lane of Load, SharedLoad, SharedLoadAt and Tensor, and every
// inactive lane of TexSample, must read +0.
func TestResetZeroFilledProducersReadZero(t *testing.T) {
	tex := texture.Checker("t", texture.FormatRGBA8, 16, 16, gmath.V4(1, 1, 1, 1), gmath.V4(0.5, 0.5, 0.5, 1), 2)
	tex.Bind(0x9000)
	for _, mask := range []uint32{trace.FullMask, 0x00FF00F0} {
		b := trace.NewBuilder("zero", trace.KindCompute, 0, Lanes, 32, 4096)
		b.BeginCTA()
		b.BeginWarp()
		c := NewCtx(b, trace.FullMask)
		for i := 0; i < 3*slabVals; i++ {
			c.Imm(float32(math.NaN()))
		}
		c.Reset(b, mask)
		addrs := activeAddrs(mask, 0x100, 4)
		one := c.Imm(1)
		tx := c.TexSample(tex, one, one, new([Lanes]int), new([Lanes]float32))
		for _, p := range []struct {
			name string
			v    Val
		}{
			{"Load", c.Load(addrs, trace.ClassCompute)},
			{"SharedLoad", c.SharedLoad()},
			{"SharedLoadAt", c.SharedLoadAt(activeAddrs(mask, 0, 4))},
			{"Tensor", c.Tensor(one, one)},
		} {
			for i, x := range p.v.V {
				if math.Float32bits(x) != 0 {
					t.Errorf("mask %#x: %s lane %d reads %v after Reset", mask, p.name, i, x)
				}
			}
		}
		for ch, v := range []Val{tx.X, tx.Y, tx.Z, tx.W} {
			for i, x := range v.V {
				if mask&(1<<uint(i)) == 0 && math.Float32bits(x) != 0 {
					t.Errorf("mask %#x: TexSample channel %d, inactive lane %d reads %v after Reset", mask, ch, i, x)
				}
			}
		}
	}
}
