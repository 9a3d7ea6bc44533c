package shader

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"crisp/internal/gmath"
	"crisp/internal/isa"
	"crisp/internal/texture"
	"crisp/internal/trace"
)

func newWarpCtx() (*Ctx, *trace.Builder) {
	b := trace.NewBuilder("test", trace.KindCompute, 0, 32, 32, 0)
	b.BeginCTA()
	b.BeginWarp()
	return NewCtx(b, trace.FullMask), b
}

func TestArithmeticOpsComputeAndEmit(t *testing.T) {
	c, b := newWarpCtx()
	two := c.Imm(2)
	three := c.Imm(3)
	sum := c.Add(two, three)
	prod := c.Mul(two, three)
	fma := c.FMA(two, three, sum)
	diff := c.Sub(three, two)
	for i := 0; i < Lanes; i++ {
		if sum.V[i] != 5 || prod.V[i] != 6 || fma.V[i] != 11 || diff.V[i] != 1 {
			t.Fatalf("lane %d: %v %v %v %v", i, sum.V[i], prod.V[i], fma.V[i], diff.V[i])
		}
	}
	k := b.Finish()
	h := k.OpHistogram()
	if h[isa.OpFADD] != 2 || h[isa.OpFMUL] != 1 || h[isa.OpFFMA] != 1 || h[isa.OpMOV] != 2 {
		t.Errorf("trace histogram = %v", h)
	}
}

func TestSpecialFunctions(t *testing.T) {
	c, b := newWarpCtx()
	x := c.Imm(4)
	if got := c.Rcp(x).V[0]; got != 0.25 {
		t.Errorf("Rcp(4) = %v", got)
	}
	if got := c.Rsqrt(x).V[0]; got != 0.5 {
		t.Errorf("Rsqrt(4) = %v", got)
	}
	if got := c.Sqrt(x).V[0]; math.Abs(float64(got)-2) > 1e-6 {
		t.Errorf("Sqrt(4) = %v", got)
	}
	angle := c.Imm(math.Pi / 2)
	if got := c.Sin(angle).V[0]; math.Abs(float64(got)-1) > 1e-6 {
		t.Errorf("Sin(pi/2) = %v", got)
	}
	if got := c.Cos(c.Imm(0)).V[0]; got != 1 {
		t.Errorf("Cos(0) = %v", got)
	}
	if got := c.Pow(c.Imm(2), c.Imm(10)).V[0]; math.Abs(float64(got)-1024) > 0.5 {
		t.Errorf("Pow(2,10) = %v", got)
	}
	k := b.Finish()
	h := k.OpHistogram()
	if h[isa.OpMUFURCP] == 0 || h[isa.OpMUFURSQ] == 0 || h[isa.OpMUFUSIN] == 0 {
		t.Errorf("SFU ops missing from trace: %v", h)
	}
}

func TestClampLerpMinMax(t *testing.T) {
	c, _ := newWarpCtx()
	if got := c.Clamp(c.Imm(5), 0, 1).V[0]; got != 1 {
		t.Errorf("Clamp = %v", got)
	}
	if got := c.Lerp(c.Imm(0), c.Imm(10), c.Imm(0.25)).V[0]; got != 2.5 {
		t.Errorf("Lerp = %v", got)
	}
	if got := c.Min(c.Imm(3), c.Imm(7)).V[0]; got != 3 {
		t.Errorf("Min = %v", got)
	}
	if got := c.Max(c.Imm(3), c.Imm(7)).V[0]; got != 7 {
		t.Errorf("Max = %v", got)
	}
}

func TestRcpOfZeroIsInf(t *testing.T) {
	c, _ := newWarpCtx()
	if got := c.Rcp(c.Imm(0)).V[0]; !math.IsInf(float64(got), 1) {
		t.Errorf("Rcp(0) = %v", got)
	}
	if got := c.Rsqrt(c.Imm(-1)).V[0]; got != 0 {
		t.Errorf("Rsqrt(-1) = %v", got)
	}
}

func TestVec3Ops(t *testing.T) {
	c, _ := newWarpCtx()
	a := c.V3Imm(gmath.V3(1, 2, 3))
	b := c.V3Imm(gmath.V3(4, 5, 6))
	if got := c.V3Dot(a, b).V[0]; got != 32 {
		t.Errorf("V3Dot = %v", got)
	}
	n := c.V3Normalize(c.V3Imm(gmath.V3(3, 0, 4)))
	if math.Abs(float64(n.X.V[0])-0.6) > 1e-5 || math.Abs(float64(n.Z.V[0])-0.8) > 1e-5 {
		t.Errorf("V3Normalize = %v %v %v", n.X.V[0], n.Y.V[0], n.Z.V[0])
	}
	s := c.V3Scale(a, c.Imm(2))
	if s.Z.V[0] != 6 {
		t.Errorf("V3Scale = %v", s.Z.V[0])
	}
}

func TestMatrixTransformMatchesGmath(t *testing.T) {
	f := func(px, py, pz float32) bool {
		if gmath.Abs(px) > 100 || gmath.Abs(py) > 100 || gmath.Abs(pz) > 100 {
			return true
		}
		m := gmath.Translate(gmath.V3(1, 2, 3)).Mul(gmath.RotateY(0.5))
		c, _ := newWarpCtx()
		var xs, ys, zs [Lanes]float32
		for i := range xs {
			xs[i], ys[i], zs[i] = px, py, pz
		}
		out := c.MulMat4Vec4(m, Val{V: &xs}, Val{V: &ys}, Val{V: &zs}, c.Imm(1))
		want := m.MulVec(gmath.V4(px, py, pz, 1))
		tol := float32(1e-3)
		return gmath.Abs(out.X.V[0]-want.X) < tol &&
			gmath.Abs(out.Y.V[0]-want.Y) < tol &&
			gmath.Abs(out.Z.V[0]-want.Z) < tol &&
			gmath.Abs(out.W.V[0]-want.W) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUniformUsesConstantCache(t *testing.T) {
	c, b := newWarpCtx()
	c.Uniform(3.5)
	k := b.Finish()
	if k.OpHistogram()[isa.OpLDC] != 1 {
		t.Error("Uniform did not emit LDC")
	}
}

func TestLoadStoreEmitAddresses(t *testing.T) {
	c, b := newWarpCtx()
	addrs := make([]uint64, Lanes)
	for i := range addrs {
		addrs[i] = uint64(0x100 + 4*i)
	}
	v := c.Load(addrs, trace.ClassCompute)
	c.Store(v, addrs, trace.ClassCompute)
	k := b.Finish()
	if err := k.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	h := k.OpHistogram()
	if h[isa.OpLDG] != 1 || h[isa.OpSTG] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestSharedAndBarrier(t *testing.T) {
	c, b := newWarpCtx()
	v := c.SharedLoad()
	c.SharedStore(v)
	c.Barrier()
	k := b.Finish()
	h := k.OpHistogram()
	if h[isa.OpLDS] != 1 || h[isa.OpSTS] != 1 || h[isa.OpBAR] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestInputVecRidesOneFetch(t *testing.T) {
	c, b := newWarpCtx()
	addrs := make([]uint64, Lanes)
	for i := range addrs {
		addrs[i] = uint64(i * 36)
	}
	var xs, ys, zs [Lanes]float32
	v := c.InputVec3(&xs, &ys, &zs, addrs, trace.ClassPipeline)
	_ = v
	k := b.Finish()
	h := k.OpHistogram()
	if h[isa.OpLDG] != 1 {
		t.Errorf("InputVec3 emitted %d LDGs, want 1", h[isa.OpLDG])
	}
	if h[isa.OpMOV] != 2 {
		t.Errorf("InputVec3 emitted %d MOVs, want 2", h[isa.OpMOV])
	}
}

func TestTexSampleEmitsAddressesAndColors(t *testing.T) {
	tex := texture.Checker("t", texture.FormatRGBA8, 32, 32, gmath.V4(1, 0, 0, 1), gmath.V4(0, 0, 1, 1), 2)
	base := uint64(0x7000)
	size := tex.Bind(base)

	c, b := newWarpCtx()
	var us, vs [Lanes]float32
	for i := range us {
		us[i] = float32(i) / Lanes
		vs[i] = 0.25
	}
	var layer [Lanes]int
	var foot [Lanes]float32
	rgba := c.TexSample(tex, Val{V: &us}, Val{V: &vs}, &layer, &foot)
	k := b.Finish()
	if k.OpHistogram()[isa.OpTEX] != 1 {
		t.Fatal("TEX not emitted")
	}
	gotSim := texAddrs(k)
	if len(gotSim) != Lanes {
		t.Fatalf("TEX carries %d addrs", len(gotSim))
	}
	for _, a := range gotSim {
		if a < base || a >= base+size {
			t.Fatalf("texel address %#x out of bounds", a)
		}
	}
	// Left quarter samples the first checker cell (red).
	if rgba.X.V[0] != 1 || rgba.Z.V[0] != 0 {
		t.Errorf("lane 0 color = %v/%v, want red", rgba.X.V[0], rgba.Z.V[0])
	}
}

// texAddrs returns the addresses of the first TEX of k's first warp.
func texAddrs(k *trace.Kernel) []uint64 {
	w := &k.CTAs[0].Warps[0]
	for i := range w.Insts {
		if w.Insts[i].Op == isa.OpTEX {
			var buf [Lanes]uint64
			return slices.Clone(w.Addrs(w.CursorAt(i), &w.Insts[i], &buf))
		}
	}
	return nil
}

func TestTexSampleLodOffUsesLevel0(t *testing.T) {
	tex := texture.Noise("n", texture.FormatRGBA8, 64, 64, 1, 3)
	tex.Bind(0x9000)
	var us, vs [Lanes]float32
	for i := range us {
		us[i] = float32(i) / Lanes
		vs[i] = float32(i) / Lanes
	}
	var layer [Lanes]int
	var foot [Lanes]float32
	for i := range foot {
		foot[i] = 0.25 // strong minification → high mip when LoD on
	}
	run := func(lod bool) map[uint64]bool {
		c, b := newWarpCtx()
		c.LodEnabled = lod
		c.TexSample(tex, Val{V: &us}, Val{V: &vs}, &layer, &foot)
		set := map[uint64]bool{}
		for _, a := range texAddrs(b.Finish()) {
			set[a] = true
		}
		return set
	}
	on := run(true)
	off := run(false)
	// With LoD on, heavy minification merges texels; off scatters them.
	if len(on) >= len(off) {
		t.Errorf("LoD-on distinct texels %d should be below LoD-off %d", len(on), len(off))
	}
}

func TestRefFootprintProducesRefAddrs(t *testing.T) {
	tex := texture.Noise("n", texture.FormatRGBA8, 64, 64, 1, 3)
	tex.Bind(0x9000)
	c, b := newWarpCtx()
	var exact [Lanes]float32
	for i := range exact {
		exact[i] = 0.5
	}
	c.RefFootprint = &exact
	var ref []uint64
	c.OnTex = func(_ int, r []uint64) { ref = r }
	var us, vs [Lanes]float32
	var layer [Lanes]int
	var foot [Lanes]float32
	c.TexSample(tex, Val{V: &us}, Val{V: &vs}, &layer, &foot)
	b.Finish()
	if len(ref) != Lanes {
		t.Errorf("ref addrs = %d, want %d", len(ref), Lanes)
	}
}

func TestPartialMask(t *testing.T) {
	b := trace.NewBuilder("partial", trace.KindCompute, 0, 32, 32, 0)
	b.BeginCTA()
	b.BeginWarp()
	c := NewCtx(b, 0x0000FFFF) // 16 lanes
	if c.ActiveLanes() != 16 {
		t.Fatalf("ActiveLanes = %d", c.ActiveLanes())
	}
	tex := texture.Checker("t", texture.FormatRGBA8, 16, 16, gmath.V4(1, 1, 1, 1), gmath.V4(0, 0, 0, 1), 2)
	tex.Bind(0)
	var us, vs [Lanes]float32
	var layer [Lanes]int
	var foot [Lanes]float32
	c.TexSample(tex, Val{V: &us}, Val{V: &vs}, &layer, &foot)
	k := b.Finish()
	if err := k.Validate(); err != nil {
		t.Fatalf("partial-mask TEX invalid: %v", err)
	}
}

func TestTensorOp(t *testing.T) {
	c, b := newWarpCtx()
	c.Tensor(c.Imm(1), c.Imm(2))
	if b.Finish().OpHistogram()[isa.OpHMMA] != 1 {
		t.Error("Tensor did not emit HMMA")
	}
}

func TestSelect(t *testing.T) {
	c, b := newWarpCtx()
	var xs [Lanes]float32
	for i := range xs {
		xs[i] = float32(i)
	}
	x := Val{Reg: c.B.NewReg(), V: &xs}
	cond := c.CmpGT(x, c.Imm(15.5))
	r := c.Select(cond, c.Imm(1), c.Imm(-1))
	for i := 0; i < Lanes; i++ {
		want := float32(-1)
		if i > 15 {
			want = 1
		}
		if r.V[i] != want {
			t.Fatalf("lane %d = %v, want %v", i, r.V[i], want)
		}
	}
	h := b.Finish().OpHistogram()
	if h[isa.OpFSET] != 1 || h[isa.OpSEL] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestMaskedNarrowsAndRestores(t *testing.T) {
	c, b := newWarpCtx()
	var xs [Lanes]float32
	for i := range xs {
		xs[i] = float32(i % 2) // odd lanes qualify
	}
	cond := Val{Reg: c.B.NewReg(), V: &xs}
	ran := false
	c.Masked(cond, func() {
		ran = true
		if c.ActiveLanes() != 16 {
			t.Errorf("masked lanes = %d, want 16", c.ActiveLanes())
		}
		c.Add(c.Imm(1), c.Imm(2))
	})
	if !ran {
		t.Fatal("masked block skipped")
	}
	if c.ActiveLanes() != 32 {
		t.Errorf("mask not restored: %d lanes", c.ActiveLanes())
	}
	// All-false predicate skips the block entirely.
	c.Masked(Val{Reg: c.B.NewReg(), V: new([Lanes]float32)}, func() { t.Fatal("dead branch executed") })
	k := b.Finish()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	// Find the masked FADD: it must carry the odd-lane mask.
	found := false
	for _, in := range k.CTAs[0].Warps[0].Insts {
		if in.Op == isa.OpFADD && in.Mask == 0xAAAAAAAA {
			found = true
		}
	}
	if !found {
		t.Error("masked instruction with odd-lane mask not found")
	}
}

// TestActiveLanesMatchesLaneLoop holds the popcount to the lane-by-lane
// count it replaced.
func TestActiveLanesMatchesLaneLoop(t *testing.T) {
	ref := func(mask uint32) int {
		n := 0
		for i := 0; i < Lanes; i++ {
			if mask&(1<<uint(i)) != 0 {
				n++
			}
		}
		return n
	}
	f := func(mask uint32) bool { return (&Ctx{Mask: mask}).ActiveLanes() == ref(mask) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, mask := range []uint32{0, 1, 1 << 31, 0xFFFFFFFF, 0x0000FFFF} {
		if !f(mask) {
			t.Errorf("mask %#x: %d lanes, lane loop counts %d", mask, (&Ctx{Mask: mask}).ActiveLanes(), ref(mask))
		}
	}
}
