package texture

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crisp/internal/gmath"
)

// The generators and the mip filter were rewritten for speed; the code they
// replaced stays here as the reference, and every texel of every level must
// come out with the same bits.

// noiseRef is Noise as it was: cell and weights recomputed per texel.
func noiseRef(name string, fmtc Format, w, h, layers int, seed int64) *Texture {
	rng := rand.New(rand.NewSource(seed))
	pix := make([]gmath.Vec4, w*h*layers)
	for l := 0; l < layers; l++ {
		const lat = 9
		lattice := make([]float32, lat*lat*3)
		for i := range lattice {
			lattice[i] = rng.Float32()
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				fx := float32(x) / float32(w) * (lat - 1)
				fy := float32(y) / float32(h) * (lat - 1)
				x0, y0 := int(fx), int(fy)
				tx, ty := fx-float32(x0), fy-float32(y0)
				x1, y1 := gmath.ClampInt(x0+1, 0, lat-1), gmath.ClampInt(y0+1, 0, lat-1)
				var c [3]float32
				for ch := 0; ch < 3; ch++ {
					v00 := lattice[(y0*lat+x0)*3+ch]
					v10 := lattice[(y0*lat+x1)*3+ch]
					v01 := lattice[(y1*lat+x0)*3+ch]
					v11 := lattice[(y1*lat+x1)*3+ch]
					c[ch] = gmath.Lerp(gmath.Lerp(v00, v10, tx), gmath.Lerp(v01, v11, tx), ty)
				}
				pix[l*w*h+y*w+x] = gmath.V4(c[0], c[1], c[2], 1)
			}
		}
	}
	return newRef(name, fmtc, w, h, layers, pix)
}

// newRef is New over downsampleRef, every level held from the start.
func newRef(name string, fmtc Format, w, h, layers int, pix []gmath.Vec4) *Texture {
	t := &Texture{Name: name, Fmt: fmtc, W: w, H: h, Layers: layers}
	t.levels = append(t.levels, level{w: w, h: h, pix: pix})
	t.fill.Do(func() {})
	for lw, lh := w, h; lw > 1 || lh > 1; {
		nw, nh := max(1, lw/2), max(1, lh/2)
		t.levels = append(t.levels, downsampleRef(t.levels[len(t.levels)-1], nw, nh, layers))
		lw, lh = nw, nh
	}
	return t
}

// downsampleRef is the box filter as it was: one loop for every ratio.
func downsampleRef(src level, nw, nh, layers int) level {
	dst := level{w: nw, h: nh, pix: make([]gmath.Vec4, nw*nh*layers)}
	sx := max(1, src.w/nw)
	sy := max(1, src.h/nh)
	inv := 1 / float32(sx*sy)
	for l := 0; l < layers; l++ {
		for y := 0; y < nh; y++ {
			for x := 0; x < nw; x++ {
				var acc gmath.Vec4
				for dy := 0; dy < sy; dy++ {
					for dx := 0; dx < sx; dx++ {
						acc = acc.Add(src.pix[l*src.w*src.h+(y*sy+dy)*src.w+(x*sx+dx)])
					}
				}
				dst.pix[l*nw*nh+y*nw+x] = acc.Scale(inv)
			}
		}
	}
	return dst
}

// texels is level lv, layer-major, read the way the samplers read it: a
// stored level through pixels, a computed level 0 texel by texel.
func (t *Texture) texels(lv int) []gmath.Vec4 {
	if lv > 0 || t.form == stored {
		return t.pixels(lv)
	}
	pix := make([]gmath.Vec4, 0, t.W*t.H*t.Layers)
	for layer := 0; layer < t.Layers; layer++ {
		for y := 0; y < t.H; y++ {
			for x := 0; x < t.W; x++ {
				pix = append(pix, t.texel(0, layer, x, y))
			}
		}
	}
	return pix
}

// sameBits compares every level through the accessor the samplers use,
// finest first or coarsest first: a level 0 generated after the chain
// exists must hold the same bits as one read before anything else.
func sameBits(t *testing.T, what string, coarsestFirst bool, got, want *Texture) {
	t.Helper()
	if len(got.levels) != len(want.levels) {
		t.Fatalf("%s: %d levels, reference has %d", what, len(got.levels), len(want.levels))
	}
	for i := range want.levels {
		lv := i
		if coarsestFirst {
			lv = len(want.levels) - 1 - i
		}
		g, w := got.levels[lv], want.levels[lv]
		gp, wp := got.texels(lv), want.texels(lv)
		if g.w != w.w || g.h != w.h || len(gp) != len(wp) {
			t.Fatalf("%s level %d: %dx%d (%d texels), reference %dx%d (%d)", what, lv, g.w, g.h, len(gp), w.w, w.h, len(wp))
		}
		for i := range wp {
			if a, b := gp[i], wp[i]; !sameVec4(a, b) {
				t.Fatalf("%s level %d texel %d: %v, reference %v", what, lv, i, a, b)
			}
		}
	}
}

// inBothOrders runs a reference comparison on fresh textures twice, finest
// level first and then coarsest first.
func inBothOrders(t *testing.T, what string, got, want func() *Texture) {
	t.Helper()
	for _, coarsestFirst := range []bool{false, true} {
		sameBits(t, what, coarsestFirst, got(), want())
	}
}

func TestNoiseMatchesReference(t *testing.T) {
	for _, c := range []struct {
		w, h, layers int
		seed         int64
	}{
		{512, 512, 1, 11}, {256, 256, 8, 211}, {64, 16, 2, 3}, {8, 128, 1, 5}, {1, 1, 1, 9}, {2, 1, 3, 1}, {1024, 1024, 1, 101},
	} {
		if testing.Short() && c.w > 512 {
			continue
		}
		inBothOrders(t, "Noise",
			func() *Texture { return Noise("n", FormatRGBA8, c.w, c.h, c.layers, c.seed) },
			func() *Texture { return noiseRef("n", FormatRGBA8, c.w, c.h, c.layers, c.seed) })
	}
}

// TestMipChainMatchesReference drives New's filter with content that has
// negative zeros, infinities and denormals in it, on square chains (2×2
// boxes at every level) and on chains that run out of one axis first (2×1
// and 1×2 boxes for the tail).
func TestMipChainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	special := []float32{float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)), 1e-42, -1e-42, math.MaxFloat32}
	for _, c := range []struct{ w, h, layers int }{{64, 64, 1}, {32, 32, 3}, {64, 4, 2}, {2, 32, 1}, {1, 8, 1}, {2, 2, 1}} {
		pix := make([]gmath.Vec4, c.w*c.h*c.layers)
		for i := range pix {
			pix[i] = gmath.V4(rng.Float32()-0.5, rng.Float32(), float32(rng.NormFloat64()), 1)
			if rng.Intn(4) == 0 {
				pix[i].X = special[rng.Intn(len(special))]
				pix[i].Y = special[rng.Intn(len(special))]
			}
		}
		inBothOrders(t, "New", func() *Texture {
			got, err := New("m", FormatRGBA8, c.w, c.h, c.layers, pix)
			if err != nil {
				t.Fatal(err)
			}
			return got
		}, func() *Texture { return newRef("m", FormatRGBA8, c.w, c.h, c.layers, pix) })
	}
}

// noiseFineRef is NoiseFine as it was: every channel through rand.Float32.
func noiseFineRef(name string, fmtc Format, w, h, layers int, seed int64) *Texture {
	rng := rand.New(rand.NewSource(seed))
	pix := make([]gmath.Vec4, w*h*layers)
	for i := range pix {
		pix[i] = gmath.V4(rng.Float32(), rng.Float32(), rng.Float32(), 1)
	}
	return newRef(name, fmtc, w, h, layers, pix)
}

func TestNoiseFineMatchesReference(t *testing.T) {
	for _, c := range []struct {
		w, h, layers int
		seed         int64
	}{
		{256, 256, 1, 12}, {128, 128, 1, 306}, {64, 16, 3, 7}, {4, 64, 2, -1}, {1, 1, 1, 0}, {2, 1, 5, 1 << 40},
	} {
		inBothOrders(t, "NoiseFine",
			func() *Texture { return NoiseFine("f", FormatRGBA8, c.w, c.h, c.layers, c.seed) },
			func() *Texture { return noiseFineRef("f", FormatRGBA8, c.w, c.h, c.layers, c.seed) })
	}
}

// scripted is a rand.Source that replays fixed Int63 values, so that the
// draws rand.Float32 throws away (a Float64 or a float32 that rounds to 1)
// can be put where a test wants them.
type scripted struct {
	vals []int64
	next int
}

func (s *scripted) Int63() int64 {
	v := s.vals[s.next%len(s.vals)]
	s.next++
	return v
}

func (s *scripted) Seed(int64) { s.next = 0 }

// TestUnitFloat32ResamplesLikeRandFloat32 drives both "resample on 1"
// rules: an Int63 whose Float64 rounds to 1, and one whose Float64 is below
// 1 but whose float32 is not.
func TestUnitFloat32ResamplesLikeRandFloat32(t *testing.T) {
	const one = 1 << 63
	if float64(int64(math.MaxInt64))/one != 1 {
		t.Fatal("MaxInt64 no longer rounds to a Float64 of 1")
	}
	if f := float64(int64(math.MaxInt64-1<<20)) / one; f == 1 || float32(f) != 1 {
		t.Fatalf("MaxInt64-2^20: Float64 %v, float32 %v; want below 1, then 1", f, float32(f))
	}
	vals := []int64{
		math.MaxInt64,           // Float64 rounds to 1: drawn again
		math.MaxInt64 - 1<<20,   // Float64 below 1, float32 1: drawn again
		1 << 62,                 // 0.5
		0,                       // 0
		math.MaxInt64 - 1<<40,   // 1 - 2^-23 in both
		math.MaxInt64 - 1<<38,   // 1 - 2^-25, a tie the float32 rounds to 1
		12345678901234567,       // ordinary
		math.MaxInt64 - 1<<39,   // 1 - 2^-24, the largest float32 below 1
		math.MaxInt64/3 + 77777, // ordinary
	}
	wantSrc, got := &scripted{vals: vals}, &scripted{vals: vals}
	want := rand.New(wantSrc)
	for i := 0; i < 4*len(vals); i++ {
		w, g := want.Float32(), unitFloat32(got)
		if math.Float32bits(g) != math.Float32bits(w) || got.next != wantSrc.next {
			t.Fatalf("draw %d: %v after %d Int63s, rand.Float32 %v after %d", i, g, got.next, w, wantSrc.next)
		}
	}
	if got.next == 4*len(vals) {
		t.Fatal("no draw was resampled")
	}
}

// sampleBilinearRef is sampleBilinear as it was: four texel() calls, each
// clamping its coordinates and the layer, and a TexelAddr that clamps again.
func (t *Texture) sampleBilinearRef(u, v float32, layer, lv int) (gmath.Vec4, uint64) {
	lv = gmath.ClampInt(lv, 0, len(t.levels)-1)
	l := &t.levels[lv]
	fx := t.wrap(u)*float32(l.w) - 0.5
	fy := t.wrap(v)*float32(l.h) - 0.5
	x0 := int(gmath.Floor(fx))
	y0 := int(gmath.Floor(fy))
	tx := fx - float32(x0)
	ty := fy - float32(y0)
	c00 := t.texel(lv, layer, x0, y0)
	c10 := t.texel(lv, layer, x0+1, y0)
	c01 := t.texel(lv, layer, x0, y0+1)
	c11 := t.texel(lv, layer, x0+1, y0+1)
	top := c00.Scale(1 - tx).Add(c10.Scale(tx))
	bot := c01.Scale(1 - tx).Add(c11.Scale(tx))
	c := top.Scale(1 - ty).Add(bot.Scale(ty))
	nx, ny := x0, y0
	if tx > 0.5 {
		nx = x0 + 1
	}
	if ty > 0.5 {
		ny = y0 + 1
	}
	return c, t.TexelAddr(lv, layer, nx, ny)
}

func sameVec4(a, b gmath.Vec4) bool {
	return math.Float32bits(a.X) == math.Float32bits(b.X) && math.Float32bits(a.Y) == math.Float32bits(b.Y) &&
		math.Float32bits(a.Z) == math.Float32bits(b.Z) && math.Float32bits(a.W) == math.Float32bits(b.W)
}

// TestSampleBilinearMatchesReference samples at random coordinates, well
// outside [0, 1) too, and exactly on every level's texel edges and centres,
// in every layer and in layers off either end. A stored texture is its own
// reference; a computed one's reference is New over its generator's rows.
func TestSampleBilinearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, tex := range []*Texture{
		NoiseFine("a", FormatRGBA8, 32, 32, 3, 5),
		NoiseFine("b", FormatBC1, 64, 8, 1, 6),
		NoiseFine("c", FormatR8, 4, 16, 2, 7),
		NoiseFine("d", FormatRGBA16F, 1, 1, 1, 8),
	} {
		sampleMatches(t, rng, tex, tex)
	}
	for _, c := range closedFormCases(true) {
		sampleMatches(t, rng, c.tex(), c.ref(t))
	}
}

// sampleMatches compares tex's bilinear samples and addresses with the
// reference sampler's on ref.
func sampleMatches(t *testing.T, rng *rand.Rand, tex, ref *Texture) {
	t.Helper()
	tex.Bind(0x10000)
	ref.Bind(0x10000)
	check := func(u, v float32, layer, lv int) {
		t.Helper()
		c, a := tex.sampleBilinear(u, v, layer, lv)
		rc, ra := ref.sampleBilinearRef(u, v, layer, lv)
		if !sameVec4(c, rc) || a != ra {
			t.Fatalf("%s level %d layer %d at (%v, %v): %v @%#x, reference %v @%#x", tex.Name, lv, layer, u, v, c, a, rc, ra)
		}
	}
	for lv := -1; lv <= tex.Levels(); lv++ {
		w, h := tex.LevelDim(lv)
		for _, layer := range []int{-2, 0, tex.Layers - 1, tex.Layers, 99} {
			for i := 0; i < 200; i++ {
				check(rng.Float32()*6-3, rng.Float32()*6-3, layer, lv)
			}
			// Edges and centres: k/(2n) for every k, and just past both ends.
			for k := -1; k <= 2*w+1; k++ {
				u := float32(k) / float32(2*w)
				for j := -1; j <= 2*h+1; j += max(1, h/4) {
					check(u, float32(j)/float32(2*h), layer, lv)
				}
			}
		}
	}
}

// The row generators Noise, Checker and Gradient had while level 0 was
// stored, each collected into layer-major pixels. Their texels are now
// computed where they are sampled, and must come out with these bits.

// noiseRows is Noise's generator: a band table per layer, built from the
// layer's lattice, and each row lerped between two of its rows.
func noiseRows(w, h, layers int, seed int64) []gmath.Vec4 {
	const lat = 9
	type tap struct {
		i0, i1 int
		t      float32
	}
	axis := func(n int) []tap {
		taps := make([]tap, n)
		for i := range taps {
			f := float32(i) / float32(n) * (lat - 1)
			i0 := int(f)
			taps[i] = tap{i0, gmath.ClampInt(i0+1, 0, lat-1), f - float32(i0)}
		}
		return taps
	}
	rng := rand.New(rand.NewSource(seed))
	cols, rows := axis(w), axis(h)
	lattice := make([]float32, lat*lat*3)
	band := make([][3]float32, lat*w)
	pix := make([]gmath.Vec4, 0, w*h*layers)
	row := make([]gmath.Vec4, w)
	for l := 0; l < layers; l++ {
		for i := range lattice {
			lattice[i] = rng.Float32()
		}
		for i := 0; i < lat; i++ {
			lrow, brow := lattice[i*lat*3:(i+1)*lat*3], band[i*w:(i+1)*w]
			for x, c := range cols {
				v0, v1 := lrow[c.i0*3:][:3], lrow[c.i1*3:][:3]
				brow[x] = [3]float32{gmath.Lerp(v0[0], v1[0], c.t), gmath.Lerp(v0[1], v1[1], c.t), gmath.Lerp(v0[2], v1[2], c.t)}
			}
		}
		for _, r := range rows {
			b0, b1 := band[r.i0*w:(r.i0+1)*w], band[r.i1*w:(r.i1+1)*w]
			for x := range row {
				row[x] = gmath.V4(gmath.Lerp(b0[x][0], b1[x][0], r.t), gmath.Lerp(b0[x][1], b1[x][1], r.t), gmath.Lerp(b0[x][2], b1[x][2], r.t), 1)
			}
			pix = append(pix, row...)
		}
	}
	return pix
}

func checkerRows(w, h int, a, b gmath.Vec4, cells int) []gmath.Vec4 {
	if cells < 1 {
		cells = 8
	}
	cw, ch := max(1, w/cells), max(1, h/cells)
	pix := make([]gmath.Vec4, 0, w*h)
	row := make([]gmath.Vec4, w)
	for y := 0; y < h; y++ {
		for x := range row {
			if ((x/cw)+(y/ch))%2 == 0 {
				row[x] = a
			} else {
				row[x] = b
			}
		}
		pix = append(pix, row...)
	}
	return pix
}

func gradientRows(w, h int, a, b gmath.Vec4) []gmath.Vec4 {
	row := make([]gmath.Vec4, w)
	for x := range row {
		t := float32(0)
		if w > 1 {
			t = float32(x) / float32(w-1)
		}
		row[x] = a.Scale(1 - t).Add(b.Scale(t))
	}
	pix := make([]gmath.Vec4, 0, w*h)
	for y := 0; y < h; y++ {
		pix = append(pix, row...)
	}
	return pix
}

// closedFormCase is one computed texture and its generator's rows.
type closedFormCase struct {
	tex  func() *Texture
	rows func() []gmath.Vec4
}

// ref is the case's texture built by New over its generator's rows.
func (c closedFormCase) ref(t *testing.T) *Texture {
	t.Helper()
	tex := c.tex()
	ref, err := New(tex.Name, tex.Fmt, tex.W, tex.H, tex.Layers, c.rows())
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// closedFormCases covers Noise square and not, in 1 and 8 layers (IT's
// array); Checker with cells of 1, of 8 and not dividing the width; and
// Gradient 1, 2 and 256 wide. small leaves out those over 64×64 texels.
func closedFormCases(small bool) []closedFormCase {
	a, b := gmath.V4(0.25, 0.22, 0.2, 1), gmath.V4(0.45, -0.42, 0.4, 0.5)
	var cs []closedFormCase
	for _, n := range []struct {
		w, h, layers int
		seed         int64
	}{{64, 64, 1, 11}, {32, 8, 1, 3}, {4, 64, 2, 5}, {1, 1, 1, 9}, {2, 1, 3, 1}, {16, 16, 8, 211}, {256, 256, 8, 211}, {512, 512, 1, 401}} {
		if small && n.w*n.h > 64*64 {
			continue
		}
		cs = append(cs, closedFormCase{
			func() *Texture { return Noise("noise", FormatRGBA8, n.w, n.h, n.layers, n.seed) },
			func() []gmath.Vec4 { return noiseRows(n.w, n.h, n.layers, n.seed) },
		})
	}
	for _, c := range []struct{ w, h, cells int }{{16, 16, 1}, {64, 64, 8}, {32, 8, 8}, {32, 32, 3}, {64, 16, 5}, {2, 2, 8}, {1, 4, 0}, {512, 512, 24}} {
		if small && c.w*c.h > 64*64 {
			continue
		}
		cs = append(cs, closedFormCase{
			func() *Texture { return Checker("checker", FormatRGBA16F, c.w, c.h, a, b, c.cells) },
			func() []gmath.Vec4 { return checkerRows(c.w, c.h, a, b, c.cells) },
		})
	}
	for _, g := range []struct{ w, h int }{{1, 1}, {1, 8}, {2, 2}, {256, 4}, {256, 256}} {
		if small && g.w*g.h > 64*64 {
			continue
		}
		cs = append(cs, closedFormCase{
			func() *Texture { return Gradient("gradient", FormatRG8, g.w, g.h, a, b) },
			func() []gmath.Vec4 { return gradientRows(g.w, g.h, a, b) },
		})
	}
	return cs
}

// TestClosedFormMatchesReference: every computed level-0 texel has the bits
// its generator emitted, none is stored, and the chain filtered from the
// computed rows is the chain New filters from the generator's.
func TestClosedFormMatchesReference(t *testing.T) {
	for _, c := range closedFormCases(testing.Short()) {
		tex, rows := c.tex(), c.rows()
		what := fmt.Sprintf("%s %dx%dx%d", tex.Name, tex.W, tex.H, tex.Layers)
		for i, p := range tex.texels(0) {
			if !sameVec4(p, rows[i]) {
				t.Fatalf("%s texel %d: %v, generator %v", what, i, p, rows[i])
			}
		}
		if len(tex.levels[0].pix) != 0 {
			t.Fatalf("%s holds level 0", what)
		}
		inBothOrders(t, what, c.tex, func() *Texture { return c.ref(t) })
	}
}

func TestGradientEndpoints(t *testing.T) {
	a, b := gmath.V4(1, 0, 0.25, 1), gmath.V4(0, 1, 0.75, 1)
	for _, c := range []struct {
		w, h        int
		first, last gmath.Vec4
	}{
		{1, 1, a, a}, // x/(w-1) was 0/0 here: every texel NaN
		{1, 4, a, a},
		{2, 2, a, b},
		{128, 128, a, b},
	} {
		g := Gradient("g", FormatRGBA8, c.w, c.h, a, b)
		for lv := range g.levels {
			for i, p := range g.texels(lv) {
				if p.X != p.X || p.Y != p.Y || p.Z != p.Z || p.W != p.W {
					t.Fatalf("%dx%d level %d texel %d is NaN: %v", c.w, c.h, lv, i, p)
				}
			}
		}
		row := g.texels(0)[:c.w]
		if row[0] != c.first || row[c.w-1] != c.last {
			t.Errorf("%dx%d: row runs %v … %v, want %v … %v", c.w, c.h, row[0], row[c.w-1], c.first, c.last)
		}
	}
}
