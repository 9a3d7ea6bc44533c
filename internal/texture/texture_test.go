package texture

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"crisp/internal/gmath"
)

func solid(w, h, layers int, c gmath.Vec4) []gmath.Vec4 {
	pix := make([]gmath.Vec4, w*h*layers)
	for i := range pix {
		pix[i] = c
	}
	return pix
}

func TestMipChainLength(t *testing.T) {
	// log2(dim)+1 levels, per the paper.
	tex, err := New("t", FormatRGBA8, 64, 64, 1, solid(64, 64, 1, gmath.V4(1, 0, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if tex.Levels() != 7 {
		t.Errorf("levels = %d, want 7 (log2(64)+1)", tex.Levels())
	}
	w, h := tex.LevelDim(6)
	if w != 1 || h != 1 {
		t.Errorf("top level = %dx%d", w, h)
	}
	// Non-square: 64x16 → log2(64)+1 = 7 levels, clamped min dim 1.
	tex2, err := New("t2", FormatRGBA8, 64, 16, 1, solid(64, 16, 1, gmath.V4(0, 1, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if tex2.Levels() != 7 {
		t.Errorf("64x16 levels = %d, want 7", tex2.Levels())
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New("bad", FormatRGBA8, 60, 64, 1, solid(60, 64, 1, gmath.Vec4{})); err == nil {
		t.Error("accepted non-power-of-two width")
	}
	if _, err := New("bad", FormatRGBA8, 64, 64, 1, make([]gmath.Vec4, 3)); err == nil {
		t.Error("accepted wrong pixel count")
	}
	if _, err := New("bad", FormatRGBA8, 0, 64, 1, nil); err == nil {
		t.Error("accepted zero dimension")
	}
}

func TestDownsamplePreservesSolidColor(t *testing.T) {
	c := gmath.V4(0.25, 0.5, 0.75, 1)
	tex, _ := New("t", FormatRGBA8, 32, 32, 1, solid(32, 32, 1, c))
	tex.Bind(0x1000)
	for lv := 0; lv < tex.Levels(); lv++ {
		col, _ := tex.Sample(0.5, 0.5, 0, float32(lv), FilterNearest)
		if gmath.Abs(col.X-c.X) > 1e-5 || gmath.Abs(col.Y-c.Y) > 1e-5 {
			t.Errorf("level %d color = %v", lv, col)
		}
	}
}

func TestBindAssignsDisjointLevels(t *testing.T) {
	tex, _ := New("t", FormatRGBA8, 16, 16, 1, solid(16, 16, 1, gmath.Vec4{}))
	size := tex.Bind(0x10000)
	if size == 0 {
		t.Fatal("Bind returned zero size")
	}
	// Level 0 occupies 16*16*4 = 1024 bytes; level 1 must start after.
	a0 := tex.TexelAddr(0, 0, 15, 15)
	a1 := tex.TexelAddr(1, 0, 0, 0)
	if a1 <= a0 {
		t.Errorf("level 1 base %#x overlaps level 0 end %#x", a1, a0)
	}
	// All addresses inside [base, base+size).
	for lv := 0; lv < tex.Levels(); lv++ {
		w, h := tex.LevelDim(lv)
		a := tex.TexelAddr(lv, 0, w-1, h-1)
		if a < 0x10000 || a >= 0x10000+size {
			t.Errorf("level %d texel address %#x outside texture", lv, a)
		}
	}
}

func TestTexelAddrFormats(t *testing.T) {
	for _, f := range []Format{FormatRGBA8, FormatRG8, FormatR8, FormatRGBA16F} {
		tex, _ := New("t", f, 16, 16, 1, solid(16, 16, 1, gmath.Vec4{}))
		tex.Bind(0)
		stride := tex.TexelAddr(0, 0, 1, 0) - tex.TexelAddr(0, 0, 0, 0)
		if int(stride) != f.Bytes() {
			t.Errorf("%v stride = %d, want %d", f, stride, f.Bytes())
		}
	}
	// BC1: two texels per byte.
	tex, _ := New("t", FormatBC1, 16, 16, 1, solid(16, 16, 1, gmath.Vec4{}))
	tex.Bind(0)
	if d := tex.TexelAddr(0, 0, 2, 0) - tex.TexelAddr(0, 0, 0, 0); d != 1 {
		t.Errorf("BC1 2-texel delta = %d, want 1", d)
	}
}

func TestMipMergeReducesDistinctTexels(t *testing.T) {
	// The Fig. 7 mechanism: 4 texel coordinates in a 4x4 texture that are
	// distinct at level 0 collide at level 1.
	tex, _ := New("t", FormatRGBA8, 4, 4, 1, solid(4, 4, 1, gmath.Vec4{}))
	tex.Bind(0)
	uvs := [][2]float32{{0.1, 0.1}, {0.3, 0.1}, {0.1, 0.3}, {0.3, 0.3}}
	addrs0 := map[uint64]bool{}
	addrs1 := map[uint64]bool{}
	for _, uv := range uvs {
		_, a0 := tex.Sample(uv[0], uv[1], 0, 0, FilterNearest)
		addrs0[a0] = true
		_, a1 := tex.Sample(uv[0], uv[1], 0, 1, FilterNearest)
		addrs1[a1] = true
	}
	if len(addrs0) != 4 {
		t.Errorf("level 0 distinct texels = %d, want 4", len(addrs0))
	}
	if len(addrs1) != 1 {
		t.Errorf("level 1 distinct texels = %d, want 1", len(addrs1))
	}
}

func TestLayeredAddressing(t *testing.T) {
	tex, _ := New("t", FormatRGBA8, 8, 8, 4, solid(8, 8, 4, gmath.Vec4{}))
	tex.Bind(0)
	a0 := tex.TexelAddr(0, 0, 0, 0)
	a1 := tex.TexelAddr(0, 1, 0, 0)
	if a1-a0 != 8*8*4 {
		t.Errorf("layer stride = %d, want %d", a1-a0, 8*8*4)
	}
}

func TestSampleWraps(t *testing.T) {
	tex := Checker("c", FormatRGBA8, 16, 16, gmath.V4(1, 1, 1, 1), gmath.V4(0, 0, 0, 1), 2)
	tex.Bind(0)
	c1, _ := tex.Sample(0.25, 0.25, 0, 0, FilterNearest)
	c2, _ := tex.Sample(1.25, 0.25, 0, 0, FilterNearest)
	if c1 != c2 {
		t.Errorf("wrap mismatch: %v vs %v", c1, c2)
	}
}

func TestBilinearBlends(t *testing.T) {
	// Half black, half white: sampling the boundary blends.
	pix := make([]gmath.Vec4, 16*16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			v := float32(0)
			if x >= 8 {
				v = 1
			}
			pix[y*16+x] = gmath.V4(v, v, v, 1)
		}
	}
	tex, _ := New("t", FormatRGBA8, 16, 16, 1, pix)
	tex.Bind(0)
	c, _ := tex.Sample(0.5, 0.5, 0, 0, FilterBilinear)
	if c.X <= 0.2 || c.X >= 0.8 {
		t.Errorf("boundary sample = %v, want blended", c.X)
	}
}

func TestTrilinearBlendsLevels(t *testing.T) {
	// Level 0 is a checker; level 4 is nearly uniform. A fractional LoD
	// between them must interpolate.
	tex := Checker("c", FormatRGBA8, 32, 32, gmath.V4(1, 1, 1, 1), gmath.V4(0, 0, 0, 1), 16)
	tex.Bind(0)
	c0, _ := tex.Sample(0.26, 0.26, 0, 0, FilterTrilinear)
	cTop, _ := tex.Sample(0.26, 0.26, 0, float32(tex.Levels()-1), FilterTrilinear)
	cMid, _ := tex.Sample(0.26, 0.26, 0, 2.5, FilterTrilinear)
	lo, hi := gmath.Min(c0.X, cTop.X), gmath.Max(c0.X, cTop.X)
	if cMid.X < lo-0.3 || cMid.X > hi+0.3 {
		t.Errorf("trilinear mid %v outside [%v, %v] band", cMid.X, lo, hi)
	}
}

func TestLodForFootprints(t *testing.T) {
	tex, _ := New("t", FormatRGBA8, 256, 256, 1, solid(256, 256, 1, gmath.Vec4{}))
	// One texel per pixel → LoD 0.
	if l := tex.Lod(1.0 / 256); l != 0 {
		t.Errorf("1:1 LoD = %v", l)
	}
	// Four texels per pixel → LoD 2.
	if l := tex.Lod(4.0 / 256); gmath.Abs(l-2) > 0.01 {
		t.Errorf("4:1 LoD = %v, want 2", l)
	}
	// Magnification clamps at 0.
	if l := tex.Lod(0.1 / 256); l != 0 {
		t.Errorf("magnified LoD = %v, want 0", l)
	}
	// The larger dimension sets the scale, whichever axis it is.
	wide, _ := New("w", FormatRGBA8, 256, 64, 1, solid(256, 64, 1, gmath.Vec4{}))
	tall, _ := New("t", FormatRGBA8, 64, 256, 1, solid(64, 256, 1, gmath.Vec4{}))
	if lw, lt := wide.Lod(4.0/256), tall.Lod(4.0/256); lw != lt || gmath.Abs(lw-2) > 0.01 {
		t.Errorf("4:1 LoD on 256×64 = %v, on 64×256 = %v; want 2 on both", lw, lt)
	}
}

func TestSampleAddrAlwaysInBounds(t *testing.T) {
	tex := Noise("n", FormatRGBA8, 64, 64, 2, 42)
	base := uint64(0x40000)
	size := tex.Bind(base)
	f := func(u, v float32, lod float32, layer uint8) bool {
		if u != u || v != v || lod != lod { // NaN guards
			return true
		}
		_, addr := tex.Sample(u, v, int(layer%2), gmath.Clamp(lod, 0, 20), FilterTrilinear)
		return addr >= base && addr < base+size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestProceduralGeneratorsDeterministic(t *testing.T) {
	a := Noise("n", FormatRGBA8, 32, 32, 1, 7)
	b := Noise("n", FormatRGBA8, 32, 32, 1, 7)
	a.Bind(0)
	b.Bind(0)
	for _, uv := range [][2]float32{{0.1, 0.9}, {0.5, 0.5}, {0.99, 0.01}} {
		ca, _ := a.Sample(uv[0], uv[1], 0, 0, FilterNearest)
		cb, _ := b.Sample(uv[0], uv[1], 0, 0, FilterNearest)
		if ca != cb {
			t.Errorf("same-seed noise differs at %v", uv)
		}
	}
	c := Noise("n", FormatRGBA8, 32, 32, 1, 8)
	c.Bind(0)
	same := true
	for _, uv := range [][2]float32{{0.1, 0.9}, {0.5, 0.5}, {0.9, 0.1}} {
		ca, _ := a.Sample(uv[0], uv[1], 0, 0, FilterNearest)
		cc, _ := c.Sample(uv[0], uv[1], 0, 0, FilterNearest)
		if ca != cc {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestFormatStrings(t *testing.T) {
	for _, f := range []Format{FormatRGBA8, FormatRG8, FormatR8, FormatRGBA16F, FormatBC1} {
		if f.String() == "" {
			t.Errorf("format %d unnamed", f)
		}
		if f.Bytes() <= 0 {
			t.Errorf("format %v non-positive bytes", f)
		}
	}
}

func TestLodForMonotoneInFootprint(t *testing.T) {
	tex, _ := New("t", FormatRGBA8, 256, 256, 1, solid(256, 256, 1, gmath.Vec4{}))
	f := func(raw uint16) bool {
		// Two footprints, a ≤ b: LoD(a) ≤ LoD(b).
		a := float32(raw%1000) / 1000 * 0.1
		b := a * 2
		la := tex.Lod(a)
		lb := tex.Lod(b)
		return la <= lb+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMipDimsHalveMonotonically(t *testing.T) {
	tex, _ := New("t", FormatRGBA8, 128, 32, 1, solid(128, 32, 1, gmath.Vec4{}))
	pw, ph := tex.LevelDim(0)
	for lv := 1; lv < tex.Levels(); lv++ {
		w, h := tex.LevelDim(lv)
		if w > pw || h > ph || w < 1 || h < 1 {
			t.Fatalf("level %d dims %dx%d after %dx%d", lv, w, h, pw, ph)
		}
		pw, ph = w, h
	}
	if pw != 1 || ph != 1 {
		t.Errorf("top level = %dx%d, want 1x1", pw, ph)
	}
}

// TestLevelZeroFillRaceFree: the first level-0 samples of a fresh
// generated texture come from several goroutines at once, and every one
// of them reads the texels the generator makes.
func TestLevelZeroFillRaceFree(t *testing.T) {
	const readers = 8
	read := func(tex *Texture) (s []gmath.Vec4) {
		for layer := 0; layer < tex.Layers; layer++ {
			for y := 0; y < tex.H; y += 3 {
				for x := 0; x < tex.W; x += 5 {
					c, _ := tex.Sample((float32(x)+0.5)/float32(tex.W), (float32(y)+0.5)/float32(tex.H), layer, 0, FilterNearest)
					s = append(s, c)
				}
			}
		}
		return s
	}
	want := noiseFineRef("race", FormatRGBA8, 64, 64, 2, 17)
	want.Bind(0)
	tex := NoiseFine("race", FormatRGBA8, 64, 64, 2, 17)
	tex.Bind(0)
	start := make(chan struct{})
	got := make([][]gmath.Vec4, readers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = read(tex)
		}()
	}
	close(start)
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], read(want)) {
			t.Fatalf("reader %d read other level-0 texels than the reference", g)
		}
	}
}
