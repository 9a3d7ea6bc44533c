// Package texture models GPU textures with full mip chains: formats,
// procedural content generation, normalized-coordinate addressing,
// nearest/bilinear/trilinear filtering, layered (array) textures, and —
// crucially for the simulator — the texel byte addresses each sample
// touches, which the shader front end records into TEX traces.
//
// Mipmapping is the subject of the paper's first case study: each level is
// down-sampled by half, the chain has log2(dim)+1 levels, and sampling at
// a higher level makes neighboring fragments collide onto the same texel,
// cutting L1 texture traffic by multiples (paper Figs. 7-9). The same fact
// keeps host memory down: a frame reads only the levels its footprints
// select. Noise, Checker and Gradient compute each level-0 texel where it
// is sampled, from a band table, two colors or one row, and never store
// level 0; NoiseFine, whose texels are one sequential random stream,
// stores its level 0 only once it is read.
package texture

import (
	"fmt"
	"math/rand"
	"sync"

	"crisp/internal/gmath"
)

// Format is a texel storage format; it determines bytes per texel and thus
// the address stride, which shapes cache-line utilization.
type Format uint8

const (
	// FormatRGBA8 is 8-bit-per-channel color (4 B/texel).
	FormatRGBA8 Format = iota
	// FormatRG8 is a two-channel format (2 B/texel), e.g. normal XY.
	FormatRG8
	// FormatR8 is single channel (1 B/texel), e.g. AO or roughness.
	FormatR8
	// FormatRGBA16F is half-float HDR color (8 B/texel), e.g. irradiance.
	FormatRGBA16F
	// FormatBC1 approximates a block-compressed footprint (0.5 B/texel,
	// modeled as 1 B per 2 texels along x).
	FormatBC1
)

// Bytes reports the storage size of one texel (BC1 reports 1; its halved
// footprint is handled in address computation).
func (f Format) Bytes() int {
	switch f {
	case FormatRGBA8:
		return 4
	case FormatRG8:
		return 2
	case FormatR8:
		return 1
	case FormatRGBA16F:
		return 8
	case FormatBC1:
		return 1
	}
	return 4
}

func (f Format) String() string {
	switch f {
	case FormatRGBA8:
		return "RGBA8"
	case FormatRG8:
		return "RG8"
	case FormatR8:
		return "R8"
	case FormatRGBA16F:
		return "RGBA16F"
	case FormatBC1:
		return "BC1"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// Filter selects the sampling filter.
type Filter uint8

const (
	// FilterNearest picks the closest texel.
	FilterNearest Filter = iota
	// FilterBilinear blends the 2×2 neighborhood.
	FilterBilinear
	// FilterTrilinear blends bilinear taps from two mip levels.
	FilterTrilinear
)

// level is one mip level's pixel storage (RGBA float for simplicity;
// the Format only affects addressing).
type level struct {
	w, h int
	pix  []gmath.Vec4 // layer-major: layer*w*h + y*w + x; read through pixels
}

// rowGen calls emit with every row of level 0, layer by layer and top to
// bottom, the same rows on every call. A row is only read during emit.
type rowGen func(emit func(row []gmath.Vec4))

// form says where a texture's level-0 texels come from.
type form uint8

const (
	// stored: levels[0].pix, New's pixels or NoiseFine's rows once read.
	stored form = iota
	// noise: lerped between two rows of the band table.
	noise
	// checker: a or b by the parity of the texel's cell.
	checker
	// gradient: the row every level-0 row repeats.
	gradient
)

// lat is the side of Noise's random lattice.
const lat = 9

// tap is one axis coordinate's lattice cell [i0, i1] and weight t.
type tap struct {
	i0, i1 int
	t      float32
}

// Texture is a (possibly layered) 2D texture with a full mip chain. Levels
// 1…n are filtered at construction. Level 0 of Noise, Checker and Gradient
// is never stored: its texels are computed where they are sampled, from a
// table a few rows in size. NoiseFine stores its level 0 only once
// something samples it (most frames read coarser levels of most maps), by
// running its generator again.
type Texture struct {
	Name   string
	Fmt    Format
	W, H   int
	Layers int
	levels []level
	form   form
	// gen regenerates a stored level 0 the first time fill runs.
	gen  rowGen
	fill sync.Once
	// noise: texel (x, y) of layer l lerps band[(l*lat+i)*W+x] between
	// i = taps[y].i0 and taps[y].i1 by taps[y].t; a band row is one lattice
	// row already interpolated at every column.
	taps []tap
	band [][3]float32
	// checker: a where the cw×ch cells' column and row indices sum to an
	// even number, b elsewhere.
	a, b   gmath.Vec4
	cw, ch int
	// gradient: level 0's one distinct row.
	row []gmath.Vec4
	// base is the virtual byte address of each level's storage.
	base []uint64
	size uint64
}

// New builds a texture from layer-major RGBA pixels, which it keeps as
// level 0, and generates the full mip chain. W and H must be powers of two.
func New(name string, fmtc Format, w, h, layers int, pix []gmath.Vec4) (*Texture, error) {
	if err := checkDims(name, w, h, layers); err != nil {
		return nil, err
	}
	if len(pix) != w*h*layers {
		return nil, fmt.Errorf("texture %q: %d pixels for %dx%dx%d", name, len(pix), w, h, layers)
	}
	t := newTexture(name, fmtc, w, h, layers)
	t.filter(func(emit func([]gmath.Vec4)) {
		for i := 0; i < len(pix); i += w {
			emit(pix[i : i+w])
		}
	})
	t.fill.Do(func() { t.levels[0].pix = pix })
	return t, nil
}

func checkDims(name string, w, h, layers int) error {
	if w <= 0 || h <= 0 || layers <= 0 {
		return fmt.Errorf("texture %q: bad dimensions %dx%dx%d", name, w, h, layers)
	}
	if w&(w-1) != 0 || h&(h-1) != 0 {
		return fmt.Errorf("texture %q: dimensions %dx%d not powers of two", name, w, h)
	}
	return nil
}

// newTexture is a texture with its chain's levels 1…n allocated and level
// 0 empty.
func newTexture(name string, fmtc Format, w, h, layers int) *Texture {
	if err := checkDims(name, w, h, layers); err != nil {
		panic(err) // power-of-two inputs only; programmer error
	}
	t := &Texture{Name: name, Fmt: fmtc, W: w, H: h, Layers: layers}
	t.levels = append(t.levels, level{w: w, h: h})
	for lw, lh := w, h; lw > 1 || lh > 1; {
		lw, lh = max(1, lw/2), max(1, lh/2)
		t.levels = append(t.levels, level{w: lw, h: lh, pix: make([]gmath.Vec4, lw*lh*layers)})
	}
	return t
}

// filter streams level 0's rows through the mip filter into levels 1…n.
// Only the upper row of the pair being filtered is copied; every coarser
// row is read back from its own level.
func (t *Texture) filter(rows rowGen) {
	var upper []gmath.Vec4
	r := 0
	rows(func(row []gmath.Vec4) {
		switch {
		case t.H == 1:
			t.filterDown(r, row, nil)
		case r%2 == 0:
			upper = append(upper[:0], row...)
		default:
			t.filterDown(r, upper, row)
		}
		r++
	})
}

// filterDown box-filters one row of level 1 from rows a and b of level 0
// (b nil when level 1 keeps level 0's height of 1), r being the index of
// the last of them across all layers. Each row it writes that completes a
// pair, or that has no pair, is filtered into the next level in turn.
func (t *Texture) filterDown(r int, a, b []gmath.Vec4) {
	for k := 0; k+1 < len(t.levels); k++ {
		src, dst := &t.levels[k], &t.levels[k+1]
		if src.h > 1 {
			r /= 2
		}
		out := dst.pix[r*dst.w : (r+1)*dst.w]
		boxRow(out, a, b, src.w/dst.w)
		switch {
		case dst.h == 1:
			a, b = out, nil
		case r%2 == 0:
			return // the upper row of a pair: the lower one carries on
		default:
			a, b = dst.pix[(r-1)*dst.w:r*dst.w], out
		}
	}
}

// boxRow filters out from source rows a and b (b nil when the level keeps
// its height), sx source columns per output texel. Taps add onto a zero in
// the order a box reads them, row by row and left to right, before the
// scale: (((0+a0)+a1)+b0)+b1. The zero stays: 0 + -0 is +0.
func boxRow(out, a, b []gmath.Vec4, sx int) {
	var zero gmath.Vec4
	switch {
	case b == nil: // sx is 2: a level of height 1 always narrows
		for x := range out {
			out[x] = zero.Add(a[2*x]).Add(a[2*x+1]).Scale(0.5)
		}
	case sx == 1:
		for x := range out {
			out[x] = zero.Add(a[x]).Add(b[x]).Scale(0.5)
		}
	default:
		for x := range out {
			out[x] = zero.Add(a[2*x]).Add(a[2*x+1]).Add(b[2*x]).Add(b[2*x+1]).Scale(0.25)
		}
	}
}

// pixels is level lv's storage. Levels 1…n pay no check; level 0 is read
// here only where its form is stored.
func (t *Texture) pixels(lv int) []gmath.Vec4 {
	if lv == 0 {
		return t.level0()
	}
	return t.levels[lv].pix
}

// level0 is a stored level 0, generated on its first read.
func (t *Texture) level0() []gmath.Vec4 {
	t.fill.Do(t.fillLevel0)
	return t.levels[0].pix
}

func (t *Texture) fillLevel0() {
	pix := make([]gmath.Vec4, 0, t.W*t.H*t.Layers)
	t.gen(func(row []gmath.Vec4) { pix = append(pix, row...) })
	t.levels[0].pix, t.gen = pix, nil
}

// closedRows emits a computed level 0 row by row, as a rowGen.
func (t *Texture) closedRows(emit func([]gmath.Vec4)) {
	row := make([]gmath.Vec4, t.W)
	for layer := 0; layer < t.Layers; layer++ {
		for y := 0; y < t.H; y++ {
			switch t.form {
			case noise:
				b0, b1, f := t.bands(layer, y)
				for x := range row {
					row[x] = noiseTexel(&b0[x], &b1[x], f)
				}
			case checker:
				for x := range row {
					row[x] = t.checkerTexel(x, y)
				}
			case gradient:
				copy(row, t.row)
			}
			emit(row)
		}
	}
}

// texel0 is the computed level-0 texel (x, y) of a layer, all in range.
func (t *Texture) texel0(layer, x, y int) gmath.Vec4 {
	switch t.form {
	case noise:
		b0, b1, f := t.bands(layer, y)
		return noiseTexel(&b0[x], &b1[x], f)
	case checker:
		return t.checkerTexel(x, y)
	}
	return t.row[x]
}

// quad0 is the computed level-0 2×2 quad at columns xa, xb and rows ya, yb
// of a layer, all in range: each row's taps are looked up once.
func (t *Texture) quad0(layer, xa, xb, ya, yb int) (p00, p10, p01, p11 gmath.Vec4) {
	switch t.form {
	case noise:
		a0, a1, fa := t.bands(layer, ya)
		b0, b1, fb := t.bands(layer, yb)
		return noiseTexel(&a0[xa], &a1[xa], fa), noiseTexel(&a0[xb], &a1[xb], fa),
			noiseTexel(&b0[xa], &b1[xa], fb), noiseTexel(&b0[xb], &b1[xb], fb)
	case checker:
		return t.checkerTexel(xa, ya), t.checkerTexel(xb, ya), t.checkerTexel(xa, yb), t.checkerTexel(xb, yb)
	}
	return t.row[xa], t.row[xb], t.row[xa], t.row[xb]
}

// bands is the two band rows Noise lerps for level-0 row y of a layer, and
// the weight between them.
func (t *Texture) bands(layer, y int) (b0, b1 [][3]float32, f float32) {
	r := t.taps[y]
	plane := t.band[layer*lat*t.W : (layer+1)*lat*t.W]
	return plane[r.i0*t.W : (r.i0+1)*t.W], plane[r.i1*t.W : (r.i1+1)*t.W], r.t
}

// noiseTexel lerps two band entries by f.
func noiseTexel(b0, b1 *[3]float32, f float32) gmath.Vec4 {
	return gmath.V4(gmath.Lerp(b0[0], b1[0], f), gmath.Lerp(b0[1], b1[1], f), gmath.Lerp(b0[2], b1[2], f), 1)
}

func (t *Texture) checkerTexel(x, y int) gmath.Vec4 {
	if (x/t.cw+y/t.ch)%2 == 0 {
		return t.a
	}
	return t.b
}

// Levels reports the number of mip levels (log2(max dim)+1).
func (t *Texture) Levels() int { return len(t.levels) }

// LevelDim reports the dimensions of a mip level.
func (t *Texture) LevelDim(lv int) (w, h int) {
	lv = gmath.ClampInt(lv, 0, len(t.levels)-1)
	return t.levels[lv].w, t.levels[lv].h
}

// Bind assigns virtual addresses to every level starting at base and
// returns the total byte size occupied.
func (t *Texture) Bind(base uint64) uint64 {
	t.base = make([]uint64, len(t.levels))
	addr := base
	for i, lv := range t.levels {
		t.base[i] = addr
		sz := uint64(lv.w*lv.h*t.Layers) * uint64(t.Fmt.Bytes())
		if t.Fmt == FormatBC1 {
			sz = (sz + 1) / 2
		}
		// Align each level to a cache line.
		addr += (sz + 127) &^ 127
	}
	t.size = addr - base
	return t.size
}

// Size reports the bound byte size (0 before Bind).
func (t *Texture) Size() uint64 { return t.size }

// TexelAddr computes the virtual byte address of texel (x, y) of the given
// layer and level. The texture must be bound.
func (t *Texture) TexelAddr(lv, layer, x, y int) uint64 {
	if t.base == nil {
		panic(fmt.Sprintf("texture %q: TexelAddr before Bind", t.Name))
	}
	lv = gmath.ClampInt(lv, 0, len(t.levels)-1)
	l := &t.levels[lv]
	x = gmath.ClampInt(x, 0, l.w-1)
	y = gmath.ClampInt(y, 0, l.h-1)
	layer = gmath.ClampInt(layer, 0, t.Layers-1)
	return t.addr(lv, layer, x, y)
}

// addr is TexelAddr for coordinates already clamped into the level.
func (t *Texture) addr(lv, layer, x, y int) uint64 {
	l := &t.levels[lv]
	idx := uint64(layer*l.w*l.h + y*l.w + x)
	if t.Fmt == FormatBC1 {
		return t.base[lv] + idx/2
	}
	return t.base[lv] + idx*uint64(t.Fmt.Bytes())
}

// texel fetches one texel with clamp-to-edge addressing.
func (t *Texture) texel(lv, layer, x, y int) gmath.Vec4 {
	l := &t.levels[lv]
	x = gmath.ClampInt(x, 0, l.w-1)
	y = gmath.ClampInt(y, 0, l.h-1)
	layer = gmath.ClampInt(layer, 0, t.Layers-1)
	if lv == 0 && t.form != stored {
		return t.texel0(layer, x, y)
	}
	return t.pixels(lv)[layer*l.w*l.h+y*l.w+x]
}

// Sample filters the texture at normalized (u, v) in the given layer at
// mip level lod (fractional for trilinear), returning the color and the
// byte address of the dominant texel — the address the TEX trace carries.
func (t *Texture) Sample(u, v float32, layer int, lod float32, filter Filter) (gmath.Vec4, uint64) {
	maxLv := float32(len(t.levels) - 1)
	lod = gmath.Clamp(lod, 0, maxLv)
	switch filter {
	case FilterNearest:
		lv := int(lod + 0.5)
		c, a := t.sampleNearest(u, v, layer, lv)
		return c, a
	case FilterBilinear:
		lv := int(lod + 0.5)
		c, a := t.sampleBilinear(u, v, layer, lv)
		return c, a
	default: // trilinear
		lv0 := int(lod)
		frac := lod - float32(lv0)
		c0, a0 := t.sampleBilinear(u, v, layer, lv0)
		if frac == 0 || lv0 == len(t.levels)-1 {
			return c0, a0
		}
		c1, _ := t.sampleBilinear(u, v, layer, lv0+1)
		return gmath.Vec4{
			X: gmath.Lerp(c0.X, c1.X, frac),
			Y: gmath.Lerp(c0.Y, c1.Y, frac),
			Z: gmath.Lerp(c0.Z, c1.Z, frac),
			W: gmath.Lerp(c0.W, c1.W, frac),
		}, a0
	}
}

func (t *Texture) wrap(u float32) float32 {
	u = u - gmath.Floor(u)
	if u < 0 {
		u += 1
	}
	return u
}

func (t *Texture) sampleNearest(u, v float32, layer, lv int) (gmath.Vec4, uint64) {
	lv = gmath.ClampInt(lv, 0, len(t.levels)-1)
	l := &t.levels[lv]
	x := int(t.wrap(u) * float32(l.w))
	y := int(t.wrap(v) * float32(l.h))
	x = gmath.ClampInt(x, 0, l.w-1)
	y = gmath.ClampInt(y, 0, l.h-1)
	return t.texel(lv, layer, x, y), t.TexelAddr(lv, layer, x, y)
}

func (t *Texture) sampleBilinear(u, v float32, layer, lv int) (gmath.Vec4, uint64) {
	lv = gmath.ClampInt(lv, 0, len(t.levels)-1)
	l := &t.levels[lv]
	fx := t.wrap(u)*float32(l.w) - 0.5
	fy := t.wrap(v)*float32(l.h) - 0.5
	x0 := int(gmath.Floor(fx))
	y0 := int(gmath.Floor(fy))
	tx := fx - float32(x0)
	ty := fy - float32(y0)
	// The 2×2 quad's columns, rows and layer, clamped to the edge once; its
	// taps are then read from two rows of the layer's plane.
	xa, xb := gmath.ClampInt(x0, 0, l.w-1), gmath.ClampInt(x0+1, 0, l.w-1)
	ya, yb := gmath.ClampInt(y0, 0, l.h-1), gmath.ClampInt(y0+1, 0, l.h-1)
	layer = gmath.ClampInt(layer, 0, t.Layers-1)
	var p00, p10, p01, p11 gmath.Vec4
	if lv == 0 && t.form != stored {
		p00, p10, p01, p11 = t.quad0(layer, xa, xb, ya, yb)
	} else {
		plane := t.pixels(lv)[layer*l.w*l.h : (layer+1)*l.w*l.h]
		r0, r1 := plane[ya*l.w:(ya+1)*l.w], plane[yb*l.w:(yb+1)*l.w]
		p00, p10, p01, p11 = r0[xa], r0[xb], r1[xa], r1[xb]
	}
	top := p00.Scale(1 - tx).Add(p10.Scale(tx))
	bot := p01.Scale(1 - tx).Add(p11.Scale(tx))
	c := top.Scale(1 - ty).Add(bot.Scale(ty))
	// Dominant tap: the nearest of the four.
	nx, ny := xa, ya
	if tx > 0.5 {
		nx = xb
	}
	if ty > 0.5 {
		ny = yb
	}
	return c, t.addr(lv, layer, nx, ny)
}

// Lod is the mip level for a UV-space footprint (UV units per screen
// pixel): log2 of the footprint in texels of the larger dimension, 0 when
// a pixel covers at most one texel, clamped to the chain.
func (t *Texture) Lod(footprint float32) float32 {
	d := footprint * float32(max(t.W, t.H))
	if d <= 1 {
		return 0
	}
	return gmath.Clamp(gmath.Log2(d), 0, float32(len(t.levels)-1))
}

// --- Procedural content -------------------------------------------------

// Checker builds a checkerboard texture (albedo-style content).
func Checker(name string, fmtc Format, w, h int, a, b gmath.Vec4, cells int) *Texture {
	if cells < 1 {
		cells = 8
	}
	t := newTexture(name, fmtc, w, h, 1)
	t.form, t.a, t.b = checker, a, b
	t.cw, t.ch = max(1, w/cells), max(1, h/cells)
	t.filter(t.closedRows)
	return t
}

// Noise builds a value-noise texture, deterministic in seed. Layered
// variants (layers > 1) differ per layer — the Planets texture array.
func Noise(name string, fmtc Format, w, h, layers int, seed int64) *Texture {
	// A coarse lattice filled with random values, then bilinearly upsampled
	// for smooth variation. A texel's lattice cell and weights depend on
	// its column or its row alone, so each lattice row is interpolated
	// along x once per column, into the band table the texels lerp.
	axis := func(n int) []tap {
		taps := make([]tap, n)
		for i := range taps {
			f := float32(i) / float32(n) * (lat - 1)
			i0 := int(f)
			taps[i] = tap{i0, gmath.ClampInt(i0+1, 0, lat-1), f - float32(i0)}
		}
		return taps
	}
	t := newTexture(name, fmtc, w, h, layers)
	t.form, t.taps = noise, axis(h)
	cols := axis(w)
	rng := rand.New(rand.NewSource(seed))
	lattice := make([]float32, lat*lat*3)
	t.band = make([][3]float32, layers*lat*w)
	for l := 0; l < layers; l++ {
		for i := range lattice {
			lattice[i] = rng.Float32()
		}
		for i := 0; i < lat; i++ {
			lrow, brow := lattice[i*lat*3:(i+1)*lat*3], t.band[(l*lat+i)*w:(l*lat+i+1)*w]
			for x, c := range cols {
				v0, v1 := lrow[c.i0*3:][:3], lrow[c.i1*3:][:3]
				brow[x] = [3]float32{gmath.Lerp(v0[0], v1[0], c.t), gmath.Lerp(v0[1], v1[1], c.t), gmath.Lerp(v0[2], v1[2], c.t)}
			}
		}
	}
	t.filter(t.closedRows)
	return t
}

// NoiseFine builds a per-texel random texture (no spatial smoothing) —
// the texel-granular content of detail normal maps and prefiltered
// environment maps, whose samples scatter across the texture when driven
// by per-pixel reflection vectors. Its texels are one sequential random
// stream, so its level 0 is stored once read.
func NoiseFine(name string, fmtc Format, w, h, layers int, seed int64) *Texture {
	t := newTexture(name, fmtc, w, h, layers)
	t.gen = func(emit func([]gmath.Vec4)) {
		src := rand.NewSource(seed)
		row := make([]gmath.Vec4, w)
		for r := 0; r < h*layers; r++ {
			for x := range row {
				row[x] = gmath.V4(unitFloat32(src), unitFloat32(src), unitFloat32(src), 1)
			}
			emit(row)
		}
	}
	t.filter(t.gen)
	return t
}

// unitFloat32 is rand.New(src).Float32() without the calls in between, so
// the same value stream: the same division of one Int63, and a draw again
// when the result rounds to 1. rand resamples a Float64 of 1 and then a
// float32 of 1; the first is also a float32 of 1, so one test covers both.
func unitFloat32(src rand.Source) float32 {
	for {
		if f := float32(float64(src.Int63()) / (1 << 63)); f != 1 {
			return f
		}
	}
}

// Gradient builds a horizontal gradient texture between two colors.
func Gradient(name string, fmtc Format, w, h int, a, b gmath.Vec4) *Texture {
	t := newTexture(name, fmtc, w, h, 1)
	t.form, t.row = gradient, make([]gmath.Vec4, w)
	for x := range t.row {
		// A one-texel gradient is all a: x/(w-1) would be 0/0.
		f := float32(0)
		if w > 1 {
			f = float32(x) / float32(w-1)
		}
		t.row[x] = a.Scale(1 - f).Add(b.Scale(f))
	}
	t.filter(t.closedRows)
	return t
}
