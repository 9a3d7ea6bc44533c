package shader

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crisp/internal/gmath"
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
						var u, v Val
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
						got := c.TexSample(tex, u, v, layer, foot)
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
