package raster

import (
	"testing"

	"crisp/internal/geom"
	"crisp/internal/gmath"
)

// screenTri builds a clip-space triangle that covers the given NDC coords
// at depth z (w=1 — no perspective).
func screenTri(ax, ay, bx, by, cx, cy, z float32) geom.Tri {
	mk := func(x, y float32) geom.ClipVert {
		return geom.ClipVert{Clip: gmath.V4(x, y, z, 1), UV: gmath.Vec2{X: (x + 1) / 2, Y: (y + 1) / 2}}
	}
	return geom.Tri{V: [3]geom.ClipVert{mk(ax, ay), mk(bx, by), mk(cx, cy)}}
}

func fullscreenQuad(z float32) []geom.Tri {
	return []geom.Tri{
		screenTri(-1, -1, 1, -1, -1, 1, z),
		screenTri(1, -1, 1, 1, -1, 1, z),
	}
}

func countFrags(tiles [][]Fragment) int {
	n := 0
	for _, tf := range tiles {
		n += len(tf)
	}
	return n
}

func TestFullscreenCoverage(t *testing.T) {
	r, err := New(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	tiles := r.Rasterize(fullscreenQuad(0.5))
	got := countFrags(tiles)
	if got != 64*64 {
		t.Errorf("fullscreen quad covered %d pixels, want %d", got, 64*64)
	}
	// Every pixel exactly once.
	seen := make(map[int]bool)
	for _, tf := range tiles {
		for _, f := range tf {
			key := f.Y*64 + f.X
			if seen[key] {
				t.Fatalf("pixel (%d,%d) shaded twice", f.X, f.Y)
			}
			seen[key] = true
		}
	}
}

func TestNewRejectsBadTarget(t *testing.T) {
	if _, err := New(0, 10); err == nil {
		t.Error("accepted zero width")
	}
}

func TestEarlyZKillsOccluded(t *testing.T) {
	r, _ := New(64, 64)
	// Near quad first, then far quad: far is fully occluded.
	near := r.Rasterize(fullscreenQuad(0.2))
	far := r.Rasterize(fullscreenQuad(0.8))
	if countFrags(near) != 64*64 {
		t.Fatalf("near quad fragments = %d", countFrags(near))
	}
	if countFrags(far) != 0 {
		t.Errorf("occluded quad produced %d fragments", countFrags(far))
	}
	if r.Stats().EarlyZKill != 64*64 {
		t.Errorf("early-Z kills = %d, want %d", r.Stats().EarlyZKill, 64*64)
	}
}

func TestDepthOrderReversed(t *testing.T) {
	r, _ := New(32, 32)
	// Far first, then near: both shade (no early-Z benefit) — overdraw.
	far := r.Rasterize(fullscreenQuad(0.8))
	near := r.Rasterize(fullscreenQuad(0.2))
	if countFrags(far) != 32*32 || countFrags(near) != 32*32 {
		t.Error("depth-reversed draws should both fully shade")
	}
}

func TestClearDepthResets(t *testing.T) {
	r, _ := New(32, 32)
	r.Rasterize(fullscreenQuad(0.2))
	r.ClearDepth()
	again := r.Rasterize(fullscreenQuad(0.8))
	if countFrags(again) != 32*32 {
		t.Error("depth buffer not cleared")
	}
}

func TestTileGrouping(t *testing.T) {
	r, _ := New(64, 64) // 4×4 tiles of 16
	tiles := r.Rasterize(fullscreenQuad(0.5))
	if len(tiles) != 16 {
		t.Errorf("non-empty tiles = %d, want 16", len(tiles))
	}
	// Each tile group holds only its own pixels.
	for _, tf := range tiles {
		tx, ty := tf[0].X/16, tf[0].Y/16
		for _, f := range tf {
			if f.X/16 != tx || f.Y/16 != ty {
				t.Fatalf("fragment (%d,%d) leaked into tile (%d,%d)", f.X, f.Y, tx, ty)
			}
		}
	}
}

func TestSmallTriangleFragmentCount(t *testing.T) {
	r, _ := New(64, 64)
	// A triangle covering roughly the lower-left eighth of the screen.
	tiles := r.Rasterize([]geom.Tri{screenTri(-1, -1, 0, -1, -1, 0, 0.5)})
	got := countFrags(tiles)
	// Area in pixels: half of a 32×32 box = 512.
	if got < 400 || got > 620 {
		t.Errorf("fragments = %d, want ≈512", got)
	}
}

func TestInterpolatedUVRange(t *testing.T) {
	r, _ := New(64, 64)
	tiles := r.Rasterize(fullscreenQuad(0.5))
	for _, tf := range tiles {
		for _, f := range tf {
			wantU := (float32(f.X) + 0.5) / 64
			if gmath.Abs(f.UV.X-wantU) > 0.02 {
				t.Fatalf("pixel %d UV.X = %v, want ≈%v", f.X, f.UV.X, wantU)
			}
		}
	}
}

func TestPerspectiveCorrectInterpolation(t *testing.T) {
	// A triangle with w varying 1→4: perspective-correct UV at midpoint
	// is biased toward the w=1 vertex versus affine.
	a := geom.ClipVert{Clip: gmath.V4(-1, -1, 0.5, 1), UV: gmath.Vec2{X: 0, Y: 0}}
	b := geom.ClipVert{Clip: gmath.V4(4, -4, 2, 4), UV: gmath.Vec2{X: 1, Y: 0}}
	c := geom.ClipVert{Clip: gmath.V4(-1, 1, 0.5, 1), UV: gmath.Vec2{X: 0, Y: 1}}
	r, _ := New(64, 64)
	tiles := r.Rasterize([]geom.Tri{{V: [3]geom.ClipVert{a, b, c}}})
	var midU float32 = -1
	for _, tf := range tiles {
		for _, f := range tf {
			if f.Y == 32 && f.X == 32 {
				midU = f.UV.X
			}
		}
	}
	if midU < 0 {
		t.Skip("midpoint not covered")
	}
	if midU > 0.5 {
		t.Errorf("mid U = %v; perspective correction should pull below affine 0.5", midU)
	}
}

func TestFootprintMinificationHigherWhenFar(t *testing.T) {
	// Same UV range mapped to a small on-screen triangle → bigger UV
	// deltas per pixel than a fullscreen one.
	r, _ := New(64, 64)
	full := r.Rasterize(fullscreenQuad(0.5))
	r2, _ := New(64, 64)
	small := r2.Rasterize([]geom.Tri{screenTri(-0.1, -0.1, 0.1, -0.1, -0.1, 0.1, 0.5)})
	if countFrags(small) == 0 {
		t.Fatal("small triangle not covered")
	}
	if small[0][0].Footprint <= full[0][0].Footprint {
		t.Errorf("minified footprint %v should exceed fullscreen %v",
			small[0][0].Footprint, full[0][0].Footprint)
	}
}

func TestFootprintExactTracksApprox(t *testing.T) {
	r, _ := New(64, 64)
	r.ExactFootprint = true
	tiles := r.Rasterize(fullscreenQuad(0.5))
	for _, tf := range tiles {
		for _, f := range tf {
			if f.FootprintExact <= 0 {
				t.Fatal("exact footprint not computed")
			}
			ratio := f.Footprint / f.FootprintExact
			if ratio < 0.5 || ratio > 2 {
				t.Fatalf("footprints diverge: approx %v vs exact %v", f.Footprint, f.FootprintExact)
			}
		}
	}
}

// TestExactFootprintOnlyOnRequest rasterizes one scene — perspective,
// overlap under early-Z, both windings, a triangle across tile edges — with
// and without ExactFootprint: the fragments, their order and every field but
// FootprintExact are the same, and without the request FootprintExact is 0.
func TestExactFootprintOnlyOnRequest(t *testing.T) {
	tris := []geom.Tri{
		{V: [3]geom.ClipVert{
			{Clip: gmath.V4(-1, -1, 0.5, 1), UV: gmath.Vec2{X: 0, Y: 0}, WNrm: gmath.V3(0, 0, 1), Layer: 2},
			{Clip: gmath.V4(4, -4, 2, 4), UV: gmath.Vec2{X: 1, Y: 0}, WPos: gmath.V3(1, 2, 3), Global: 7},
			{Clip: gmath.V4(-1, 1, 0.5, 1), UV: gmath.Vec2{X: 0, Y: 1}},
		}},
		screenTri(-0.9, -0.7, 0.8, -0.3, 0.1, 0.9, 0.3),
		screenTri(0.5, 0.5, -0.6, 0.2, 0.3, -0.8, 0.6),
	}
	tris = append(tris, fullscreenQuad(0.7)...)
	run := func(exact bool) ([][]Fragment, Stats) {
		r, _ := New(80, 48)
		r.ExactFootprint = exact
		return r.Rasterize(tris), r.Stats()
	}
	off, offStats := run(false)
	on, onStats := run(true)
	if offStats != onStats || len(off) != len(on) {
		t.Fatalf("without the request: %+v over %d tiles; with it: %+v over %d", offStats, len(off), onStats, len(on))
	}
	computed := 0
	for ti := range on {
		if len(off[ti]) != len(on[ti]) {
			t.Fatalf("tile %d: %d fragments without the request, %d with it", ti, len(off[ti]), len(on[ti]))
		}
		for i, f := range off[ti] {
			if f.FootprintExact != 0 {
				t.Fatalf("tile %d fragment %d: FootprintExact %v without the request", ti, i, f.FootprintExact)
			}
			g := on[ti][i]
			if g.FootprintExact != 0 {
				computed++
			}
			g.FootprintExact = 0
			if f != g {
				t.Fatalf("tile %d fragment %d: %+v without the request, %+v with it", ti, i, f, g)
			}
		}
	}
	if computed == 0 {
		t.Fatal("ExactFootprint computed no footprint")
	}
}

func TestDegenerateTriangleDropped(t *testing.T) {
	r, _ := New(32, 32)
	tiles := r.Rasterize([]geom.Tri{screenTri(-0.5, -0.5, 0.5, 0.5, 0, 0, 0.5)})
	if countFrags(tiles) > 40 {
		t.Errorf("degenerate (collinear) triangle shaded %d pixels", countFrags(tiles))
	}
}

func TestBothWindingsRasterize(t *testing.T) {
	// The rasterizer is winding-agnostic (culling happens upstream).
	r, _ := New(32, 32)
	cw := r.Rasterize([]geom.Tri{screenTri(-1, -1, -1, 1, 1, -1, 0.5)})
	r2, _ := New(32, 32)
	ccw := r2.Rasterize([]geom.Tri{screenTri(-1, -1, 1, -1, -1, 1, 0.5)})
	if countFrags(cw) == 0 || countFrags(ccw) == 0 {
		t.Errorf("winding-dependent rasterization: cw=%d ccw=%d", countFrags(cw), countFrags(ccw))
	}
}

func TestStatsAccumulate(t *testing.T) {
	r, _ := New(32, 32)
	r.Rasterize(fullscreenQuad(0.5))
	st := r.Stats()
	if st.Triangles != 2 || st.Fragments != 32*32 {
		t.Errorf("stats = %+v", st)
	}
}
