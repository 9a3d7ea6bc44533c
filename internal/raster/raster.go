// Package raster implements the Immediate Tiled Rendering rasterizer the
// paper models (as observed on NVIDIA discrete and mobile GPUs): the
// screen is a grid of tiles, surviving primitives are binned by screen
// position, and each tile's fragments are generated with edge-function
// coverage, early-Z depth testing, perspective-correct interpolation, and
// per-fragment LoD pre-calculated at rasterization time (the texture unit
// later looks the LoD up when a TEX executes, because approximate quads
// cannot compute runtime derivatives). The exact per-pixel footprint that
// real quads would give is computed only on request (ExactFootprint).
package raster

import (
	"fmt"
	"slices"

	"crisp/internal/geom"
	"crisp/internal/gmath"
)

// DefaultTileSize is the screen-tile edge in pixels.
const DefaultTileSize = 16

// Fragment is one generated fragment with its interpolated varyings and
// pre-calculated LoD bases.
type Fragment struct {
	X, Y  int
	Depth float32
	UV    gmath.Vec2
	WNrm  gmath.Vec3
	WPos  gmath.Vec3
	Layer int
	// Footprint is the rasterizer's pre-calculated LoD basis (max UV
	// delta per pixel), evaluated once per triangle at its centroid —
	// the simulator's approximation.
	Footprint float32
	// FootprintExact is the per-pixel analytic derivative, standing in
	// for hardware's per-quad ddx/ddy (the validation reference); 0 unless
	// the Rasterizer's ExactFootprint is set.
	FootprintExact float32
	// Vert0Global is the triangle's first vertex index in the
	// post-transform buffer; fragment varying fetches address it.
	Vert0Global uint32
}

// Stats counts rasterization work.
type Stats struct {
	Triangles  int
	Fragments  int
	EarlyZKill int
}

// Rasterizer rasterizes triangles against a private depth buffer.
type Rasterizer struct {
	W, H     int
	TileSize int
	// EarlyZ enables the early depth test that kills occluded fragments
	// before shading (on by default; the ablation knob of the paper's
	// pipeline description).
	EarlyZ bool
	// ExactFootprint fills each Fragment's FootprintExact, three
	// interpolations per fragment that only strict quads and the exact-LoD
	// reference read (off by default).
	ExactFootprint bool
	depth          []float32
	stats          Stats
	// scratch is where a tile's fragments are generated, kept across tiles
	// and batches; what Rasterize returns is copied out of it.
	scratch []Fragment
}

// New builds a rasterizer for a w×h target.
func New(w, h int) (*Rasterizer, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("raster: bad target %dx%d", w, h)
	}
	r := &Rasterizer{W: w, H: h, TileSize: DefaultTileSize, EarlyZ: true, depth: make([]float32, w*h)}
	r.ClearDepth()
	return r, nil
}

// ClearDepth resets the depth buffer to the far plane.
func (r *Rasterizer) ClearDepth() {
	for i := range r.depth {
		r.depth[i] = 1
	}
	r.stats = Stats{}
}

// Stats reports counters since the last ClearDepth.
func (r *Rasterizer) Stats() Stats { return r.stats }

// screenVert is a triangle vertex mapped to pixel space.
type screenVert struct {
	x, y float32
	invW float32
	z    float32 // NDC depth in [0,1]
}

// triSetup holds per-triangle interpolation state.
type triSetup struct {
	sv   [3]screenVert
	tri  *geom.Tri
	area float32
	// Attribute/w planes for perspective-correct interpolation.
	uOverW, vOverW [3]float32
	// Centroid footprint (simulator LoD basis).
	centroidFoot float32
	// swapped records the vertex reorder applied to orient the area
	// positive, so attribute fetch can map weights back to tri.V order.
	swapped bool
	// edgeOwn is the fill-rule tie-break per edge: a pixel exactly on an
	// edge belongs to exactly one of the two triangles sharing it.
	edgeOwn [3]bool
}

// ownsEdge is an asymmetric predicate on the edge direction a→b: the two
// triangles sharing an edge see it with opposite directions, so exactly
// one of them accepts pixels lying exactly on the edge (the top-left rule
// family).
func ownsEdge(a, b screenVert) bool {
	dy := b.y - a.y
	if dy != 0 {
		return dy < 0
	}
	return b.x-a.x > 0
}

// Rasterize bins tris into tiles and emits fragments tile by tile in
// row-major tile order (the ITR traversal). The returned slice holds one
// fragment group per non-empty tile, each allocated once at its final
// length: a tile is generated into scratch and copied out, so growing a
// list leaves no garbage and the lists the shading stage holds carry no
// slack.
func (r *Rasterizer) Rasterize(tris []geom.Tri) [][]Fragment {
	tilesX := (r.W + r.TileSize - 1) / r.TileSize
	tilesY := (r.H + r.TileSize - 1) / r.TileSize
	bins := make([][]int, tilesX*tilesY)

	setups := make([]triSetup, 0, len(tris))
	for ti := range tris {
		ts, ok := r.setup(&tris[ti])
		if !ok {
			continue
		}
		idx := len(setups)
		setups = append(setups, ts)
		// Bin by the triangle's pixel bounding box.
		minX, minY, maxX, maxY := bbox(&setups[idx], r.W, r.H)
		if minX > maxX || minY > maxY {
			continue
		}
		for ty := minY / r.TileSize; ty <= maxY/r.TileSize; ty++ {
			for tx := minX / r.TileSize; tx <= maxX/r.TileSize; tx++ {
				bins[ty*tilesX+tx] = append(bins[ty*tilesX+tx], idx)
			}
		}
		r.stats.Triangles++
	}

	var out [][]Fragment
	for tile := 0; tile < len(bins); tile++ {
		if len(bins[tile]) == 0 {
			continue
		}
		tx, ty := tile%tilesX, tile/tilesX
		x0, y0 := tx*r.TileSize, ty*r.TileSize
		x1, y1 := min(x0+r.TileSize, r.W), min(y0+r.TileSize, r.H)
		frags := r.scratch[:0]
		for _, si := range bins[tile] {
			frags = r.rasterRegion(&setups[si], x0, y0, x1, y1, frags)
		}
		r.scratch = frags
		if len(frags) > 0 {
			out = append(out, slices.Clone(frags))
		}
	}
	return out
}

// setup maps a triangle to screen space and precomputes interpolation.
func (r *Rasterizer) setup(t *geom.Tri) (triSetup, bool) {
	var ts triSetup
	ts.tri = t
	for i, v := range t.V {
		if v.Clip.W <= 0 {
			return ts, false
		}
		invW := 1 / v.Clip.W
		ndcX := v.Clip.X * invW
		ndcY := v.Clip.Y * invW
		ts.sv[i] = screenVert{
			x:    (ndcX*0.5 + 0.5) * float32(r.W),
			y:    (1 - (ndcY*0.5 + 0.5)) * float32(r.H),
			invW: invW,
			z:    gmath.Clamp(v.Clip.Z*invW, 0, 1),
		}
		ts.uOverW[i] = v.UV.X * invW
		ts.vOverW[i] = v.UV.Y * invW
	}
	ts.area = edge(ts.sv[0], ts.sv[1], ts.sv[2])
	if ts.area == 0 {
		return ts, false
	}
	if ts.area < 0 {
		// Orient consistently so edge tests are uniform.
		ts.sv[0], ts.sv[1] = ts.sv[1], ts.sv[0]
		ts.uOverW[0], ts.uOverW[1] = ts.uOverW[1], ts.uOverW[0]
		ts.vOverW[0], ts.vOverW[1] = ts.vOverW[1], ts.vOverW[0]
		ts.swapped = true
		ts.area = -ts.area
	}
	ts.edgeOwn[0] = ownsEdge(ts.sv[1], ts.sv[2])
	ts.edgeOwn[1] = ownsEdge(ts.sv[2], ts.sv[0])
	ts.edgeOwn[2] = ownsEdge(ts.sv[0], ts.sv[1])
	cx := (ts.sv[0].x + ts.sv[1].x + ts.sv[2].x) / 3
	cy := (ts.sv[0].y + ts.sv[1].y + ts.sv[2].y) / 3
	ts.centroidFoot = ts.footprintAt(cx, cy)
	return ts, true
}

func edge(a, b, c screenVert) float32 {
	return (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x)
}

func bbox(ts *triSetup, w, h int) (minX, minY, maxX, maxY int) {
	minXf := gmath.Min(ts.sv[0].x, gmath.Min(ts.sv[1].x, ts.sv[2].x))
	maxXf := gmath.Max(ts.sv[0].x, gmath.Max(ts.sv[1].x, ts.sv[2].x))
	minYf := gmath.Min(ts.sv[0].y, gmath.Min(ts.sv[1].y, ts.sv[2].y))
	maxYf := gmath.Max(ts.sv[0].y, gmath.Max(ts.sv[1].y, ts.sv[2].y))
	minX = gmath.ClampInt(int(minXf), 0, w-1)
	maxX = gmath.ClampInt(int(maxXf), 0, w-1)
	minY = gmath.ClampInt(int(minYf), 0, h-1)
	maxY = gmath.ClampInt(int(maxYf), 0, h-1)
	return
}

// bary returns barycentric weights of pixel center (px, py).
func (ts *triSetup) bary(px, py float32) (w0, w1, w2 float32, inside bool) {
	p := screenVert{x: px, y: py}
	e0 := edge(ts.sv[1], ts.sv[2], p)
	e1 := edge(ts.sv[2], ts.sv[0], p)
	e2 := edge(ts.sv[0], ts.sv[1], p)
	if e0 < 0 || e1 < 0 || e2 < 0 ||
		(e0 == 0 && !ts.edgeOwn[0]) ||
		(e1 == 0 && !ts.edgeOwn[1]) ||
		(e2 == 0 && !ts.edgeOwn[2]) {
		return 0, 0, 0, false
	}
	inv := 1 / ts.area
	return e0 * inv, e1 * inv, e2 * inv, true
}

// interpAt returns perspective-correct u, v, invW at (px, py).
func (ts *triSetup) interpAt(px, py float32) (u, v, invW float32, ok bool) {
	w0, w1, w2, inside := ts.bary(px, py)
	if !inside {
		// Extrapolate for derivative probes just outside the edge.
		p := screenVert{x: px, y: py}
		inv := 1 / ts.area
		w0 = edge(ts.sv[1], ts.sv[2], p) * inv
		w1 = edge(ts.sv[2], ts.sv[0], p) * inv
		w2 = 1 - w0 - w1
	}
	invW = w0*ts.sv[0].invW + w1*ts.sv[1].invW + w2*ts.sv[2].invW
	if invW <= 0 {
		return 0, 0, 0, false
	}
	U := w0*ts.uOverW[0] + w1*ts.uOverW[1] + w2*ts.uOverW[2]
	V := w0*ts.vOverW[0] + w1*ts.vOverW[1] + w2*ts.vOverW[2]
	return U / invW, V / invW, invW, true
}

// footprintAt evaluates the UV-space footprint (max UV delta per pixel) at
// (px, py) by analytic finite differencing — hardware's quad ddx/ddy.
func (ts *triSetup) footprintAt(px, py float32) float32 {
	u0, v0, _, ok0 := ts.interpAt(px, py)
	u1, v1, _, ok1 := ts.interpAt(px+1, py)
	u2, v2, _, ok2 := ts.interpAt(px, py+1)
	if !ok0 || !ok1 || !ok2 {
		return 0
	}
	dx := gmath.Sqrt((u1-u0)*(u1-u0) + (v1-v0)*(v1-v0))
	dy := gmath.Sqrt((u2-u0)*(u2-u0) + (v2-v0)*(v2-v0))
	return gmath.Max(dx, dy)
}

// rasterRegion emits the triangle's covered fragments within a pixel
// region, applying early-Z, appending to frags.
func (r *Rasterizer) rasterRegion(ts *triSetup, x0, y0, x1, y1 int, frags []Fragment) []Fragment {
	minX, minY, maxX, maxY := bbox(ts, r.W, r.H)
	if minX < x0 {
		minX = x0
	}
	if minY < y0 {
		minY = y0
	}
	if maxX >= x1 {
		maxX = x1 - 1
	}
	if maxY >= y1 {
		maxY = y1 - 1
	}
	t := ts.tri
	v0g := t.V[0].Global
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float32(x)+0.5, float32(y)+0.5
			w0, w1, w2, inside := ts.bary(px, py)
			if !inside {
				continue
			}
			z := w0*ts.sv[0].z + w1*ts.sv[1].z + w2*ts.sv[2].z
			di := y*r.W + x
			if r.EarlyZ {
				if z >= r.depth[di] {
					r.stats.EarlyZKill++
					continue
				}
				r.depth[di] = z
			}

			invW := w0*ts.sv[0].invW + w1*ts.sv[1].invW + w2*ts.sv[2].invW
			if invW <= 0 {
				continue
			}
			persp := 1 / invW
			// Perspective-correct attribute weights.
			pw0 := w0 * ts.sv[0].invW * persp
			pw1 := w1 * ts.sv[1].invW * persp
			pw2 := w2 * ts.sv[2].invW * persp
			i0, i1, i2 := 0, 1, 2
			if ts.swapped {
				i0, i1 = 1, 0
			}
			a, b, cc := &t.V[i0], &t.V[i1], &t.V[i2]
			f := Fragment{
				X: x, Y: y, Depth: z,
				UV: gmath.Vec2{
					X: pw0*a.UV.X + pw1*b.UV.X + pw2*cc.UV.X,
					Y: pw0*a.UV.Y + pw1*b.UV.Y + pw2*cc.UV.Y,
				},
				WNrm: gmath.Vec3{
					X: pw0*a.WNrm.X + pw1*b.WNrm.X + pw2*cc.WNrm.X,
					Y: pw0*a.WNrm.Y + pw1*b.WNrm.Y + pw2*cc.WNrm.Y,
					Z: pw0*a.WNrm.Z + pw1*b.WNrm.Z + pw2*cc.WNrm.Z,
				},
				WPos: gmath.Vec3{
					X: pw0*a.WPos.X + pw1*b.WPos.X + pw2*cc.WPos.X,
					Y: pw0*a.WPos.Y + pw1*b.WPos.Y + pw2*cc.WPos.Y,
					Z: pw0*a.WPos.Z + pw1*b.WPos.Z + pw2*cc.WPos.Z,
				},
				Layer:       int(a.Layer + 0.5),
				Footprint:   ts.centroidFoot,
				Vert0Global: v0g,
			}
			if r.ExactFootprint {
				f.FootprintExact = ts.footprintAt(px, py)
			}
			frags = append(frags, f)
			r.stats.Fragments++
		}
	}
	return frags
}
