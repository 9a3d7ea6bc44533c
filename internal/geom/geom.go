// Package geom implements the geometry front of the rendering pipeline:
// vertex/index buffers, batch-based vertex shading (contemporary GPUs
// de-duplicate vertices only locally within a batch — the replacement for
// the classic post-transform vertex cache), primitive assembly, frustum
// and back-face culling, and near-plane clipping.
package geom

import (
	"fmt"

	"crisp/internal/gmath"
)

// Vertex is one mesh vertex: position, normal, UV, and the texture-array
// layer used by instanced draws.
type Vertex struct {
	Pos   gmath.Vec3
	Nrm   gmath.Vec3
	UV    gmath.Vec2
	Layer float32
}

// VertexStride is the byte footprint of one vertex in the vertex buffer
// (3+3+2+1 floats).
const VertexStride = 36

// Mesh is an indexed triangle list.
type Mesh struct {
	Verts []Vertex
	Idx   []uint32
}

// Triangles reports the triangle count.
func (m *Mesh) Triangles() int { return len(m.Idx) / 3 }

// Validate checks index bounds and triangle-list alignment.
func (m *Mesh) Validate() error {
	if len(m.Idx)%3 != 0 {
		return fmt.Errorf("geom: index count %d not a multiple of 3", len(m.Idx))
	}
	for _, i := range m.Idx {
		if int(i) >= len(m.Verts) {
			return fmt.Errorf("geom: index %d out of range (%d verts)", i, len(m.Verts))
		}
	}
	return nil
}

// DefaultBatchSize is the vertex-batch capacity. The paper sweeps batch
// sizes and finds 96 gives the highest vertex-shader invocation-count
// correlation with hardware (matching Kerbl et al.).
const DefaultBatchSize = 96

// Batch is one vertex-shading batch: the unique vertices it shades (in
// first-use order) and its triangle list re-indexed into that local space.
type Batch struct {
	// Unique holds global vertex-buffer indices, one per shaded vertex.
	Unique []uint32
	// LocalIdx is the batch's triangle list, indexing Unique.
	LocalIdx []uint16
}

// BatchIndices splits a triangle list into vertex batches of at most
// batchSize unique vertices, de-duplicating vertex references only within
// each batch. Triangles never straddle batches.
func BatchIndices(idx []uint32, batchSize int) []Batch {
	if batchSize < 3 {
		batchSize = DefaultBatchSize
	}
	var batches []Batch
	local := make(map[uint32]uint16)
	cur := Batch{}
	flush := func() {
		if len(cur.Unique) > 0 {
			batches = append(batches, cur)
			cur = Batch{}
			local = make(map[uint32]uint16)
		}
	}
	for t := 0; t+2 < len(idx); t += 3 {
		tri := idx[t : t+3]
		// How many new uniques would this triangle add?
		newCount := 0
		for _, g := range tri {
			if _, ok := local[g]; !ok {
				newCount++
			}
		}
		if len(cur.Unique)+newCount > batchSize {
			flush()
			newCount = 3
		}
		for _, g := range tri {
			li, ok := local[g]
			if !ok {
				li = uint16(len(cur.Unique))
				local[g] = li
				cur.Unique = append(cur.Unique, g)
			}
			cur.LocalIdx = append(cur.LocalIdx, li)
		}
	}
	flush()
	return batches
}

// ShadedVertexCount reports the total vertex-shader invocations a batched
// draw performs (the sum of unique vertices over batches). This is the
// quantity validated against hardware in paper Fig. 3.
func ShadedVertexCount(batches []Batch) int {
	n := 0
	for i := range batches {
		n += len(batches[i].Unique)
	}
	return n
}

// ClipVert is a post-vertex-shader vertex: clip-space position plus the
// varyings carried to the fragment stage.
type ClipVert struct {
	Clip  gmath.Vec4
	WNrm  gmath.Vec3
	WPos  gmath.Vec3
	UV    gmath.Vec2
	Layer float32
	// Global is the vertex's unique-buffer index, used to address the
	// post-transform attribute storage in L2.
	Global uint32
}

// Tri is one assembled triangle.
type Tri struct {
	V [3]ClipVert
}

// lerpClipVert interpolates all attributes between a and b at t.
func lerpClipVert(a, b ClipVert, t float32) ClipVert {
	return ClipVert{
		Clip: gmath.Vec4{
			X: gmath.Lerp(a.Clip.X, b.Clip.X, t),
			Y: gmath.Lerp(a.Clip.Y, b.Clip.Y, t),
			Z: gmath.Lerp(a.Clip.Z, b.Clip.Z, t),
			W: gmath.Lerp(a.Clip.W, b.Clip.W, t),
		},
		WNrm:   gmath.Lerp3(a.WNrm, b.WNrm, t),
		WPos:   gmath.Lerp3(a.WPos, b.WPos, t),
		UV:     gmath.Vec2{X: gmath.Lerp(a.UV.X, b.UV.X, t), Y: gmath.Lerp(a.UV.Y, b.UV.Y, t)},
		Layer:  a.Layer,
		Global: a.Global,
	}
}

// CullStats counts what primitive assembly discarded.
type CullStats struct {
	Input    int
	Frustum  int
	Backface int
	Clipped  int // triangles split by the near plane
	Output   int
}

// AssembleCull assembles triangles from a batch's local index list over
// shaded vertices, removes primitives outside the view frustum, clips
// against the near plane, and culls back-facing triangles. Surviving
// primitives are what the rasterizer bins by screen position.
func AssembleCull(verts []ClipVert, localIdx []uint16, backface bool) ([]Tri, CullStats) {
	out := make([]Tri, 0, len(localIdx)/3)
	var st CullStats
	var scratch [2]Tri
	for t := 0; t+2 < len(localIdx); t += 3 {
		st.Input++
		tri := Tri{V: [3]ClipVert{verts[localIdx[t]], verts[localIdx[t+1]], verts[localIdx[t+2]]}}
		// Trivial frustum rejection: all three vertices outside one plane.
		if outsideFrustum(&tri) {
			st.Frustum++
			continue
		}
		clipped := clipNear(&tri, scratch[:0])
		if len(clipped) == 0 {
			st.Frustum++
			continue
		}
		if len(clipped) > 1 {
			st.Clipped++
		}
		for _, ct := range clipped {
			if backface && isBackface(ct) {
				st.Backface++
				continue
			}
			out = append(out, ct)
			st.Output++
		}
	}
	return out, st
}

// outsideFrustum reports trivial rejection against the clip-space planes:
// all three vertices beyond the same one of the side planes or the far
// plane.
func outsideFrustum(t *Tri) bool {
	a, b, c := &t.V[0].Clip, &t.V[1].Clip, &t.V[2].Clip
	return a.X < -a.W && b.X < -b.W && c.X < -c.W ||
		a.X > a.W && b.X > b.W && c.X > c.W ||
		a.Y < -a.W && b.Y < -b.W && c.Y < -c.W ||
		a.Y > a.W && b.Y > b.W && c.Y > c.W ||
		a.Z > a.W && b.Z > b.W && c.Z > c.W
}

// clipNear clips a triangle against the near plane z=0 (Vulkan depth
// convention) and appends the 0, 1, or 2 triangles that remain to dst.
func clipNear(t *Tri, dst []Tri) []Tri {
	const eps = 1e-6
	var in, outv [3]int
	nIn, nOut := 0, 0
	for i := range t.V {
		if v := &t.V[i].Clip; v.Z >= 0 && v.W > eps {
			in[nIn] = i
			nIn++
		} else {
			outv[nOut] = i
			nOut++
		}
	}
	switch nIn {
	case 3:
		return append(dst, *t)
	case 0:
		return dst
	}
	// Intersection parameter along edge a→b where z crosses 0.
	cross := func(a, b *ClipVert) ClipVert {
		den := a.Clip.Z - b.Clip.Z
		tpar := float32(0.5)
		if gmath.Abs(den) > eps {
			tpar = a.Clip.Z / den
		}
		return lerpClipVert(*a, *b, gmath.Clamp(tpar, 0, 1))
	}
	if nIn == 1 {
		a := &t.V[in[0]]
		b := cross(a, &t.V[outv[0]])
		c := cross(a, &t.V[outv[1]])
		return append(dst, Tri{V: [3]ClipVert{*a, b, c}})
	}
	// Two inside: quad → two triangles.
	a, b := &t.V[in[0]], &t.V[in[1]]
	c := cross(b, &t.V[outv[0]])
	d := cross(a, &t.V[outv[0]])
	return append(dst,
		Tri{V: [3]ClipVert{*a, *b, c}},
		Tri{V: [3]ClipVert{*a, c, d}},
	)
}

// isBackface tests winding via the signed area in NDC.
func isBackface(t Tri) bool {
	var ndc [3]gmath.Vec2
	for i, v := range t.V {
		if v.Clip.W <= 0 {
			return false
		}
		inv := 1 / v.Clip.W
		ndc[i] = gmath.Vec2{X: v.Clip.X * inv, Y: v.Clip.Y * inv}
	}
	area := (ndc[1].X-ndc[0].X)*(ndc[2].Y-ndc[0].Y) - (ndc[2].X-ndc[0].X)*(ndc[1].Y-ndc[0].Y)
	return area <= 0
}
