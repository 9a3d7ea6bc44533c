package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"crisp/internal/gmath"
)

// clipNearRef is clipNear as it was: index slices grown per triangle and a
// fresh result slice, the unclipped triangle included.
func clipNearRef(t Tri) []Tri {
	const eps = 1e-6
	inside := func(v ClipVert) bool { return v.Clip.Z >= 0 && v.Clip.W > eps }
	var in, outv []int
	for i := range t.V {
		if inside(t.V[i]) {
			in = append(in, i)
		} else {
			outv = append(outv, i)
		}
	}
	switch len(in) {
	case 3:
		return []Tri{t}
	case 0:
		return nil
	}
	cross := func(a, b ClipVert) ClipVert {
		den := a.Clip.Z - b.Clip.Z
		tpar := float32(0.5)
		if gmath.Abs(den) > eps {
			tpar = a.Clip.Z / den
		}
		return lerpClipVert(a, b, gmath.Clamp(tpar, 0, 1))
	}
	if len(in) == 1 {
		a := t.V[in[0]]
		b := cross(a, t.V[outv[0]])
		c := cross(a, t.V[outv[1]])
		return []Tri{{V: [3]ClipVert{a, b, c}}}
	}
	a, b := t.V[in[0]], t.V[in[1]]
	c := cross(b, t.V[outv[0]])
	d := cross(a, t.V[outv[0]])
	return []Tri{
		{V: [3]ClipVert{a, b, c}},
		{V: [3]ClipVert{a, c, d}},
	}
}

// outsideFrustumRef is outsideFrustum as it was: a table of plane tests
// built per triangle.
func outsideFrustumRef(t Tri) bool {
	planes := [5]func(v gmath.Vec4) bool{
		func(v gmath.Vec4) bool { return v.X < -v.W },
		func(v gmath.Vec4) bool { return v.X > v.W },
		func(v gmath.Vec4) bool { return v.Y < -v.W },
		func(v gmath.Vec4) bool { return v.Y > v.W },
		func(v gmath.Vec4) bool { return v.Z > v.W },
	}
	for _, outside := range planes {
		if outside(t.V[0].Clip) && outside(t.V[1].Clip) && outside(t.V[2].Clip) {
			return true
		}
	}
	return false
}

// triBits lists every field of t's vertices as bits, so ±0 and NaN
// payloads count.
func triBits(t Tri) []uint32 {
	var out []uint32
	for _, v := range t.V {
		for _, f := range []float32{v.Clip.X, v.Clip.Y, v.Clip.Z, v.Clip.W,
			v.WNrm.X, v.WNrm.Y, v.WNrm.Z, v.WPos.X, v.WPos.Y, v.WPos.Z,
			v.UV.X, v.UV.Y, v.Layer} {
			out = append(out, math.Float32bits(f))
		}
		out = append(out, v.Global)
	}
	return out
}

// randVert draws a vertex inside (z ≥ 0, w > eps) or outside the near
// plane as asked; an outside vertex is behind the plane, or has w ≤ eps.
func randVert(rng *rand.Rand, inside bool, global uint32) ClipVert {
	f := func() float32 { return rng.Float32()*4 - 2 }
	v := ClipVert{
		Clip:   gmath.V4(f(), f(), rng.Float32()*2, 0.1+rng.Float32()*2),
		WNrm:   gmath.V3(f(), f(), f()),
		WPos:   gmath.V3(f(), f(), f()),
		UV:     gmath.Vec2{X: rng.Float32(), Y: rng.Float32()},
		Layer:  float32(rng.Intn(4)),
		Global: global,
	}
	if inside {
		if rng.Intn(8) == 0 {
			v.Clip.Z = 0 // on the plane is inside
		}
		return v
	}
	switch rng.Intn(4) {
	case 0:
		v.Clip.W = []float32{0, 1e-6, -1, float32(math.Copysign(0, -1))}[rng.Intn(4)]
	case 1:
		v.Clip.Z = float32(math.Copysign(0, -1)) // -0 ≥ 0: inside unless w fails
		v.Clip.W = 1e-7
	default:
		v.Clip.Z = -rng.Float32() * 2
	}
	return v
}

// TestClipNearMatchesReference holds the appending clipper, and the
// direct frustum test, to the code they replaced, bit for bit, over random
// triangles with 0, 1, 2 and 3 vertices inside the near plane in every
// order, outside vertices behind the plane or at w ≤ eps. A scratch that
// already holds a triangle must be appended to, not overwritten.
func TestClipNearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var scratch [2]Tri
	var seen [4]int
	for n := 0; n < 20000; n++ {
		var tri Tri
		inside := 0
		for i := range tri.V {
			tri.V[i] = randVert(rng, rng.Intn(2) == 0, uint32(n*3+i))
			if c := tri.V[i].Clip; c.Z >= 0 && c.W > 1e-6 {
				inside++
			}
		}
		seen[inside]++
		want := clipNearRef(tri)

		if got := clipNear(&tri, scratch[:0]); !sameTris(got, want) {
			t.Fatalf("triangle %d (%d inside):\n got %v\nwant %v", n, inside, got, want)
		}
		held := Tri{V: [3]ClipVert{{Global: 7}}}
		if got := clipNear(&tri, append(scratch[:0], held)); !sameTris(got, append([]Tri{held}, want...)) {
			t.Fatalf("triangle %d: clipNear did not append to a dst holding a triangle: %v", n, got)
		}

		// The same vertices placed about the side and far planes.
		for i := range tri.V {
			c := &tri.V[i].Clip
			c.X, c.Y, c.Z = c.X*c.W*1.5, c.Y*c.W*1.5, c.Z*c.W*1.2
		}
		if g, w := outsideFrustum(&tri), outsideFrustumRef(tri); g != w {
			t.Fatalf("triangle %d: outsideFrustum %v, reference %v (%v)", n, g, w, tri)
		}
	}
	for k, name := range []string{"all outside", "one inside", "two inside", "all inside"} {
		if seen[k] == 0 {
			t.Errorf("no triangle drew the %s case", name)
		}
	}
}

func sameTris(a, b []Tri) bool {
	return slices.EqualFunc(a, b, func(x, y Tri) bool { return slices.Equal(triBits(x), triBits(y)) })
}
