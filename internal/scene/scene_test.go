package scene

import (
	"reflect"
	"runtime"
	"testing"

	"crisp/internal/geom"
	"crisp/internal/gmath"
	"crisp/internal/render"
	"crisp/internal/texture"
)

func TestNamesAndRegistry(t *testing.T) {
	names := Names()
	want := []string{"IT", "MT", "PL", "PT", "SPH", "SPL"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown scene")
	}
}

func TestMeshGenerators(t *testing.T) {
	cases := map[string]*geom.Mesh{
		"plane":    Plane(10, 10, 4, 2),
		"box":      Box(1, 2, 3),
		"sphere":   UVSphere(1, 12, 8),
		"cylinder": Cylinder(0.5, 2, 8),
	}
	for name, m := range cases {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.Triangles() == 0 {
			t.Errorf("%s has no triangles", name)
		}
		// Normals are unit length.
		for i, v := range m.Verts {
			l := v.Nrm.Len()
			if l < 0.99 || l > 1.01 {
				t.Errorf("%s vertex %d normal length %v", name, i, l)
				break
			}
		}
	}
	if got := Plane(1, 1, 4, 1).Triangles(); got != 32 {
		t.Errorf("plane(4 segs) = %d tris, want 32", got)
	}
	if got := Box(1, 1, 1).Triangles(); got != 12 {
		t.Errorf("box = %d tris, want 12", got)
	}
}

func TestMergeTransforms(t *testing.T) {
	a := Box(1, 1, 1)
	m := Merge([]*geom.Mesh{a, a}, []gmath.Mat4{
		gmath.Identity(),
		gmath.Translate(gmath.V3(10, 0, 0)),
	})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Verts) != 2*len(a.Verts) || len(m.Idx) != 2*len(a.Idx) {
		t.Fatal("merge sizes wrong")
	}
	// Second copy is translated.
	off := m.Verts[len(a.Verts)].Pos.X - m.Verts[0].Pos.X
	if off != 10 {
		t.Errorf("translated copy offset = %v", off)
	}
}

// renderSmall renders a scene at tiny resolution for structural checks.
func renderSmall(t *testing.T, name string) *render.Result {
	t.Helper()
	f, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := render.DefaultOptions()
	opts.W, opts.H = 128, 72
	res, err := render.RenderFrame(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllScenesRenderAndCover(t *testing.T) {
	for _, name := range Names() {
		res := renderSmall(t, name)
		cov := float64(res.CoveredPixels()) / float64(res.W*res.H)
		minCov := 0.2
		if name == "IT" {
			minCov = 0.08 // space scene: mostly empty sky by design
		}
		if cov < minCov {
			t.Errorf("%s covers only %.0f%% of the frame", name, cov*100)
		}
		for _, st := range res.Streams {
			for _, k := range st.Kernels {
				if err := k.Validate(); err != nil {
					t.Errorf("%s kernel %q: %v", name, k.Name, err)
				}
			}
		}
	}
}

func TestPlanetsIsVertexBound(t *testing.T) {
	res := renderSmall(t, "IT")
	// IT's defining property: many vertices, few fragments per batch.
	var shaded int
	for _, m := range res.Metrics {
		shaded += m.ShadedVertices
	}
	if shaded < res.Raster.Fragments {
		t.Errorf("IT should be vertex-bound: %d verts vs %d frags", shaded, res.Raster.Fragments)
	}
	if res.Metrics[0].Instances < 8 {
		t.Errorf("IT asteroids should be instanced, got %d", res.Metrics[0].Instances)
	}
}

func TestSponzaVariantsShareGeometry(t *testing.T) {
	spl := renderSmall(t, "SPL")
	sph := renderSmall(t, "SPH")
	if spl.Raster.Triangles != sph.Raster.Triangles {
		t.Errorf("SPL/SPH triangles differ: %d vs %d", spl.Raster.Triangles, sph.Raster.Triangles)
	}
	// PBR executes far more work per fragment.
	insts := func(r *render.Result) int {
		n := 0
		for _, s := range r.Streams {
			for _, k := range s.Kernels {
				n += k.InstCount()
			}
		}
		return n
	}
	if insts(sph) < 2*insts(spl) {
		t.Errorf("SPH insts %d should dwarf SPL %d", insts(sph), insts(spl))
	}
}

func TestPistolIsTextureHeavy(t *testing.T) {
	pt := renderSmall(t, "PT")
	spl := renderSmall(t, "SPL")
	texRate := func(r *render.Result) float64 {
		var tex, frag int64
		for _, m := range r.Metrics {
			tex += m.TexWarpInsts
			frag += int64(m.Fragments)
		}
		if frag == 0 {
			return 0
		}
		return float64(tex) / float64(frag)
	}
	if texRate(pt) <= texRate(spl) {
		t.Errorf("PT TEX rate %.3f should exceed SPL %.3f", texRate(pt), texRate(spl))
	}
}

func TestScenesDeterministic(t *testing.T) {
	a := renderSmall(t, "PL")
	b := renderSmall(t, "PL")
	if a.Raster != b.Raster {
		t.Error("PL renders differ between runs")
	}
	ma, mb := a.MeanColor(), b.MeanColor()
	if ma != mb {
		t.Errorf("PL mean colors differ: %v vs %v", ma, mb)
	}
}

// TestScenesBuildSameAssetsAtAnyProcs: textures are built by as many
// goroutines as there are CPUs, each generator on its own seed, so every
// texel of every map is the one a single builder produces.
func TestScenesBuildSameAssetsAtAnyProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	texels := func(procs int, name string) (names []string, samples [][]gmath.Vec4) {
		runtime.GOMAXPROCS(procs)
		f, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Draws {
			for _, tx := range d.Mat.Textures() {
				if tx == nil {
					t.Fatalf("GOMAXPROCS=%d %s: draw %s holds a texture that was never built", procs, name, d.Name)
				}
				tx.Bind(0)
				var s []gmath.Vec4
				for lv := 0; lv < tx.Levels(); lv++ {
					w, h := tx.LevelDim(lv)
					for y := 0; y < h; y += 1 + h/16 {
						for x := 0; x < w; x += 1 + w/16 {
							c, _ := tx.Sample((float32(x)+0.5)/float32(w), (float32(y)+0.5)/float32(h), tx.Layers-1, float32(lv), texture.FilterNearest)
							s = append(s, c)
						}
					}
				}
				names, samples = append(names, tx.Name), append(samples, s)
			}
		}
		return
	}
	for _, name := range Names() {
		wantNames, want := texels(1, name)
		for _, procs := range []int{2, 8} {
			gotNames, got := texels(procs, name)
			if !reflect.DeepEqual(gotNames, wantNames) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: textures built at GOMAXPROCS=%d differ from those built at 1", name, procs)
			}
		}
	}
}
