package render

import (
	"os"
	"testing"

	"crisp/internal/geom"
	"crisp/internal/gmath"
	"crisp/internal/isa"
	"crisp/internal/shader"
	"crisp/internal/texture"
	"crisp/internal/trace"
)

// testFrame builds a minimal frame: one textured quad in front of the
// camera.
func testFrame(kind MaterialKind) *FrameDef {
	quad := &geom.Mesh{
		Verts: []geom.Vertex{
			{Pos: gmath.V3(-1, -1, 0), Nrm: gmath.V3(0, 0, 1), UV: gmath.Vec2{X: 0, Y: 0}},
			{Pos: gmath.V3(1, -1, 0), Nrm: gmath.V3(0, 0, 1), UV: gmath.Vec2{X: 4, Y: 0}},
			{Pos: gmath.V3(1, 1, 0), Nrm: gmath.V3(0, 0, 1), UV: gmath.Vec2{X: 4, Y: 4}},
			{Pos: gmath.V3(-1, 1, 0), Nrm: gmath.V3(0, 0, 1), UV: gmath.Vec2{X: 0, Y: 4}},
		},
		Idx: []uint32{0, 1, 2, 0, 2, 3},
	}
	mat := &Material{Kind: kind}
	switch kind {
	case MatPBR:
		mat.PBR = &shader.PBRMaps{
			Albedo:     texture.Noise("a", texture.FormatRGBA8, 64, 64, 1, 1),
			Normal:     texture.Noise("n", texture.FormatRGBA8, 64, 64, 1, 2),
			Metallic:   texture.Noise("m", texture.FormatR8, 32, 32, 1, 3),
			Roughness:  texture.Noise("r", texture.FormatR8, 32, 32, 1, 4),
			AO:         texture.Noise("o", texture.FormatR8, 32, 32, 1, 5),
			Irradiance: texture.Gradient("i", texture.FormatRGBA16F, 32, 32, gmath.V4(0, 0, 0, 1), gmath.V4(1, 1, 1, 1)),
			Prefilter:  texture.Noise("p", texture.FormatRGBA16F, 32, 32, 1, 6),
			BRDF:       texture.Gradient("b", texture.FormatRG8, 32, 32, gmath.V4(1, 0, 0, 1), gmath.V4(0, 1, 0, 1)),
		}
	case MatMaterial:
		mat.Albedo = texture.Noise("a", texture.FormatRGBA8, 64, 64, 1, 1)
		mat.Roughness = texture.Noise("r", texture.FormatR8, 32, 32, 1, 2)
		mat.Normal = texture.Noise("n", texture.FormatRGBA8, 32, 32, 1, 3)
	case MatPlanet:
		mat.Layered = texture.Noise("l", texture.FormatRGBA8, 64, 64, 4, 1)
	default:
		mat.Albedo = texture.Checker("a", texture.FormatRGBA8, 128, 128, gmath.V4(1, 0, 0, 1), gmath.V4(0, 0, 1, 1), 8)
	}
	cam := Camera{
		View: gmath.LookAt(gmath.V3(0, 0, 3), gmath.V3(0, 0, 0), gmath.V3(0, 1, 0)),
		Proj: gmath.Perspective(1.0, 16.0/9, 0.1, 100),
		Pos:  gmath.V3(0, 0, 3),
	}
	return &FrameDef{
		Name: "quad",
		Cam:  cam,
		Light: shader.Light{
			Dir: gmath.V3(0, 0, 1), Color: gmath.V3(1, 1, 1),
			Ambient: gmath.V3(0.1, 0.1, 0.1), CameraPos: cam.Pos,
		},
		Draws: []DrawCall{{Name: "quad", Mesh: quad, Model: gmath.Identity(), Mat: mat}},
	}
}

func smallOpts() Options {
	o := DefaultOptions()
	o.W, o.H = 96, 54
	return o
}

func TestRenderFrameProducesValidTraces(t *testing.T) {
	res, err := RenderFrame(testFrame(MatBasic), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) == 0 {
		t.Fatal("no streams generated")
	}
	for _, st := range res.Streams {
		if len(st.Kernels) == 0 {
			t.Fatalf("stream %d has no kernels", st.Stream)
		}
		for _, k := range st.Kernels {
			if err := k.Validate(); err != nil {
				t.Fatalf("kernel %q: %v", k.Name, err)
			}
			if k.Stream != st.Stream {
				t.Fatalf("kernel %q stream mismatch", k.Name)
			}
		}
		if st.Kernels[0].Kind != trace.KindVertex {
			t.Errorf("stream %d first kernel is %v, want vertex", st.Stream, st.Kernels[0].Kind)
		}
	}
}

func TestRenderFramePaintsPixels(t *testing.T) {
	res, err := RenderFrame(testFrame(MatBasic), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	covered := res.CoveredPixels()
	if covered == 0 {
		t.Fatal("no pixels painted")
	}
	mean := res.MeanColor()
	if mean.X == 0 && mean.Y == 0 && mean.Z == 0 {
		t.Error("framebuffer is black")
	}
	// The checker texture is red/blue: red channel should exceed green.
	if mean.X <= mean.Y {
		t.Errorf("mean color %v does not reflect the texture", mean)
	}
}

func TestRenderDeterministic(t *testing.T) {
	a, err := RenderFrame(testFrame(MatBasic), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RenderFrame(testFrame(MatBasic), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Raster != b.Raster {
		t.Errorf("raster stats differ: %+v vs %+v", a.Raster, b.Raster)
	}
	ia, ib := 0, 0
	for _, s := range a.Streams {
		for _, k := range s.Kernels {
			ia += k.InstCount()
		}
	}
	for _, s := range b.Streams {
		for _, k := range s.Kernels {
			ib += k.InstCount()
		}
	}
	if ia != ib {
		t.Errorf("instruction counts differ: %d vs %d", ia, ib)
	}
}

func TestAllMaterialKindsRender(t *testing.T) {
	for _, kind := range []MaterialKind{MatBasic, MatPBR, MatToon, MatMaterial, MatPlanet} {
		res, err := RenderFrame(testFrame(kind), smallOpts())
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if res.CoveredPixels() == 0 {
			t.Errorf("kind %d painted nothing", kind)
		}
		for _, st := range res.Streams {
			for _, k := range st.Kernels {
				if err := k.Validate(); err != nil {
					t.Errorf("kind %d kernel %q: %v", kind, k.Name, err)
				}
			}
		}
	}
}

func TestPBRSamplesEightMaps(t *testing.T) {
	res, err := RenderFrame(testFrame(MatPBR), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	basic, err := RenderFrame(testFrame(MatBasic), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	texPerFrag := func(r *Result) float64 {
		var tex int64
		for _, st := range r.Streams {
			for _, k := range st.Kernels {
				tex += int64(k.OpHistogram()[isa.OpTEX])
			}
		}
		return float64(tex) / float64(r.Raster.Fragments) * 32
	}
	p := texPerFrag(res)
	b := texPerFrag(basic)
	if p < 7*b*0.8 {
		t.Errorf("PBR TEX/fragment %.2f should be ≈8× basic %.2f", p, b)
	}
}

func TestLodOffIncreasesTexTraffic(t *testing.T) {
	on := smallOpts()
	off := smallOpts()
	off.LoD = false
	resOn, err := RenderFrame(testFrame(MatBasic), on)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := RenderFrame(testFrame(MatBasic), off)
	if err != nil {
		t.Fatal(err)
	}
	var sOn, sOff int64
	for _, m := range resOn.Metrics {
		sOn += m.SimTexAccesses
	}
	for _, m := range resOff.Metrics {
		sOff += m.SimTexAccesses
	}
	if sOff <= sOn {
		t.Errorf("LoD-off tex accesses %d should exceed LoD-on %d", sOff, sOn)
	}
}

func TestCollectRefTex(t *testing.T) {
	o := smallOpts()
	o.CollectRefTex = true
	res, err := RenderFrame(testFrame(MatBasic), o)
	if err != nil {
		t.Fatal(err)
	}
	var ref int64
	for _, m := range res.Metrics {
		if m.TexWarpInsts > 0 && m.RefTexAccesses == 0 {
			t.Error("reference tex accesses not collected")
		}
		ref += m.RefTexAccesses
	}
	// The reference samples at the exact per-pixel LoD, which the
	// rasterizer computes only on request: on this minified frame it must
	// touch fewer lines than sampling everything at level 0 does.
	o.LoD = false
	lod0, err := RenderFrame(testFrame(MatBasic), o)
	if err != nil {
		t.Fatal(err)
	}
	var sim0 int64
	for _, m := range lod0.Metrics {
		sim0 += m.SimTexAccesses
	}
	if ref >= sim0 {
		t.Errorf("exact-LoD reference touched %d lines, level 0 touches %d: no exact footprint reached it", ref, sim0)
	}
}

func TestVertexMetrics(t *testing.T) {
	res, err := RenderFrame(testFrame(MatBasic), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics[0]
	if m.ShadedVertices != 4 {
		t.Errorf("shaded vertices = %d, want 4 (quad dedup)", m.ShadedVertices)
	}
	if m.SimVertexThreads != 32 {
		t.Errorf("sim vertex threads = %d, want 32 (one warp)", m.SimVertexThreads)
	}
	if m.VerticesIn != 6 {
		t.Errorf("vertices in = %d, want 6", m.VerticesIn)
	}
}

func TestInstancedDrawMultipliesStreams(t *testing.T) {
	f := testFrame(MatPlanet)
	f.Draws[0].Instances = []Instance{
		{Model: gmath.Translate(gmath.V3(-1.2, 0, 0)), Layer: 0},
		{Model: gmath.Translate(gmath.V3(1.2, 0, 0)), Layer: 1},
		{Model: gmath.Translate(gmath.V3(0, 1.2, 0)), Layer: 2},
	}
	res, err := RenderFrame(f, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) != 3 {
		t.Errorf("streams = %d, want 3 (one per instance batch)", len(res.Streams))
	}
	if res.Metrics[0].Instances != 3 {
		t.Errorf("instances = %d", res.Metrics[0].Instances)
	}
}

func TestRenderRejectsBadOptions(t *testing.T) {
	if _, err := RenderFrame(testFrame(MatBasic), Options{}); err == nil {
		t.Error("accepted zero resolution")
	}
}

func TestWritePPM(t *testing.T) {
	res, err := RenderFrame(testFrame(MatBasic), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/out.ppm"
	if err := res.WritePPM(path); err != nil {
		t.Fatal(err)
	}
}

func TestStreamsUseDisjointIDs(t *testing.T) {
	o := smallOpts()
	o.BaseStream = 100
	res, err := RenderFrame(testFrame(MatBasic), o)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, st := range res.Streams {
		if st.Stream < 100 {
			t.Errorf("stream %d below base", st.Stream)
		}
		if seen[st.Stream] {
			t.Errorf("duplicate stream id %d", st.Stream)
		}
		seen[st.Stream] = true
	}
}

func TestWritePNGAndImageDispatch(t *testing.T) {
	res, err := RenderFrame(testFrame(MatBasic), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteImage(dir + "/out.png"); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteImage(dir + "/out.ppm"); err != nil {
		t.Fatal(err)
	}
	png, err := os.ReadFile(dir + "/out.png")
	if err != nil {
		t.Fatal(err)
	}
	if len(png) < 8 || png[1] != 'P' || png[2] != 'N' || png[3] != 'G' {
		t.Error("PNG magic missing")
	}
	ppm, err := os.ReadFile(dir + "/out.ppm")
	if err != nil {
		t.Fatal(err)
	}
	if len(ppm) < 2 || ppm[0] != 'P' || ppm[1] != '6' {
		t.Error("PPM magic missing")
	}
}
