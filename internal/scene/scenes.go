package scene

import (
	"fmt"
	"sort"

	"crisp/internal/fanout"
	"crisp/internal/geom"
	"crisp/internal/gmath"
	"crisp/internal/render"
	"crisp/internal/shader"
	"crisp/internal/texture"
)

// Names lists the built-in rendering workloads, matching the paper's
// abbreviations: SPL (Sponza basic), SPH (Sponza PBR), PT (Pistol),
// IT (Planets), PL (Platformer), MT (Material testers).
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var registry = map[string]func() *render.FrameDef{
	"SPL": SponzaBasic,
	"SPH": SponzaPBR,
	"PT":  Pistol,
	"IT":  Planets,
	"PL":  Platformer,
	"MT":  MaterialTesters,
}

// ByName builds a workload by its paper abbreviation.
func ByName(name string) (*render.FrameDef, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scene: unknown workload %q (have %v)", name, Names())
	}
	return f(), nil
}

// Aspect is the width:height ratio all scenes are authored for (16:9).
const Aspect = float32(16.0 / 9.0)

func defaultLight(camPos gmath.Vec3) shader.Light {
	return shader.Light{
		Dir:       gmath.V3(0.4, 0.8, 0.3).Normalize(),
		Color:     gmath.V3(1.0, 0.96, 0.9),
		Ambient:   gmath.V3(0.18, 0.19, 0.22),
		CameraPos: camPos,
	}
}

func camera(pos, target gmath.Vec3, fovDeg float32) render.Camera {
	return render.Camera{
		View: gmath.LookAt(pos, target, gmath.V3(0, 1, 0)),
		Proj: gmath.Perspective(fovDeg*3.14159265/180, Aspect, 0.1, 400),
		Pos:  pos,
	}
}

// assets builds a scene's textures on up to GOMAXPROCS goroutines. Every
// generator owns its seed and writes only the texture it returns, so what
// a scene holds does not depend on the order or the number of builders.
type assets struct {
	*fanout.Ordered[asset]
}

type asset struct {
	dst **texture.Texture
	tex *texture.Texture
}

func newAssets() assets {
	return assets{fanout.New(func(a asset) { *a.dst = a.tex })}
}

// load has build run, and *dst set to its texture by the time Wait returns.
func (a assets) load(dst **texture.Texture, build func() *texture.Texture) {
	a.Go(func() asset { return asset{dst, build()} })
}

// pbrMaps builds an eight-map PBR set with mixed formats, as the paper's
// PBR workloads use (maps saved in different formats, all sampled).
// base sizes the albedo/normal maps; secondary maps are half size.
func (a assets) pbrMaps(prefix string, seed int64, base int) *shader.PBRMaps {
	half := base / 2
	m := &shader.PBRMaps{}
	a.load(&m.Albedo, func() *texture.Texture {
		return texture.Noise(prefix+".albedo", texture.FormatRGBA8, base, base, 1, seed)
	})
	a.load(&m.Normal, func() *texture.Texture {
		return texture.NoiseFine(prefix+".normal", texture.FormatRGBA8, base, base, 1, seed+1)
	})
	a.load(&m.Metallic, func() *texture.Texture {
		return texture.Noise(prefix+".metallic", texture.FormatR8, half, half, 1, seed+2)
	})
	a.load(&m.Roughness, func() *texture.Texture {
		return texture.Noise(prefix+".roughness", texture.FormatR8, half, half, 1, seed+3)
	})
	a.load(&m.AO, func() *texture.Texture {
		return texture.Noise(prefix+".ao", texture.FormatR8, half, half, 1, seed+4)
	})
	a.load(&m.Irradiance, func() *texture.Texture {
		return texture.Gradient(prefix+".irradiance", texture.FormatRGBA16F, 128, 128, gmath.V4(0.3, 0.35, 0.5, 1), gmath.V4(0.9, 0.8, 0.6, 1))
	})
	a.load(&m.Prefilter, func() *texture.Texture {
		return texture.NoiseFine(prefix+".prefilter", texture.FormatRGBA16F, half, half, 1, seed+5)
	})
	a.load(&m.BRDF, func() *texture.Texture {
		return texture.Gradient(prefix+".brdf", texture.FormatRG8, 128, 128, gmath.V4(1, 0, 0, 1), gmath.V4(0, 1, 0, 1))
	})
	return m
}

// SponzaBasic is SPL: the Khronos-samples Sponza with basic single-texture
// shading — few texture lines in L2, high hit rate (paper Fig. 11b).
func SponzaBasic() *render.FrameDef { return sponza("SPL", false) }

// SponzaPBR is SPH: the Godot Sponza variant shaded with PBR — the
// texture-heavy L2 profile (paper Fig. 11a).
func SponzaPBR() *render.FrameDef { return sponza("SPH", true) }

// sponza builds the shared atrium geometry: tiled floor, side walls, two
// colonnade rows, an upper gallery, and a hanging banner.
func sponza(name string, pbr bool) *render.FrameDef {
	camPos := gmath.V3(-14, 3.2, 0.5)
	f := &render.FrameDef{
		Name:  name,
		Cam:   camera(camPos, gmath.V3(10, 2.5, 0), 65),
		Light: defaultLight(camPos),
	}

	tex := newAssets()
	defer tex.Close()
	mat := func(label string, seed int64) *render.Material {
		if pbr {
			return &render.Material{Kind: render.MatPBR, PBR: tex.pbrMaps(name+"."+label, seed, 512)}
		}
		// The basic-shaded (Khronos) variant ships block-compressed
		// albedo textures, which is why its L2 holds so few texture
		// lines (paper Figs. 10-11).
		m := &render.Material{Kind: render.MatBasic}
		tex.load(&m.Albedo, func() *texture.Texture {
			return texture.Noise(name+"."+label+".albedo", texture.FormatBC1, 256, 256, 1, seed)
		})
		return m
	}

	f.Draws = append(f.Draws, render.DrawCall{
		Name: name + ".floor", Mesh: Plane(44, 22, 22, 12),
		Model: gmath.Identity(), Mat: mat("floor", 11),
	})

	wall := Box(44, 10, 0.8)
	for i, z := range []float32{-10.5, 10.5} {
		f.Draws = append(f.Draws, render.DrawCall{
			Name: fmt.Sprintf("%s.wall%d", name, i), Mesh: wall,
			Model: gmath.Translate(gmath.V3(0, 5, z)), Mat: mat(fmt.Sprintf("wall%d", i), 23+int64(i)),
		})
	}

	col := Cylinder(0.6, 7, 14)
	for r, z := range []float32{-6.5, 6.5} {
		var parts []*geom.Mesh
		var xfs []gmath.Mat4
		for i := 0; i < 8; i++ {
			parts = append(parts, col)
			xfs = append(xfs, gmath.Translate(gmath.V3(-17.5+float32(i)*5, 0, z)))
		}
		f.Draws = append(f.Draws, render.DrawCall{
			Name: fmt.Sprintf("%s.columns%d", name, r), Mesh: Merge(parts, xfs),
			Model: gmath.Identity(), Mat: mat(fmt.Sprintf("columns%d", r), 37+int64(r)),
		})
	}

	arch := Box(4, 2.4, 1.2)
	var archParts []*geom.Mesh
	var archXfs []gmath.Mat4
	for i := 0; i < 7; i++ {
		archParts = append(archParts, arch)
		archXfs = append(archXfs, gmath.Translate(gmath.V3(-15+float32(i)*5, 8.2, 0)))
	}
	f.Draws = append(f.Draws, render.DrawCall{
		Name: name + ".gallery", Mesh: Merge(archParts, archXfs),
		Model: gmath.Identity(), Mat: mat("gallery", 53),
	})

	f.Draws = append(f.Draws, render.DrawCall{
		Name: name + ".banner", Mesh: Plane(3, 5, 4, 1),
		Model: gmath.Translate(gmath.V3(2, 4.5, 0)).Mul(gmath.RotateX(3.14159265 / 2)),
		Mat:   mat("banner", 71),
	})
	tex.Wait()
	return f
}

// Pistol is PT: an antique metallic pistol rendered with PBR and eight
// texture maps — the texture-dominated L2 footprint of Fig. 11a.
func Pistol() *render.FrameDef {
	// Close-up framing, as in the pbrtexture sample: the pistol fills
	// the frame, so its eight high-resolution maps are sampled near
	// mip 0 and dominate the L2 (Fig. 11a).
	camPos := gmath.V3(0.1, 0.4, 0.85)
	f := &render.FrameDef{
		Name:  "PT",
		Cam:   camera(camPos, gmath.V3(0, 0.28, 0), 50),
		Light: defaultLight(camPos),
	}
	tex := newAssets()
	defer tex.Close()
	mat := &render.Material{Kind: render.MatPBR, PBR: tex.pbrMaps("PT.metal", 101, 1024)}

	barrel := Cylinder(0.06, 0.75, 18)
	slide := Box(0.82, 0.16, 0.14)
	grip := Box(0.16, 0.42, 0.12)
	guard := Box(0.2, 0.04, 0.1)
	sight := Box(0.03, 0.04, 0.03)

	pistol := Merge(
		[]*geom.Mesh{barrel, slide, grip, guard, sight},
		[]gmath.Mat4{
			gmath.Translate(gmath.V3(0.05, 0.28, 0)).Mul(gmath.RotateZ(-3.14159265 / 2)),
			gmath.Translate(gmath.V3(0.05, 0.38, 0)),
			gmath.Translate(gmath.V3(-0.3, 0.08, 0)).Mul(gmath.RotateZ(0.25)),
			gmath.Translate(gmath.V3(-0.18, 0.18, 0)),
			gmath.Translate(gmath.V3(0.4, 0.48, 0)),
		},
	)
	f.Draws = append(f.Draws, render.DrawCall{
		Name: "PT.pistol", Mesh: pistol,
		Model: gmath.RotateY(0.6), Mat: mat,
	})

	// Pedestal below the pistol, basic-shaded (the PBR workload includes
	// several non-PBR draws, as the paper's footnote notes).
	pedestal := &render.Material{Kind: render.MatBasic}
	tex.load(&pedestal.Albedo, func() *texture.Texture {
		return texture.Checker("PT.pedestal.albedo", texture.FormatRGBA8, 256, 256, gmath.V4(0.25, 0.22, 0.2, 1), gmath.V4(0.45, 0.42, 0.4, 1), 8)
	})
	f.Draws = append(f.Draws, render.DrawCall{
		Name: "PT.pedestal", Mesh: Box(1.4, 0.1, 1.4),
		Model: gmath.Translate(gmath.V3(0, -0.1, 0)),
		Mat:   pedestal,
	})
	tex.Wait()
	return f
}

// Planets is IT: instanced drawing of a high-poly sphere; every asteroid
// is one instance, the texture is a layered array indexed by a vertex
// attribute — temporal locality on shared vertex data, streaming access on
// per-instance data. Vertex-bound: few fragments per vertex batch.
func Planets() *render.FrameDef {
	camPos := gmath.V3(0, 6, 30)
	f := &render.FrameDef{
		Name:  "IT",
		Cam:   camera(camPos, gmath.V3(0, 0, 0), 55),
		Light: defaultLight(camPos),
	}
	layered := texture.Noise("IT.rock", texture.FormatRGBA8, 256, 256, 8, 211)
	asteroid := UVSphere(1, 24, 18)

	var insts []render.Instance
	// A ring of asteroids; deterministic placement.
	const n = 48
	for i := 0; i < n; i++ {
		ang := float32(i) / n * 2 * 3.14159265
		rad := 14 + 4*gmath.Sin(float32(i)*2.39996) // golden-angle jitter
		scale := 0.5 + 0.45*gmath.Cos(float32(i)*1.7)
		pos := gmath.V3(rad*gmath.Cos(ang), 2.5*gmath.Sin(float32(i)*0.9), rad*gmath.Sin(ang)-5)
		model := gmath.Translate(pos).Mul(gmath.ScaleUniform(scale)).Mul(gmath.RotateY(float32(i)))
		insts = append(insts, render.Instance{Model: model, Layer: float32(i % 8)})
	}
	f.Draws = append(f.Draws, render.DrawCall{
		Name: "IT.asteroids", Mesh: asteroid,
		Mat:       &render.Material{Kind: render.MatPlanet, Layered: layered},
		Instances: insts,
	})

	// The central planet: one big instance.
	f.Draws = append(f.Draws, render.DrawCall{
		Name: "IT.planet", Mesh: UVSphere(1, 32, 24),
		Mat: &render.Material{Kind: render.MatPlanet, Layered: layered},
		Instances: []render.Instance{
			{Model: gmath.Translate(gmath.V3(0, 0, -5)).Mul(gmath.ScaleUniform(7)), Layer: 3},
		},
	})
	return f
}

// Platformer is PL: the Godot platformer level — ground, platforms, ramps
// and pillars with stylized toon shading.
func Platformer() *render.FrameDef {
	camPos := gmath.V3(-10, 7, 14)
	f := &render.FrameDef{
		Name:  "PL",
		Cam:   camera(camPos, gmath.V3(2, 1, 0), 55),
		Light: defaultLight(camPos),
	}
	tex := newAssets()
	defer tex.Close()
	ground := &render.Material{Kind: render.MatToon}
	tex.load(&ground.Albedo, func() *texture.Texture {
		return texture.Checker("PL.ground", texture.FormatRGBA8, 512, 512, gmath.V4(0.3, 0.6, 0.3, 1), gmath.V4(0.25, 0.5, 0.28, 1), 16)
	})
	block := &render.Material{Kind: render.MatToon}
	tex.load(&block.Albedo, func() *texture.Texture {
		return texture.Noise("PL.block", texture.FormatRGBA8, 256, 256, 1, 307)
	})
	f.Draws = append(f.Draws, render.DrawCall{
		Name: "PL.ground", Mesh: Plane(40, 40, 16, 10),
		Model: gmath.Identity(), Mat: ground,
	})
	plat := Box(4, 0.6, 4)
	var parts []*geom.Mesh
	var xfs []gmath.Mat4
	heights := []float32{1.2, 2.4, 3.6, 4.8, 3.0, 1.8}
	for i, h := range heights {
		parts = append(parts, plat)
		xfs = append(xfs, gmath.Translate(gmath.V3(-8+float32(i)*4.5, h, float32(i%3)*3-3)))
	}
	f.Draws = append(f.Draws, render.DrawCall{
		Name: "PL.platforms", Mesh: Merge(parts, xfs),
		Model: gmath.Identity(), Mat: block,
	})
	pillar := Cylinder(0.5, 6, 10)
	var pparts []*geom.Mesh
	var pxfs []gmath.Mat4
	for i := 0; i < 5; i++ {
		pparts = append(pparts, pillar)
		pxfs = append(pxfs, gmath.Translate(gmath.V3(-10+float32(i)*5.5, 0, -8)))
	}
	f.Draws = append(f.Draws, render.DrawCall{
		Name: "PL.pillars", Mesh: Merge(pparts, pxfs),
		Model: gmath.Identity(), Mat: block,
	})
	f.Draws = append(f.Draws, render.DrawCall{
		Name: "PL.player", Mesh: UVSphere(0.6, 12, 10),
		Model: gmath.Translate(gmath.V3(-8, 2.1, -3)), Mat: block,
	})
	tex.Wait()
	return f
}

// MaterialTesters is MT: the Godot material-tester scene — a row of
// spheres, each with its own albedo/roughness/normal map set.
func MaterialTesters() *render.FrameDef {
	camPos := gmath.V3(0, 2.2, 9)
	f := &render.FrameDef{
		Name:  "MT",
		Cam:   camera(camPos, gmath.V3(0, 1.2, 0), 50),
		Light: defaultLight(camPos),
	}
	tex := newAssets()
	defer tex.Close()
	ball := UVSphere(1, 28, 20)
	for i := 0; i < 5; i++ {
		seed := int64(401 + i*13)
		mat := &render.Material{Kind: render.MatMaterial}
		tex.load(&mat.Albedo, func() *texture.Texture {
			return texture.Noise(fmt.Sprintf("MT.m%d.albedo", i), texture.FormatRGBA8, 512, 512, 1, seed)
		})
		tex.load(&mat.Roughness, func() *texture.Texture {
			return texture.Noise(fmt.Sprintf("MT.m%d.rough", i), texture.FormatR8, 256, 256, 1, seed+1)
		})
		tex.load(&mat.Normal, func() *texture.Texture {
			return texture.Noise(fmt.Sprintf("MT.m%d.normal", i), texture.FormatRGBA8, 256, 256, 1, seed+2)
		})
		f.Draws = append(f.Draws, render.DrawCall{
			Name: fmt.Sprintf("MT.ball%d", i), Mesh: ball,
			Model: gmath.Translate(gmath.V3(-5+float32(i)*2.5, 1.2, 0)), Mat: mat,
		})
	}
	floor := &render.Material{Kind: render.MatBasic}
	tex.load(&floor.Albedo, func() *texture.Texture {
		return texture.Checker("MT.floor.albedo", texture.FormatRGBA8, 512, 512, gmath.V4(0.8, 0.8, 0.82, 1), gmath.V4(0.3, 0.3, 0.32, 1), 24)
	})
	f.Draws = append(f.Draws, render.DrawCall{
		Name: "MT.floor", Mesh: Plane(20, 10, 8, 6),
		Model: gmath.Identity(),
		Mat:   floor,
	})
	tex.Wait()
	return f
}
