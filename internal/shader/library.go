package shader

import (
	"crisp/internal/gmath"
	"crisp/internal/texture"
	"crisp/internal/trace"
)

// VSIn carries one warp of vertex-shader inputs: per-lane attribute values
// (functional) plus the vertex-buffer addresses the attribute fetches load
// from (timing). Address slices are packed over active lanes.
type VSIn struct {
	PosX, PosY, PosZ [Lanes]float32
	NrmX, NrmY, NrmZ [Lanes]float32
	U, V             [Lanes]float32
	Layer            [Lanes]float32 // texture-array layer (instanced draws)

	PosAddrs []uint64
	NrmAddrs []uint64
	UVAddrs  []uint64
}

// VSOut carries the functional results of one vertex-shader warp.
type VSOut struct {
	ClipX, ClipY, ClipZ, ClipW [Lanes]float32
	WNrmX, WNrmY, WNrmZ        [Lanes]float32
	WPosX, WPosY, WPosZ        [Lanes]float32
	U, V                       [Lanes]float32
	Layer                      [Lanes]float32
}

// TransformVS is the standard vertex shader: fetch attributes, transform
// position by MVP and normal by the model matrix, and export varyings
// through the L2 (pipeline-class stores to varyingAddrs), as the paper's
// pipeline does between the vertex stage and the rasterizer.
func TransformVS(c *Ctx, in *VSIn, model, mvp gmath.Mat4, varyingAddrs []uint64) VSOut {
	pos := c.InputVec3(&in.PosX, &in.PosY, &in.PosZ, in.PosAddrs, trace.ClassPipeline)
	one := c.Imm(1)

	clip := c.MulMat4Vec4(mvp, pos.X, pos.Y, pos.Z, one)

	nrm := c.InputVec3(&in.NrmX, &in.NrmY, &in.NrmZ, in.NrmAddrs, trace.ClassPipeline)
	wn := c.MulMat3Dir(model, nrm)
	wn = c.V3Normalize(wn)

	wp := c.MulMat4Vec4(model, pos.X, pos.Y, pos.Z, one)

	u, v := c.InputVec2(&in.U, &in.V, in.UVAddrs, trace.ClassPipeline)

	// Export: position and varyings go to the post-transform buffer in
	// L2 as three 16-byte stores (clip position, normal, UV/world).
	c.Store(clip.X, varyingAddrs, trace.ClassPipeline)
	c.Store(wn.X, c.offsetAddrs(varyingAddrs, 16), trace.ClassPipeline)
	c.Store(u, c.offsetAddrs(varyingAddrs, 32), trace.ClassPipeline)

	var out VSOut
	out.ClipX, out.ClipY, out.ClipZ, out.ClipW = *clip.X.V, *clip.Y.V, *clip.Z.V, *clip.W.V
	out.WNrmX, out.WNrmY, out.WNrmZ = *wn.X.V, *wn.Y.V, *wn.Z.V
	out.WPosX, out.WPosY, out.WPosZ = *wp.X.V, *wp.Y.V, *wp.Z.V
	out.U, out.V = *u.V, *v.V
	out.Layer = in.Layer
	return out
}

// FSIn carries one warp of fragment-shader inputs: interpolated varying
// values (functional), the varying-buffer addresses the fragment stage
// reads them from, per-lane texture-array layers, the UV-space footprint
// for LoD, and the framebuffer addresses the outputs store to.
type FSIn struct {
	U, V                [Lanes]float32
	NrmX, NrmY, NrmZ    [Lanes]float32
	WPosX, WPosY, WPosZ [Lanes]float32
	Layer               [Lanes]int
	// Footprint is the max UV delta per screen pixel (LoD basis),
	// pre-calculated during rasterization as the paper describes.
	Footprint [Lanes]float32

	VaryingAddrs []uint64
	OutAddrs     []uint64
}

// FSOut is the shaded color per lane.
type FSOut struct {
	R, G, B, A [Lanes]float32
}

// Light is a simple directional light used by the shading models.
type Light struct {
	Dir       gmath.Vec3 // direction toward the light, normalized
	Color     gmath.Vec3
	Ambient   gmath.Vec3
	CameraPos gmath.Vec3
}

// loadVaryings emits the pipeline-class loads every fragment shader starts
// with and returns the bound values.
func loadVaryings(c *Ctx, in *FSIn) (u, v Val, n Vec3V, wp Vec3V) {
	u, v = c.InputVec2(&in.U, &in.V, in.VaryingAddrs, trace.ClassPipeline)
	n = c.InputVec3(&in.NrmX, &in.NrmY, &in.NrmZ, c.offsetAddrs(in.VaryingAddrs, 16), trace.ClassPipeline)
	wp = c.InputVec3(&in.WPosX, &in.WPosY, &in.WPosZ, c.offsetAddrs(in.VaryingAddrs, 32), trace.ClassPipeline)
	return
}

// offsetAddrs returns addrs moved by off, in the context's scratch: good
// until the next memory instruction is emitted.
func (c *Ctx) offsetAddrs(addrs []uint64, off uint64) []uint64 {
	if addrs == nil {
		return nil
	}
	out := c.addrs[:len(addrs)]
	for i, a := range addrs {
		out[i] = a + off
	}
	return out
}

func (c *Ctx) export(out Vec3V, alpha Val, in *FSIn) FSOut {
	c.Store(out.X, in.OutAddrs, trace.ClassFramebuffer)
	var o FSOut
	o.R, o.G, o.B, o.A = *out.X.V, *out.Y.V, *out.Z.V, *alpha.V
	return o
}

// BasicTexturedFS is the Khronos-Sponza-style shader: one albedo texture
// and Lambert diffuse with ambient. This is the "basic shading" the paper
// contrasts against PBR in the L2-composition study.
func BasicTexturedFS(c *Ctx, in *FSIn, albedo *texture.Texture, light Light) FSOut {
	u, v, n, _ := loadVaryings(c, in)
	tex := c.TexSample(albedo, u, v, &in.Layer, &in.Footprint)
	nn := c.V3Normalize(n)
	l := c.V3Imm(light.Dir)
	ndl := c.Max(c.V3Dot(nn, l), c.Imm(0))
	lc := c.V3Imm(light.Color)
	amb := c.V3Imm(light.Ambient)
	diffuse := c.V3FMA(lc, ndl, amb)
	col := c.V3Mul(Vec3V{tex.X, tex.Y, tex.Z}, diffuse)
	return c.export(col, tex.W, in)
}

// PBRMaps bundles the eight texture maps of the paper's PBR workloads
// (Pistol, Sponza-PBR): albedo, normal, metallic, roughness, ambient
// occlusion, irradiance, prefiltered environment, and the BRDF LUT.
type PBRMaps struct {
	Albedo     *texture.Texture
	Normal     *texture.Texture
	Metallic   *texture.Texture
	Roughness  *texture.Texture
	AO         *texture.Texture
	Irradiance *texture.Texture
	Prefilter  *texture.Texture
	BRDF       *texture.Texture
}

// All lists the maps in sampling order.
func (m *PBRMaps) All() []*texture.Texture {
	return []*texture.Texture{m.Albedo, m.Normal, m.Metallic, m.Roughness, m.AO, m.Irradiance, m.Prefilter, m.BRDF}
}

// PBRFS is a physically-based shader in the Cook-Torrance style: all eight
// maps are sampled and combined, producing the texture-heavy, ALU-heavy
// profile the paper's Pistol/Sponza-PBR workloads exhibit.
func PBRFS(c *Ctx, in *FSIn, maps *PBRMaps, light Light) FSOut {
	u, v, n, wp := loadVaryings(c, in)

	albedo := c.TexSample(maps.Albedo, u, v, &in.Layer, &in.Footprint)
	nmap := c.TexSample(maps.Normal, u, v, &in.Layer, &in.Footprint)
	metallic := c.TexSample(maps.Metallic, u, v, &in.Layer, &in.Footprint)
	rough := c.TexSample(maps.Roughness, u, v, &in.Layer, &in.Footprint)
	ao := c.TexSample(maps.AO, u, v, &in.Layer, &in.Footprint)

	// Perturb the interpolated normal with the normal map (tangent-space
	// approximation: offset and renormalize).
	two := c.Imm(2)
	negOne := c.Imm(-1)
	pert := Vec3V{
		c.FMA(nmap.X, two, negOne),
		c.FMA(nmap.Y, two, negOne),
		c.FMA(nmap.Z, two, negOne),
	}
	nrm := c.V3Normalize(c.V3FMA(pert, c.Imm(0.5), n))

	// View and half vectors.
	cam := c.V3Imm(light.CameraPos)
	view := c.V3Normalize(c.V3Sub(cam, wp))
	l := c.V3Imm(light.Dir)
	half := c.V3Normalize(c.V3Add(view, l))

	ndl := c.Max(c.V3Dot(nrm, l), c.Imm(0))
	ndv := c.Max(c.V3Dot(nrm, view), c.Imm(0.001))
	ndh := c.Max(c.V3Dot(nrm, half), c.Imm(0))

	// GGX-ish distribution: a2 / (pi * (ndh^2 (a2-1) + 1)^2).
	a := c.Mul(rough.X, rough.X)
	a2 := c.Mul(a, a)
	denomInner := c.FMA(c.Mul(ndh, ndh), c.Sub(a2, c.Imm(1)), c.Imm(1))
	denom := c.Mul(c.Mul(denomInner, denomInner), c.Imm(3.14159265))
	dist := c.Mul(a2, c.Rcp(c.Max(denom, c.Imm(1e-5))))

	// Schlick Fresnel with metallic-blended F0.
	f0 := c.V3Lerp(c.V3Imm(gmath.V3(0.04, 0.04, 0.04)), Vec3V{albedo.X, albedo.Y, albedo.Z}, metallic.X)
	oneMinus := c.Sub(c.Imm(1), ndv)
	p5 := c.Pow(oneMinus, c.Imm(5))
	fres := c.V3Lerp(f0, c.V3Imm(gmath.V3(1, 1, 1)), p5)

	// Smith geometry (direct-lighting k).
	k := c.Mul(c.Add(rough.X, c.Imm(1)), c.Mul(c.Add(rough.X, c.Imm(1)), c.Imm(0.125)))
	gv := c.Mul(ndv, c.Rcp(c.FMA(ndv, c.Sub(c.Imm(1), k), k)))
	gl := c.Mul(ndl, c.Rcp(c.FMA(ndl, c.Sub(c.Imm(1), k), k)))
	geo := c.Mul(gv, gl)

	specScale := c.Mul(c.Mul(dist, geo), c.Rcp(c.Max(c.Mul(c.Mul(ndv, ndl), c.Imm(4)), c.Imm(1e-4))))
	spec := c.V3Scale(fres, specScale)

	// Diffuse (energy-conserving).
	kd := c.V3Sub(c.V3Imm(gmath.V3(1, 1, 1)), fres)
	kd = c.V3Scale(kd, c.Sub(c.Imm(1), metallic.X))
	diff := c.V3Scale(Vec3V{albedo.X, albedo.Y, albedo.Z}, c.Imm(1/3.14159265))
	diff = c.V3Mul(diff, kd)

	lc := c.V3Imm(light.Color)
	direct := c.V3Mul(c.V3Scale(c.V3Add(diff, spec), ndl), lc)

	// Image-based ambient: irradiance for diffuse, prefiltered env +
	// BRDF LUT for specular (sampled at reflection-dependent UVs).
	irr := c.TexSample(maps.Irradiance, nrm.X, nrm.Y, &in.Layer, &in.Footprint)
	pre := c.TexSample(maps.Prefilter, c.Mul(nrm.X, rough.X), c.Mul(nrm.Y, rough.X), &in.Layer, &in.Footprint)
	lut := c.TexSample(maps.BRDF, ndv, rough.X, &in.Layer, &in.Footprint)

	ambD := c.V3Mul(Vec3V{irr.X, irr.Y, irr.Z}, Vec3V{albedo.X, albedo.Y, albedo.Z})
	ambS := c.V3Scale(Vec3V{pre.X, pre.Y, pre.Z}, c.FMA(fres.X, lut.X, lut.Y))
	ambient := c.V3Scale(c.V3Add(ambD, ambS), ao.X)

	col := c.V3Add(direct, ambient)
	// Reinhard tone map: c/(1+c).
	col = Vec3V{
		c.Mul(col.X, c.Rcp(c.Add(col.X, c.Imm(1)))),
		c.Mul(col.Y, c.Rcp(c.Add(col.Y, c.Imm(1)))),
		c.Mul(col.Z, c.Rcp(c.Add(col.Z, c.Imm(1)))),
	}
	return c.export(col, albedo.W, in)
}

// ToonFS is the Platformer-style stylized shader: one albedo texture and
// quantized diffuse bands.
func ToonFS(c *Ctx, in *FSIn, albedo *texture.Texture, light Light) FSOut {
	u, v, n, _ := loadVaryings(c, in)
	tex := c.TexSample(albedo, u, v, &in.Layer, &in.Footprint)
	nn := c.V3Normalize(n)
	ndl := c.Max(c.V3Dot(nn, c.V3Imm(light.Dir)), c.Imm(0))
	// Quantize into 3 toon bands with predicated selects — the small
	// divergence compiled stylized shaders use.
	hi := c.CmpGT(ndl, c.Imm(0.66))
	mid := c.CmpGT(ndl, c.Imm(0.33))
	banded := c.Select(hi, c.Imm(1), c.Select(mid, c.Imm(0.66), c.Imm(0.25)))
	lc := c.V3Imm(light.Color)
	amb := c.V3Imm(light.Ambient)
	shade := c.V3FMA(lc, banded, amb)
	col := c.V3Mul(Vec3V{tex.X, tex.Y, tex.Z}, shade)
	return c.export(col, tex.W, in)
}

// MaterialFS is the material-tester shader: albedo + roughness + normal
// maps with Blinn-Phong specular — between basic and PBR in complexity.
func MaterialFS(c *Ctx, in *FSIn, albedo, roughness, normal *texture.Texture, light Light) FSOut {
	u, v, n, wp := loadVaryings(c, in)
	tex := c.TexSample(albedo, u, v, &in.Layer, &in.Footprint)
	rgh := c.TexSample(roughness, u, v, &in.Layer, &in.Footprint)
	nmap := c.TexSample(normal, u, v, &in.Layer, &in.Footprint)

	two := c.Imm(2)
	negOne := c.Imm(-1)
	pert := Vec3V{c.FMA(nmap.X, two, negOne), c.FMA(nmap.Y, two, negOne), c.FMA(nmap.Z, two, negOne)}
	nrm := c.V3Normalize(c.V3FMA(pert, c.Imm(0.4), n))

	l := c.V3Imm(light.Dir)
	ndl := c.Max(c.V3Dot(nrm, l), c.Imm(0))
	view := c.V3Normalize(c.V3Sub(c.V3Imm(light.CameraPos), wp))
	half := c.V3Normalize(c.V3Add(view, l))
	ndh := c.Max(c.V3Dot(nrm, half), c.Imm(0))
	shin := c.FMA(c.Sub(c.Imm(1), rgh.X), c.Imm(96), c.Imm(4))
	spec := c.Pow(ndh, shin)

	lc := c.V3Imm(light.Color)
	amb := c.V3Imm(light.Ambient)
	col := c.V3Mul(Vec3V{tex.X, tex.Y, tex.Z}, c.V3FMA(lc, ndl, amb))
	col = c.V3FMA(lc, c.Mul(spec, c.Sub(c.Imm(1), rgh.X)), col)
	return c.export(col, tex.W, in)
}

// PlanetFS is the instanced-planets shader: a layered (array) texture
// indexed by the per-instance layer attribute, plus Lambert shading —
// the unique streaming/temporal access mix the paper includes IT for.
func PlanetFS(c *Ctx, in *FSIn, layered *texture.Texture, light Light) FSOut {
	u, v, n, _ := loadVaryings(c, in)
	tex := c.TexSample(layered, u, v, &in.Layer, &in.Footprint)
	nn := c.V3Normalize(n)
	ndl := c.Max(c.V3Dot(nn, c.V3Imm(light.Dir)), c.Imm(0))
	lc := c.V3Imm(light.Color)
	amb := c.V3Imm(light.Ambient)
	col := c.V3Mul(Vec3V{tex.X, tex.Y, tex.Z}, c.V3FMA(lc, ndl, amb))
	return c.export(col, tex.W, in)
}
