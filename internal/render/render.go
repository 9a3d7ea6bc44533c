// Package render drives the Immediate Tiled Rendering pipeline of Fig. 2:
// drawcalls are split into vertex batches; each batch's vertex shader runs
// (emitting its trace), surviving primitives are assembled, culled, and
// rasterized, and the batch's fragments are shaded (emitting the fragment
// trace). Fixed-function stages run functionally; their inter-stage data
// movement is recreated as pipeline-class L2 traffic, and the ROP is
// skipped, exactly as the paper prescribes. Each batch becomes one stream
// holding its vertex and fragment kernels.
//
// Batches' fragment shading runs on up to GOMAXPROCS goroutines (see
// pipeline); the result is the same bits at any setting.
package render

import (
	"crisp/internal/geom"
	"crisp/internal/gmath"
	"crisp/internal/raster"
	"crisp/internal/shader"
	"crisp/internal/texture"
	"crisp/internal/trace"
)

// MaterialKind selects the fragment-shader program.
type MaterialKind uint8

const (
	// MatBasic is single-texture Lambert (Khronos Sponza).
	MatBasic MaterialKind = iota
	// MatPBR is the eight-map physically-based shader (Pistol, Sponza PBR).
	MatPBR
	// MatToon is the stylized Platformer shader.
	MatToon
	// MatMaterial is the material-tester shader (3 maps, Blinn-Phong).
	MatMaterial
	// MatPlanet is the instanced, texture-array shader (Planets).
	MatPlanet
)

// regsPerThread reports the fragment-shader register footprint per
// material; the heavyweight PBR shader's register pressure is what causes
// the register-limited occupancy dips of paper Fig. 13.
func (k MaterialKind) regsPerThread() int {
	switch k {
	case MatPBR:
		return 96
	case MatMaterial:
		return 64
	case MatPlanet:
		return 48
	default:
		return 40
	}
}

// Material binds a shader program to its textures.
type Material struct {
	Kind      MaterialKind
	Albedo    *texture.Texture
	Roughness *texture.Texture
	Normal    *texture.Texture
	PBR       *shader.PBRMaps
	Layered   *texture.Texture
}

// Textures lists every texture the material samples.
func (m *Material) Textures() []*texture.Texture {
	switch m.Kind {
	case MatPBR:
		return m.PBR.All()
	case MatMaterial:
		return []*texture.Texture{m.Albedo, m.Roughness, m.Normal}
	case MatPlanet:
		return []*texture.Texture{m.Layered}
	default:
		return []*texture.Texture{m.Albedo}
	}
}

// Instance is one instanced-draw replication.
type Instance struct {
	Model gmath.Mat4
	Layer float32
}

// DrawCall is one draw: a mesh, its material, and either a single model
// transform or a list of instances (instanced drawing merges object
// duplicates into one call, as the Planets workload does).
type DrawCall struct {
	Name      string
	Mesh      *geom.Mesh
	Model     gmath.Mat4
	Mat       *Material
	Instances []Instance
}

// Camera is the frame's view.
type Camera struct {
	View gmath.Mat4
	Proj gmath.Mat4
	Pos  gmath.Vec3
}

// FrameDef is a complete frame description — what vkQueueSubmit hands to
// the simulator.
type FrameDef struct {
	Name  string
	Cam   Camera
	Light shader.Light
	Draws []DrawCall
}

// Options configure one render.
type Options struct {
	W, H      int
	BatchSize int
	// LoD enables mipmapped sampling (the paper's central Fig. 9 knob).
	LoD    bool
	Filter texture.Filter
	// BackfaceCull toggles back-face culling at primitive assembly.
	BackfaceCull bool
	// DisableEarlyZ turns the early depth test off (every covered
	// fragment shades — the overdraw ablation).
	DisableEarlyZ bool
	// StrictQuads packs fragments into 2×2 quads within warps and uses
	// exact per-quad derivatives for LoD — the design alternative to the
	// paper's approximated quads with rasterizer-precalculated LoD
	// ("Even though we don't strictly enforce quads in the model …").
	StrictQuads bool
	// CollectRefTex computes the exact-LoD reference texture accesses
	// alongside the simulated ones (costs a second sample per texel).
	CollectRefTex bool
	// BaseStream numbers the first generated stream.
	BaseStream int
}

// DefaultOptions is a 2K-class render with LoD on.
func DefaultOptions() Options {
	return Options{
		W: 320, H: 180,
		BatchSize:    geom.DefaultBatchSize,
		LoD:          true,
		Filter:       texture.FilterTrilinear,
		BackfaceCull: true,
	}
}

// StreamTrace is one rendering batch's command stream: its vertex kernel
// followed by its fragment kernel.
type StreamTrace struct {
	Stream  int
	Label   string
	Kernels []*trace.Kernel
}

// DrawMetrics are the per-drawcall measurements the validation studies
// consume.
type DrawMetrics struct {
	Name      string
	Batches   int
	Instances int
	// VerticesIn is the pre-batching vertex reference count (indices).
	VerticesIn int
	// ShadedVertices is the exact batched invocation count — what the
	// hardware profiler reports as thread count (paper Fig. 3 x-axis).
	ShadedVertices int
	// SimVertexThreads is warps-launched × 32 — what the simulator
	// reports (paper Fig. 3 y-axis; slight error on small draws).
	SimVertexThreads int
	Triangles        int
	Fragments        int
	EarlyZKill       int
	// SimTexAccesses counts L1 texture requests after per-instruction
	// merging with the simulator's LoD configuration.
	SimTexAccesses int64
	// RefTexAccesses is the same count under exact per-quad LoD — the
	// hardware stand-in reference for Fig. 9.
	RefTexAccesses int64
	// TexWarpInsts counts the TEX warp instructions the draw's fragment
	// shaders executed.
	TexWarpInsts int64
}

// Result is a completed frame render.
type Result struct {
	Frame   string
	W, H    int
	Color   []gmath.Vec4 // row-major framebuffer
	Streams []StreamTrace
	Metrics []DrawMetrics
	Raster  raster.Stats
}

// arena is a bump allocator for the frame's virtual address space.
type arena struct{ next uint64 }

func (a *arena) alloc(size, align uint64) uint64 {
	if align == 0 {
		align = 128
	}
	a.next = (a.next + align - 1) / align * align
	p := a.next
	a.next += size
	return p
}
