package render

import (
	"math"
	"reflect"

	"crisp/internal/snapshot"
	"crisp/internal/texture"
	"crisp/internal/trace/tracetest"
)

// FoldResult is the canonical digest of everything a render produces: every
// stream's kernels, the framebuffer bits, the per-draw metrics and the
// rasterizer's counters.
func FoldResult(res *Result) uint64 {
	h := snapshot.NewHasher()
	h.PutStr(res.Frame)
	h.PutInt(res.W)
	h.PutInt(res.H)
	h.PutInt(len(res.Streams))
	for _, st := range res.Streams {
		h.PutInt(st.Stream)
		h.PutStr(st.Label)
		tracetest.Fold(h, st.Kernels)
	}
	h.PutInt(len(res.Color))
	for _, c := range res.Color {
		h.PutU32(math.Float32bits(c.X))
		h.PutU32(math.Float32bits(c.Y))
		h.PutU32(math.Float32bits(c.Z))
		h.PutU32(math.Float32bits(c.W))
	}
	h.PutInt(len(res.Metrics))
	for _, m := range res.Metrics {
		h.PutStr(m.Name)
		h.PutInt(m.Batches)
		h.PutInt(m.Instances)
		h.PutInt(m.VerticesIn)
		h.PutInt(m.ShadedVertices)
		h.PutInt(m.SimVertexThreads)
		h.PutInt(m.Triangles)
		h.PutInt(m.Fragments)
		h.PutInt(m.EarlyZKill)
		h.PutI64(m.SimTexAccesses)
		h.PutI64(m.RefTexAccesses)
		h.PutI64(m.TexWarpInsts)
	}
	h.PutInt(res.Raster.Triangles)
	h.PutInt(res.Raster.Fragments)
	h.PutInt(res.Raster.EarlyZKill)
	return h.Sum64()
}

// HasLevel0 reports whether tex holds its level 0: a NoiseFine texture
// stores it only once a sample reads it, a computed one never. The level
// is unexported, so this looks through reflection rather than widen
// texture's API for a test.
func HasLevel0(tex *texture.Texture) bool {
	return reflect.ValueOf(tex).Elem().FieldByName("levels").Index(0).FieldByName("pix").Len() > 0
}
