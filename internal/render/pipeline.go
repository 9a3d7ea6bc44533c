package render

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"crisp/internal/fanout"
	"crisp/internal/geom"
	"crisp/internal/gmath"
	"crisp/internal/raster"
	"crisp/internal/shader"
	"crisp/internal/texture"
	"crisp/internal/trace"
)

const (
	varyingStride  = 48 // bytes of post-transform attributes per vertex
	instanceStride = 64 // bytes of per-instance data (matrix row-major)
	fbPixelBytes   = 4  // RGBA8 render target
)

// pipeline is a sort-middle renderer. Geometry (vertex shading, assembly
// and culling, address assignment) and the early-Z rasterizer run on the
// calling goroutine in API order, because the depth buffer makes every
// batch's fragment list depend on all batches before it. A batch's fragment
// shading is a pure function of that list, of addresses assigned before it
// starts and of textures nobody writes, so it runs as tasks of fs, a few
// CTAs each; their CTAs, colours and counters are committed afterwards in
// stream order.
//
// The pipeline holds the frame's draws, not the FrameDef, and lets go of a
// draw's material once the draw is shaded: a material's textures then stay
// reachable only while a later draw still samples them, or while the
// caller keeps the FrameDef.
type pipeline struct {
	shading
	draws   []DrawCall
	cam     Camera
	dropped int // draws [0, dropped) are committed and hold no material
	rast    *raster.Rasterizer
	mem     arena
	vbuf    map[*geom.Mesh]uint64
	color   []gmath.Vec4
	streams []StreamTrace
	nextStr int
	metrics []DrawMetrics // one per draw, in place before the draw starts
	counted raster.Stats  // rasterizer counters already attributed to a draw
	fs      *fanout.Ordered[shaded]
}

// shading is all a fragment-shading task sees of the frame; nothing in it
// changes once the first draw has started.
type shading struct {
	opts   Options
	light  shader.Light
	fbBase uint64
}

// shaded is one task's fragment shading awaiting its turn to be committed:
// consecutive CTAs of one batch's FS kernel.
type shaded struct {
	kernel *trace.Kernel // the batch's FS kernel, which ctas continue
	ctas   []trace.CTA
	pixels []pixelWrite // in fragment order: a later write to a pixel wins
	tex    texCounts
	draw   int  // index into pipeline.metrics
	last   bool // the batch's fragment list is done with
}

// warpRef locates one fragment warp: up to 32 consecutive fragments of one
// tile's list.
type warpRef struct{ tile, first int }

const (
	warpsPerCTA = 8
	// ctasPerTask sizes a fragment-shading task at 2048 fragments: small
	// enough that a batch holding most of a frame's fragments (PT's pistol:
	// 84%) still spreads over the CPUs, large enough that handing it to
	// another goroutine is noise.
	ctasPerTask = 8
)

type pixelWrite struct {
	at    int // index into pipeline.color
	color gmath.Vec4
}

// texCounts are the DrawMetrics a fragment-shading task contributes to.
type texCounts struct {
	warpInsts, simAccesses, refAccesses int64
}

// ctxPool holds warp-execution contexts between the stages that Reset one
// per warp, so a batch's few warps do not each grow a fresh lane arena.
var ctxPool = sync.Pool{New: func() any { return shader.NewCtx(nil, 0) }}

// putCtx returns c to the pool holding nothing of the frame: no builder, no
// OnTex closure over a task's results, no reference footprints.
func putCtx(c *shader.Ctx) {
	c.Reset(nil, 0)
	ctxPool.Put(c)
}

// fragListHook, when a test sets it, is told +1 as a batch's fragment list
// comes into being and -1 as that batch's shading is committed.
var fragListHook func(delta int)

// RenderFrame executes the full pipeline for f and returns the framebuffer
// plus one trace stream per rendering batch.
func RenderFrame(f *FrameDef, opts Options) (*Result, error) {
	if opts.W <= 0 || opts.H <= 0 {
		return nil, fmt.Errorf("render: bad resolution %dx%d", opts.W, opts.H)
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = geom.DefaultBatchSize
	}
	rast, err := raster.New(opts.W, opts.H)
	if err != nil {
		return nil, err
	}
	rast.EarlyZ = !opts.DisableEarlyZ
	rast.ExactFootprint = opts.StrictQuads || opts.CollectRefTex
	p := &pipeline{
		shading: shading{opts: opts, light: f.Light},
		draws:   slices.Clone(f.Draws),
		cam:     f.Cam,
		rast:    rast,
		mem:     arena{next: 1 << 20},
		vbuf:    make(map[*geom.Mesh]uint64),
		nextStr: opts.BaseStream,
		metrics: make([]DrawMetrics, len(f.Draws)),
	}
	p.fbBase = p.mem.alloc(uint64(opts.W*opts.H*fbPixelBytes), 128)
	p.color = make([]gmath.Vec4, opts.W*opts.H)

	// Bind every texture into this frame's address space, once each. A
	// FrameDef rendered before still carries that frame's addresses, which
	// this arena has not reserved, so nothing is kept from it. A nil map is
	// left for the shader that samples it to trip over.
	bound := make(map[*texture.Texture]bool)
	for di := range p.draws {
		for _, t := range p.draws[di].Mat.Textures() {
			if t == nil || bound[t] {
				continue
			}
			bound[t] = true
			t.Bind(p.mem.alloc(1, 128))
			p.mem.next += t.Size()
		}
	}

	// From here on f is not used: for a caller that has let go of it, as
	// core.RenderScene has, a material's textures are freed once its last
	// draw is shaded.
	name := f.Name
	p.fs = fanout.New(p.commit)
	defer p.fs.Close()
	for di := range p.draws {
		if err := p.draw(di); err != nil {
			return nil, fmt.Errorf("render: draw %q: %w", p.draws[di].Name, err)
		}
	}
	p.fs.Wait()
	return &Result{
		Frame:   name,
		W:       opts.W,
		H:       opts.H,
		Color:   p.color,
		Streams: p.streams,
		Metrics: p.metrics,
		Raster:  p.rast.Stats(),
	}, nil
}

func (p *pipeline) vbufBase(m *geom.Mesh) uint64 {
	if b, ok := p.vbuf[m]; ok {
		return b
	}
	b := p.mem.alloc(uint64(len(m.Verts)*geom.VertexStride), 128)
	p.vbuf[m] = b
	return b
}

// draw runs one drawcall: batching, then per batch VS → assembly/cull →
// raster here and FS as a task, each batch forming one stream.
func (p *pipeline) draw(di int) error {
	dc := &p.draws[di]
	if err := dc.Mesh.Validate(); err != nil {
		return err
	}
	vb := p.vbufBase(dc.Mesh)
	batches := geom.BatchIndices(dc.Mesh.Idx, p.opts.BatchSize)

	instances := dc.Instances
	if len(instances) == 0 {
		instances = []Instance{{Model: dc.Model}}
	}
	instBase := p.mem.alloc(uint64(len(instances)*instanceStride), 128)

	m := &p.metrics[di]
	*m = DrawMetrics{
		Name:       dc.Name,
		Batches:    len(batches) * len(instances),
		Instances:  len(instances),
		VerticesIn: len(dc.Mesh.Idx) * len(instances),
	}

	viewProj := p.cam.Proj.Mul(p.cam.View)
	for ii := range instances {
		inst := &instances[ii]
		mvp := viewProj.Mul(inst.Model)
		for bi := range batches {
			b := &batches[bi]
			// Before this batch's fragment list exists: at most
			// fanout.Window() lists, and as many batches' colours, are
			// alive at a time.
			p.fs.Reserve()
			streamID := p.nextStr
			p.nextStr++
			label := fmt.Sprintf("%s.i%02d.b%03d", dc.Name, ii, bi)

			vsK, clipVerts, varyBase := p.vertexStage(dc, b, inst, ii, instBase, vb, mvp, streamID, label, m)
			si := len(p.streams)
			p.streams = append(p.streams, StreamTrace{Stream: streamID, Label: label, Kernels: []*trace.Kernel{vsK}})

			tris, _ := geom.AssembleCull(clipVerts, b.LocalIdx, p.opts.BackfaceCull)
			m.Triangles += len(tris)
			if len(tris) == 0 {
				continue
			}
			tileFrags := p.rast.Rasterize(tris)
			if len(tileFrags) == 0 { // Rasterize returns non-empty tiles only
				continue
			}
			p.streams[si].Kernels = append(p.streams[si].Kernels, p.fragmentStage(di, tileFrags, varyBase, streamID, label))
		}
	}
	st := p.rast.Stats()
	m.Fragments = st.Fragments - p.counted.Fragments
	m.EarlyZKill = st.EarlyZKill - p.counted.EarlyZKill
	p.counted = st
	return nil
}

// fragmentStage hands the batch's binned fragments to fs for shading and
// returns the FS kernel the results will fill: warps are packed in tile
// order (approximate quads), CTAs hold 8 warps.
func (p *pipeline) fragmentStage(di int, tileFrags [][]raster.Fragment, varyBase uint64, streamID int, label string) *trace.Kernel {
	var warps []warpRef
	for ti, tf := range tileFrags {
		for f0 := 0; f0 < len(tf); f0 += shader.Lanes {
			warps = append(warps, warpRef{ti, f0})
		}
	}
	mat := p.draws[di].Mat
	k := &trace.Kernel{
		Name:          label + ".fs",
		Kind:          trace.KindFragment,
		Stream:        streamID,
		ThreadsPerCTA: warpsPerCTA * shader.Lanes,
		RegsPerThread: mat.Kind.regsPerThread(),
		CTAs:          make([]trace.CTA, 0, (len(warps)+warpsPerCTA-1)/warpsPerCTA),
	}
	if fragListHook != nil {
		fragListHook(+1)
	}
	sh := &p.shading
	const step = ctasPerTask * warpsPerCTA
	for w0 := 0; w0 < len(warps); w0 += step {
		chunk, last := warps[w0:min(w0+step, len(warps))], w0+step >= len(warps)
		task := func() shaded {
			out := sh.shadeWarps(k, mat, tileFrags, chunk, varyBase)
			out.kernel, out.draw, out.last = k, di, last
			return out
		}
		if len(warps) < warpsPerCTA {
			// Not one full CTA (most of a vertex-bound frame's batches):
			// waking another goroutine would cost more than the shading.
			p.fs.Do(task)
		} else {
			p.fs.Go(task)
		}
	}
	return k
}

// commit folds one task's fragment shading into the frame. It is called in
// stream order, so a kernel's CTAs arrive in order, and where batches
// overlap on screen the later batch's surviving fragment overwrites the
// earlier one's, as it did when shading itself ran in that order.
func (p *pipeline) commit(r shaded) {
	// Every task of the draws before this one's has been committed.
	for ; p.dropped < r.draw; p.dropped++ {
		p.draws[p.dropped].Mat = nil
	}
	for i := range r.ctas {
		r.ctas[i].ID = len(r.kernel.CTAs) + i
	}
	r.kernel.CTAs = append(r.kernel.CTAs, r.ctas...)
	for _, px := range r.pixels {
		p.color[px.at] = px.color
	}
	m := &p.metrics[r.draw]
	m.TexWarpInsts += r.tex.warpInsts
	m.SimTexAccesses += r.tex.simAccesses
	m.RefTexAccesses += r.tex.refAccesses
	if r.last && fragListHook != nil {
		fragListHook(-1)
	}
}

// vertexStage shades one batch's unique vertices, emitting the VS kernel.
func (p *pipeline) vertexStage(dc *DrawCall, b *geom.Batch, inst *Instance, instIdx int, instBase, vb uint64, mvp gmath.Mat4, streamID int, label string, m *DrawMetrics) (*trace.Kernel, []geom.ClipVert, uint64) {
	bld := trace.NewBuilder(label+".vs", trace.KindVertex, streamID, p.opts.BatchSize, 32, 0)
	bld.BeginCTA()
	varyBase := p.mem.alloc(uint64(len(b.Unique)*varyingStride), 128)
	clipVerts := make([]geom.ClipVert, len(b.Unique))

	instanced := len(dc.Instances) > 0
	// Per-lane address buffers, filled again for every warp: the Builder
	// packs what it is handed and keeps nothing.
	var posBuf, nrmBuf, uvBuf, addrBuf [shader.Lanes]uint64
	ctx := ctxPool.Get().(*shader.Ctx)
	defer putCtx(ctx)
	for w0 := 0; w0 < len(b.Unique); w0 += shader.Lanes {
		lanes := len(b.Unique) - w0
		if lanes > shader.Lanes {
			lanes = shader.Lanes
		}
		mask := uint32(0xFFFFFFFF)
		if lanes < 32 {
			mask = (uint32(1) << uint(lanes)) - 1
		}
		bld.BeginWarp()
		ctx.Reset(bld, mask)
		ctx.LodEnabled = p.opts.LoD
		ctx.Filter = p.opts.Filter

		var in shader.VSIn
		posA, nrmA, uvA := posBuf[:0], nrmBuf[:0], uvBuf[:0]
		for l := 0; l < lanes; l++ {
			g := b.Unique[w0+l]
			v := &dc.Mesh.Verts[g]
			in.PosX[l], in.PosY[l], in.PosZ[l] = v.Pos.X, v.Pos.Y, v.Pos.Z
			in.NrmX[l], in.NrmY[l], in.NrmZ[l] = v.Nrm.X, v.Nrm.Y, v.Nrm.Z
			in.U[l], in.V[l] = v.UV.X, v.UV.Y
			in.Layer[l] = inst.Layer
			base := vb + uint64(g)*geom.VertexStride
			posA = append(posA, base)
			nrmA = append(nrmA, base+12)
			uvA = append(uvA, base+24)
		}
		in.PosAddrs, in.NrmAddrs, in.UVAddrs = posA, nrmA, uvA

		if instanced {
			// Per-instance transform fetch: common vertex attributes are
			// re-referenced across instances (temporal locality) while
			// instance data streams (the Planets access mix).
			ia := addrBuf[:lanes]
			for l := range ia {
				ia[l] = instBase + uint64(instIdx)*instanceStride
			}
			ctx.Load(ia, trace.ClassPipeline)
		}

		varyA := addrBuf[:lanes]
		for l := 0; l < lanes; l++ {
			varyA[l] = varyBase + uint64(w0+l)*varyingStride
		}
		out := shader.TransformVS(ctx, &in, inst.Model, mvp, varyA)

		for l := 0; l < lanes; l++ {
			clipVerts[w0+l] = geom.ClipVert{
				Clip:   gmath.V4(out.ClipX[l], out.ClipY[l], out.ClipZ[l], out.ClipW[l]),
				WNrm:   gmath.V3(out.WNrmX[l], out.WNrmY[l], out.WNrmZ[l]),
				WPos:   gmath.V3(out.WPosX[l], out.WPosY[l], out.WPosZ[l]),
				UV:     gmath.Vec2{X: out.U[l], Y: out.V[l]},
				Layer:  out.Layer[l],
				Global: uint32(w0 + l), // local index addresses the varying buffer
			}
		}
	}
	m.ShadedVertices += len(b.Unique)
	warps := (len(b.Unique) + shader.Lanes - 1) / shader.Lanes
	m.SimVertexThreads += warps * shader.Lanes
	return bld.Finish(), clipVerts, varyBase
}

// shadeWarps shades consecutive warps of a batch, emitting their CTAs of
// FS kernel k. It runs off the pipeline's goroutine and touches nothing of
// the frame but what it returns.
func (sh *shading) shadeWarps(k *trace.Kernel, mat *Material, tileFrags [][]raster.Fragment, warps []warpRef, varyBase uint64) shaded {
	out := shaded{pixels: make([]pixelWrite, 0, len(warps)*shader.Lanes)}
	bld := trace.NewBuilder(k.Name, k.Kind, k.Stream, k.ThreadsPerCTA, k.RegsPerThread, 0)

	// The simulated addresses were coalesced into the TEX's line table as
	// it was built; only the reference ones are coalesced here.
	var refLines [shader.Lanes]uint64
	onTex := func(simLines int, refAddrs []uint64) {
		out.tex.warpInsts++
		out.tex.simAccesses += int64(simLines)
		if refAddrs != nil {
			out.tex.refAccesses += int64(len(trace.Coalesce(refLines[:0], refAddrs, trace.CacheLineSize)))
		}
	}

	// Per-lane address buffers and exact footprints, filled again for
	// every warp; TexSample reads only the active lanes'.
	var varyBuf, outBuf [shader.Lanes]uint64
	var exact [shader.Lanes]float32
	ctx := ctxPool.Get().(*shader.Ctx)
	defer putCtx(ctx)
	tile, tf := -1, []raster.Fragment(nil)
	for wi, w := range warps {
		if w.tile != tile {
			tile, tf = w.tile, tileFrags[w.tile]
			if sh.opts.StrictQuads {
				tf = quadOrder(tf)
			}
		}
		f0 := w.first
		lanes := len(tf) - f0
		if lanes > shader.Lanes {
			lanes = shader.Lanes
		}
		mask := uint32(0xFFFFFFFF)
		if lanes < 32 {
			mask = (uint32(1) << uint(lanes)) - 1
		}
		if wi%warpsPerCTA == 0 {
			bld.BeginCTA()
		}
		bld.BeginWarp()

		ctx.Reset(bld, mask)
		ctx.LodEnabled = sh.opts.LoD
		ctx.Filter = sh.opts.Filter

		var in shader.FSIn
		varyA, outA := varyBuf[:lanes], outBuf[:lanes]
		for l := 0; l < lanes; l++ {
			fr := &tf[f0+l]
			in.U[l], in.V[l] = fr.UV.X, fr.UV.Y
			in.NrmX[l], in.NrmY[l], in.NrmZ[l] = fr.WNrm.X, fr.WNrm.Y, fr.WNrm.Z
			in.WPosX[l], in.WPosY[l], in.WPosZ[l] = fr.WPos.X, fr.WPos.Y, fr.WPos.Z
			in.Layer[l] = fr.Layer
			if sh.opts.StrictQuads {
				// Quads are real: runtime ddx/ddy is available.
				in.Footprint[l] = fr.FootprintExact
			} else {
				in.Footprint[l] = fr.Footprint
			}
			exact[l] = fr.FootprintExact
			varyA[l] = varyBase + uint64(fr.Vert0Global)*varyingStride
			outA[l] = sh.fbBase + uint64(fr.Y*sh.opts.W+fr.X)*fbPixelBytes
		}
		in.VaryingAddrs, in.OutAddrs = varyA, outA

		if sh.opts.CollectRefTex {
			ctx.RefFootprint = &exact
		}
		ctx.OnTex = onTex

		col := sh.shade(ctx, &in, mat)

		for l := 0; l < lanes; l++ {
			fr := &tf[f0+l]
			out.pixels = append(out.pixels, pixelWrite{fr.Y*sh.opts.W + fr.X, gmath.V4(
				gmath.Clamp(col.R[l], 0, 1),
				gmath.Clamp(col.G[l], 0, 1),
				gmath.Clamp(col.B[l], 0, 1),
				gmath.Clamp(col.A[l], 0, 1),
			)})
		}
	}
	out.ctas = bld.Finish().CTAs
	return out
}

// quadOrder reorders a tile's fragments so members of each 2×2 screen
// quad are adjacent (quad-major, then row-major within the quad).
func quadOrder(frags []raster.Fragment) []raster.Fragment {
	out := slices.Clone(frags)
	slices.SortStableFunc(out, func(a, b raster.Fragment) int {
		return cmp.Or(
			cmp.Compare(a.Y/2, b.Y/2),
			cmp.Compare(a.X/2, b.X/2),
			cmp.Compare(a.Y, b.Y),
			cmp.Compare(a.X, b.X),
		)
	})
	return out
}

// shade dispatches to the material's fragment program.
func (sh *shading) shade(ctx *shader.Ctx, in *shader.FSIn, mat *Material) shader.FSOut {
	light := sh.light
	switch mat.Kind {
	case MatPBR:
		return shader.PBRFS(ctx, in, mat.PBR, light)
	case MatToon:
		return shader.ToonFS(ctx, in, mat.Albedo, light)
	case MatMaterial:
		return shader.MaterialFS(ctx, in, mat.Albedo, mat.Roughness, mat.Normal, light)
	case MatPlanet:
		return shader.PlanetFS(ctx, in, mat.Layered, light)
	default:
		return shader.BasicTexturedFS(ctx, in, mat.Albedo, light)
	}
}
