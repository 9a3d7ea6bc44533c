package render

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"crisp/internal/fanout"
	"crisp/internal/gmath"
	"crisp/internal/isa"
	"crisp/internal/raster"
	"crisp/internal/texture"
	"crisp/internal/trace"
)

func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// layeredFrame is two screen-filling grids (many batches each), the first
// drawn at depth z0, the second at z1, in flat red and flat blue.
func layeredFrame(z0, z1 float32) *FrameDef {
	f := testFrame(MatBasic)
	flat := func(name string, c gmath.Vec4) *Material {
		return &Material{Kind: MatBasic, Albedo: texture.Checker(name, texture.FormatRGBA8, 64, 64, c, c, 8)}
	}
	grid := gridMesh(12)
	at := func(z float32) gmath.Mat4 { return gmath.Translate(gmath.V3(0, 0, z)).Mul(gmath.ScaleUniform(4)) }
	f.Draws = []DrawCall{
		{Name: "first", Mesh: grid, Model: at(z0), Mat: flat("red", gmath.V4(1, 0, 0, 1))},
		{Name: "second", Mesh: grid, Model: at(z1), Mat: flat("blue", gmath.V4(0, 0, 1, 1))},
	}
	return f
}

// manyBatches cuts layeredFrame's grids into a dozen batches with fragments
// each.
func manyBatches() Options {
	o := smallOpts()
	o.BatchSize = 12
	return o
}

// TestOverdrawCommitsInStreamOrder: where two batches cover a pixel, the
// colour left in the framebuffer is the one serial shading left — the
// nearer surface under early-Z, the later draw without it — and the whole
// result is the serial one's at any GOMAXPROCS.
func TestOverdrawCommitsInStreamOrder(t *testing.T) {
	for _, c := range []struct {
		name     string
		z0, z1   float32 // the camera sits at z = 3: larger is nearer
		noEarlyZ bool
		wantBlue bool

		fewBatches bool
	}{
		{"far then near", 0, 1, false, true, false},
		{"near then far", 1, 0, false, false, false},
		{"far then near, no early-Z", 0, 1, true, true, false},
		{"near then far, no early-Z", 1, 0, true, true, false},
		{"far then near, large batches", 0, 1, false, true, true},
		{"near then far, large batches, no early-Z", 1, 0, true, true, true},
	} {
		opts := manyBatches() // many batches of one task each
		if c.fewBatches {
			opts = smallOpts() // two batches a draw, several tasks each
		}
		opts.DisableEarlyZ = c.noEarlyZ
		render := func(procs int) *Result {
			withProcs(t, procs)
			res, err := RenderFrame(layeredFrame(c.z0, c.z1), opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		serial := render(1)
		// The rasterizer leaves the odd pixel on a shared grid edge to
		// neither triangle or to both, so counts are held to 1%.
		pixels := opts.W * opts.H
		near := func(got, want int) bool { return got >= want-pixels/100 && got <= want+pixels/100 }
		blue := 0
		for _, px := range serial.Color {
			if px.Z > px.X {
				blue++
			}
		}
		if c.wantBlue != near(blue, pixels) || c.wantBlue == near(blue, 0) {
			t.Errorf("%s: %d of %d pixels are the second draw's", c.name, blue, pixels)
		}
		first, second := serial.Metrics[0], serial.Metrics[1]
		wantSecond, wantKilled := pixels, 0
		if c.z1 < c.z0 && !c.noEarlyZ {
			wantSecond, wantKilled = 0, pixels
		}
		if !near(first.Fragments, pixels) || !near(second.Fragments, wantSecond) || !near(second.EarlyZKill, wantKilled) ||
			serial.Raster.Fragments != first.Fragments+second.Fragments || serial.Raster.EarlyZKill != first.EarlyZKill+second.EarlyZKill {
			t.Errorf("%s: draws shaded %d and %d fragments, killed %d and %d; raster %+v", c.name,
				first.Fragments, second.Fragments, first.EarlyZKill, second.EarlyZKill, serial.Raster)
		}
		for _, procs := range []int{2, 8} {
			if got, want := FoldResult(render(procs)), FoldResult(serial); got != want {
				t.Errorf("%s: digest %#x at GOMAXPROCS=%d, %#x at 1", c.name, got, procs, want)
			}
		}
	}
}

// TestFragmentListsBounded: geometry never runs further ahead of shading
// than fanout.Window() uncommitted tasks (1 at GOMAXPROCS 1), so that many
// fragment lists (and deferred colour writes) are alive at most.
func TestFragmentListsBounded(t *testing.T) {
	defer func() { fragListHook = nil }()
	for _, procs := range []int{1, 2, 3} {
		withProcs(t, procs)
		alive, peak, total := 0, 0, 0
		fragListHook = func(delta int) { // called by RenderFrame's goroutine only
			alive += delta
			peak = max(peak, alive)
			if delta > 0 {
				total++
			}
		}
		if _, err := RenderFrame(layeredFrame(0, 1), manyBatches()); err != nil {
			t.Fatal(err)
		}
		if alive != 0 || total < 10 || peak < 1 || peak > fanout.Window() {
			t.Errorf("GOMAXPROCS=%d: %d fragment lists, at most %d alive at once, %d never committed", procs, total, peak, alive)
		}
	}
}

// TestShadedDrawsLetGoOfTextures: RenderFrame holds a draw's material only
// until the draw is shaded, so for a caller that has let go of the FrameDef
// (core.RenderScene) the first draw's texture is freed while the second
// draw is still being shaded. A caller that keeps the FrameDef finds it as
// it was.
func TestShadedDrawsLetGoOfTextures(t *testing.T) {
	defer func() { fragListHook = nil }()
	for _, procs := range []int{1, 2} {
		withProcs(t, procs)
		var redFreed, blueFreed atomic.Bool
		frame := func() *FrameDef {
			f := layeredFrame(0, 1)
			runtime.SetFinalizer(f.Draws[0].Mat.Albedo, func(*texture.Texture) { redFreed.Store(true) })
			runtime.SetFinalizer(f.Draws[1].Mat.Albedo, func(*texture.Texture) { blueFreed.Store(true) })
			return f
		}
		redOnly := false
		fragListHook = func(delta int) { // called by RenderFrame's goroutine only
			if delta > 0 {
				return
			}
			// Finalizers run on their own goroutine after the cycle that
			// found the texture unreachable.
			for i := 0; i < 20 && !redFreed.Load(); i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			redOnly = redOnly || redFreed.Load() && !blueFreed.Load()
		}
		if _, err := RenderFrame(frame(), manyBatches()); err != nil {
			t.Fatal(err)
		}
		if !redOnly {
			t.Errorf("GOMAXPROCS=%d: the first draw's texture was still reachable while the second draw was shaded", procs)
		}

		fragListHook = nil
		kept := layeredFrame(0, 1)
		mats := []*Material{kept.Draws[0].Mat, kept.Draws[1].Mat}
		if _, err := RenderFrame(kept, manyBatches()); err != nil {
			t.Fatal(err)
		}
		if kept.Draws[0].Mat != mats[0] || kept.Draws[1].Mat != mats[1] {
			t.Errorf("GOMAXPROCS=%d: RenderFrame changed the caller's draws", procs)
		}
	}
}

// TestRerenderedFrameDefMatchesFresh: a FrameDef rendered before is bound
// afresh. Its textures used to keep the first frame's addresses while the
// second frame's arena handed the same range to vertex, instance and
// varying buffers.
func TestRerenderedFrameDefMatchesFresh(t *testing.T) {
	frame := func() *FrameDef {
		f := testFrame(MatPBR)
		f.Draws[0].Mesh = gridMesh(8)
		basic := testFrame(MatBasic).Draws[0]
		basic.Name, basic.Model = "behind", gmath.Translate(gmath.V3(0.5, 0, -1))
		f.Draws = append(f.Draws, basic)
		return f
	}
	big := smallOpts()
	big.W, big.H = 2*big.W, 2*big.H // a larger framebuffer moves everything after it

	f := frame()
	for i, opts := range []Options{smallOpts(), big, smallOpts(), smallOpts()} {
		res, err := RenderFrame(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := RenderFrame(frame(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if FoldResult(res) != FoldResult(fresh) {
			t.Errorf("render %d of one FrameDef differs from a freshly built frame's", i+1)
		}
		aliased := false
		var texRanges [][2]uint64
		for _, d := range f.Draws {
			for _, tx := range d.Mat.Textures() {
				base := tx.TexelAddr(0, 0, 0, 0)
				texRanges = append(texRanges, [2]uint64{base, base + tx.Size()})
			}
		}
		for _, st := range res.Streams {
			for _, k := range st.Kernels {
				for ci := range k.CTAs {
					for wi := range k.CTAs[ci].Warps {
						w := &k.CTAs[ci].Warps[wi]
						var c trace.Cursor
						for l := range w.Insts {
							in := &w.Insts[l]
							cur := c
							c = w.Next(c, in)
							if in.Op == isa.OpTEX {
								continue
							}
							var lanes [isa.WarpSize]uint64
							for _, a := range w.Addrs(cur, in, &lanes) {
								for _, r := range texRanges {
									if a >= r[0] && a < r[1] && !aliased {
										aliased = true
										t.Errorf("render %d: %s %v touches %#x inside a texture bound at [%#x, %#x)", i+1, k.Name, in.Op, a, r[0], r[1])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestWorkerPanicReachesCaller: a fragment shader that panics on a worker
// goroutine unwinds RenderFrame's caller like any other panic, carrying the
// worker's stack, and takes every goroutine of the frame with it.
func TestWorkerPanicReachesCaller(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		base := runtime.NumGoroutine()
		f := layeredFrame(0, 1)
		f.Draws[1].Mat.Albedo = nil // sampled only by fragment shading
		recovered := func() (r any) {
			defer func() { r = recover() }()
			RenderFrame(f, manyBatches())
			return nil
		}()
		if recovered == nil {
			t.Fatalf("GOMAXPROCS=%d: rendering with a nil texture did not panic", procs)
		}
		if p, ok := recovered.(*fanout.Panic); procs > 1 && (!ok || len(p.Stack) == 0) {
			t.Errorf("GOMAXPROCS=%d: recovered %T %v, want the worker's panic and stack", procs, recovered, recovered)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS=%d: %d goroutines after the panic, %d before", procs, runtime.NumGoroutine(), base)
			}
		}
	}
}

// quadOrderRef is quadOrder as it was: sort.SliceStable over index pairs.
func quadOrderRef(frags []raster.Fragment) []raster.Fragment {
	out := make([]raster.Fragment, len(frags))
	copy(out, frags)
	sort.SliceStable(out, func(i, j int) bool {
		qi := [2]int{out[i].Y / 2, out[i].X / 2}
		qj := [2]int{out[j].Y / 2, out[j].X / 2}
		if qi != qj {
			if qi[0] != qj[0] {
				return qi[0] < qj[0]
			}
			return qi[1] < qj[1]
		}
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

func TestQuadOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 300; n += 7 {
		frags := make([]raster.Fragment, n)
		for i := range frags {
			// A 16×16 tile with overdraw: equal pixels must keep their order.
			frags[i] = raster.Fragment{X: rng.Intn(16), Y: rng.Intn(16), Depth: rng.Float32(), Vert0Global: uint32(i)}
		}
		in := slices.Clone(frags)
		if got, want := quadOrder(frags), quadOrderRef(frags); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d fragments: order differs from the reference", n)
		}
		if !reflect.DeepEqual(frags, in) {
			t.Fatalf("%d fragments: quadOrder reordered its input", n)
		}
	}
}
