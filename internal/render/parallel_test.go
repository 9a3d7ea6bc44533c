package render_test

import (
	"fmt"
	"runtime"
	"testing"

	"crisp/internal/render"
	"crisp/internal/scene"
	"crisp/internal/texture"
	"crisp/internal/trace/tracetest"
)

// atProcs runs fn under each GOMAXPROCS value and restores the old one.
func atProcs(procs []int, fn func(p int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

// digest builds the named scene and renders it: assets and frame both run
// at the GOMAXPROCS in force.
func digest(t *testing.T, name string, opts render.Options) uint64 {
	t.Helper()
	return render.FoldResult(frame(t, name, opts))
}

func frame(t *testing.T, name string, opts render.Options) *render.Result {
	t.Helper()
	f, err := scene.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := render.RenderFrame(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// pinnedFrames are FoldResult digests of scene.ByName + RenderFrame under
// DefaultOptions at the given size, recorded at commit 19c3214 — the last
// one whose front end ran on a single goroutine.
var pinnedFrames = map[string]uint64{
	"IT@320x180":  0xbbc7e3891626fa3f,
	"MT@320x180":  0x2dd6d0d4bb86f6bc,
	"PL@320x180":  0x4a064a1c825182a9,
	"PT@320x180":  0x7c0c1c5106b270e2,
	"SPH@320x180": 0x44547eecf9181edd,
	"SPL@320x180": 0x3e7ee92241bd0c6d,
	"SPH@640x360": 0x21917aab064aeab0,
	"PT@640x360":  0xb895cc7464abed02,
}

// TestFrameDigestsPinned is the front end's determinism gate: every scene
// renders to the very bits the serial pipeline produced, whatever
// GOMAXPROCS is — as rendered, and with its kernels as a trace file gives
// them back. The digests fold every lane address and were recorded when a
// trace held them one []uint64 per instruction, so they hold the Builder's
// packing and the file codec to lossless.
func TestFrameDigestsPinned(t *testing.T) {
	type job struct {
		scene string
		w, h  int
	}
	var jobs []job
	for _, s := range scene.Names() {
		jobs = append(jobs, job{s, 320, 180})
	}
	jobs = append(jobs, job{"SPH", 640, 360}, job{"PT", 640, 360})
	atProcs([]int{1, 2, 8}, func(p int) {
		for _, j := range jobs {
			if testing.Short() && j.w > 320 {
				continue
			}
			id := fmt.Sprintf("%s@%dx%d", j.scene, j.w, j.h)
			opts := render.DefaultOptions()
			opts.W, opts.H = j.w, j.h
			res := frame(t, j.scene, opts)
			if got := render.FoldResult(res); got != pinnedFrames[id] {
				t.Errorf("GOMAXPROCS=%d %s: %#x, pinned %#x", p, id, got, pinnedFrames[id])
			}
			for i := range res.Streams {
				var err error
				if res.Streams[i].Kernels, err = tracetest.Reload(res.Streams[i].Kernels); err != nil {
					t.Fatal(err)
				}
			}
			if got := render.FoldResult(res); got != pinnedFrames[id] {
				t.Errorf("GOMAXPROCS=%d %s, saved and loaded: %#x, pinned %#x", p, id, got, pinnedFrames[id])
			}
		}
	})
}

// TestOptionsMatrixIndependentOfProcs: every render option takes the same
// path through the fan-out, so each must give one digest at 1 and 8.
func TestOptionsMatrixIndependentOfProcs(t *testing.T) {
	variants := map[string]func(*render.Options){
		"StrictQuads":    func(o *render.Options) { o.StrictQuads = true },
		"DisableEarlyZ":  func(o *render.Options) { o.DisableEarlyZ = true },
		"CollectRefTex":  func(o *render.Options) { o.CollectRefTex = true },
		"StrictQuadsRef": func(o *render.Options) { o.StrictQuads, o.CollectRefTex = true, true },
		"LoDOff":         func(o *render.Options) { o.LoD = false },
		"FilterNearest":  func(o *render.Options) { o.Filter = texture.FilterNearest },
		"FilterBilinear": func(o *render.Options) { o.Filter = texture.FilterBilinear },
		"NoBackfaceCull": func(o *render.Options) { o.BackfaceCull = false },
		"BatchSize32":    func(o *render.Options) { o.BatchSize = 32 },
	}
	for _, name := range []string{"SPL", "PT"} {
		for label, set := range variants {
			opts := render.DefaultOptions()
			opts.W, opts.H = 160, 90
			set(&opts)
			var serial uint64
			atProcs([]int{1, 8}, func(p int) {
				got := digest(t, name, opts)
				if p == 1 {
					serial = got
				} else if got != serial {
					t.Errorf("%s %s: %#x at GOMAXPROCS=%d, %#x at 1", name, label, got, p, serial)
				}
			})
		}
	}
}
