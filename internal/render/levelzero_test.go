package render_test

import (
	"regexp"
	"testing"

	"crisp/internal/render"
	"crisp/internal/scene"
)

// TestFramesKeepOnlySampledLevelZero: Noise, Checker and Gradient maps
// compute their level-0 texels where they are sampled and never hold level
// 0, whatever a frame reads; a NoiseFine map stores it only once a frame
// samples it. At 320×180 the one NoiseFine maps read at level 0 are the
// normal and prefilter maps of SPH's walls, seen up close; PT's pedestal
// and SPH's walls are read at level 0 too, but their other maps are
// computed.
func TestFramesKeepOnlySampledLevelZero(t *testing.T) {
	sampledFine := regexp.MustCompile(`^SPH\.wall[01]\.(normal|prefilter)$`)
	for _, name := range scene.Names() {
		f, err := scene.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := render.RenderFrame(f, render.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Draws {
			for _, tex := range d.Mat.Textures() {
				if has, want := render.HasLevel0(tex), sampledFine.MatchString(tex.Name); has != want {
					t.Errorf("%s: %s holds level 0: %v, want %v", name, tex.Name, has, want)
				}
			}
		}
	}
}
