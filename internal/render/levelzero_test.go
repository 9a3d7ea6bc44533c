package render_test

import (
	"strings"
	"testing"

	"crisp/internal/render"
	"crisp/internal/scene"
)

// TestFramesKeepOnlySampledLevelZero: a generated texture stores its level
// 0 only once a frame samples it. At 320×180 the pistol's maps and SPH's
// floor, columns, gallery and banner are read at coarser levels only,
// while the pedestal and SPH's walls, seen up close, are read at level 0.
func TestFramesKeepOnlySampledLevelZero(t *testing.T) {
	for _, c := range []struct {
		scene string
		want  func(tex string) bool // whether the map must hold level 0
	}{
		{"PT", func(tex string) bool { return tex == "PT.pedestal.albedo" }},
		{"SPH", func(tex string) bool { return strings.HasPrefix(tex, "SPH.wall") }},
	} {
		f, err := scene.ByName(c.scene)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := render.RenderFrame(f, render.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Draws {
			for _, tex := range d.Mat.Textures() {
				if has := render.HasLevel0(tex); has != c.want(tex.Name) {
					t.Errorf("%s: %s holds level 0: %v, want %v", c.scene, tex.Name, has, !has)
				}
			}
		}
	}
}
