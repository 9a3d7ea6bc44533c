package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from this build")

// TestFiguresGolden: crispbench -exp all prints, byte for byte, the figures
// in testdata/figures.golden. A change that means to move a figure rewrites
// the file with -update, and the diff shows every number that moved.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure at the default scale")
	}
	var out bytes.Buffer
	WriteFigures(&out, Figures, func(f Figure) error {
		_, err := f.Print(&out, DefaultScale)
		if err != nil {
			t.Errorf("%s: %v", f.Name, err)
		}
		return err
	})
	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of output)"
	}
	t.Fatalf("%s differs from line %d on (-update rewrites it):\n got %q\nwant %q", path, i+1, line(gl), line(wl))
}
