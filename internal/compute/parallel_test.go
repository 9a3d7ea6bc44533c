package compute

import (
	"runtime"
	"testing"

	"crisp/internal/snapshot"
	"crisp/internal/trace/tracetest"
)

// pinnedWorkloads are tracetest.Fold digests of ByName(name, 7), recorded
// at commit 19c3214 — the last one that built kernels one after another.
var pinnedWorkloads = map[string]uint64{
	"VIO":     0x70c4b6b64ae76c73,
	"HOLO":    0xca776c446ffa0187,
	"NN":      0x5237c4f9e4984239,
	"UPSCALE": 0x2e319b0e4250e2ef,
	"ATW":     0xa9f752fa5c922f70,
}

// TestWorkloadDigestsPinned: every workload's kernels are the very bits the
// serial builders produced, whatever GOMAXPROCS is.
func TestWorkloadDigestsPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(p)
		for _, name := range Names() {
			w, err := ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			h := snapshot.NewHasher()
			h.PutStr(w.Name)
			tracetest.Fold(h, w.Kernels)
			if got := h.Sum64(); got != pinnedWorkloads[name] {
				t.Errorf("GOMAXPROCS=%d %s: %#x, pinned %#x", p, name, got, pinnedWorkloads[name])
			}
		}
	}
}
