package compute

import (
	"runtime"
	"testing"

	"crisp/internal/snapshot"
	"crisp/internal/trace"
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
// serial builders produced, whatever GOMAXPROCS is — as built, and as a
// trace file gives them back. The digests fold every lane address and were
// recorded when a trace held them one []uint64 per instruction, so they
// hold the Builder's packing and the file codec to lossless.
func TestWorkloadDigestsPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(p)
		for _, name := range Names() {
			w, err := ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			reloaded, err := tracetest.Reload(w.Kernels)
			if err != nil {
				t.Fatal(err)
			}
			for source, ks := range map[string][]*trace.Kernel{"built": w.Kernels, "reloaded": reloaded} {
				h := snapshot.NewHasher()
				h.PutStr(w.Name)
				tracetest.Fold(h, ks)
				if got := h.Sum64(); got != pinnedWorkloads[name] {
					t.Errorf("GOMAXPROCS=%d %s, %s: %#x, pinned %#x", p, name, source, got, pinnedWorkloads[name])
				}
			}
		}
	}
}
