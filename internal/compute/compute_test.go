package compute

import (
	"testing"

	"crisp/internal/isa"
	"crisp/internal/shader"
	"crisp/internal/trace"
)

func TestByName(t *testing.T) {
	for _, name := range Names() {
		w, err := ByName(name, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Name != name {
			t.Errorf("name = %s", w.Name)
		}
		if len(w.Kernels) == 0 {
			t.Fatalf("%s has no kernels", name)
		}
		for _, k := range w.Kernels {
			if err := k.Validate(); err != nil {
				t.Errorf("%s kernel %q: %v", name, k.Name, err)
			}
			if k.Stream != 42 {
				t.Errorf("%s kernel %q stream = %d", name, k.Name, k.Stream)
			}
		}
		if w.InstCount() == 0 {
			t.Errorf("%s empty", name)
		}
	}
	if _, err := ByName("DLSS", 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestVIOHasManySmallKernels(t *testing.T) {
	vio := VIO(0)
	holo := HOLO(0)
	if len(vio.Kernels) < 8 {
		t.Errorf("VIO kernels = %d, want many small ones", len(vio.Kernels))
	}
	if len(vio.Kernels) <= 2*len(holo.Kernels) {
		t.Errorf("VIO (%d kernels) should have far more kernels than HOLO (%d)",
			len(vio.Kernels), len(holo.Kernels))
	}
	avgVIO := vio.InstCount() / len(vio.Kernels)
	avgHOLO := holo.InstCount() / len(holo.Kernels)
	if avgVIO >= avgHOLO {
		t.Errorf("VIO kernels (avg %d insts) should be smaller than HOLO's (avg %d)", avgVIO, avgHOLO)
	}
}

// isConcat reports whether an NN kernel is a concat (streaming) kernel.
func isConcat(name string) bool {
	return len(name) >= 13 && name[:13] == "ritnet.concat"
}

// opShare computes the fraction of warp instructions with opcodes in set.
func opShare(w *Workload, set map[isa.Opcode]bool) float64 {
	var in, total int
	for _, k := range w.Kernels {
		for op, n := range k.OpHistogram() {
			total += n
			if set[op] {
				in += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

func TestHOLOIsComputeBound(t *testing.T) {
	holo := HOLO(0)
	mem := map[isa.Opcode]bool{isa.OpLDG: true, isa.OpSTG: true, isa.OpLDS: true, isa.OpSTS: true, isa.OpTEX: true}
	sfu := map[isa.Opcode]bool{isa.OpMUFUSIN: true, isa.OpMUFUCOS: true, isa.OpMUFURSQ: true, isa.OpMUFURCP: true}
	if s := opShare(holo, mem); s > 0.02 {
		t.Errorf("HOLO memory share = %.3f, want ≈0 (compute-bound)", s)
	}
	if s := opShare(holo, sfu); s < 0.15 {
		t.Errorf("HOLO SFU share = %.3f, want heavy SFU usage", s)
	}
}

func TestNNUsesSharedMemoryAndBarriers(t *testing.T) {
	nn := NN(0)
	shared := map[isa.Opcode]bool{isa.OpLDS: true, isa.OpSTS: true}
	if s := opShare(nn, shared); s < 0.1 {
		t.Errorf("NN shared-memory share = %.3f, want tiled-matmul profile", s)
	}
	for _, k := range nn.Kernels {
		if isConcat(k.Name) {
			// Concat kernels are pure streaming copies.
			continue
		}
		if k.SharedMem == 0 {
			t.Errorf("NN kernel %q declares no shared memory", k.Name)
		}
		if k.OpHistogram()[isa.OpBAR] == 0 {
			t.Errorf("NN kernel %q has no barriers", k.Name)
		}
	}
}

func TestNNIsSmall(t *testing.T) {
	// Batch is pinned at 2 (one image per eye): the grid cannot fill a
	// large GPU. Total CTAs stay small.
	nn := NN(0)
	for _, k := range nn.Kernels {
		if totalWarps := len(k.CTAs) * k.WarpsPerCTA(); totalWarps > 1472 {
			t.Errorf("NN kernel %q resident demand %d warps — should be unable to fill the 3070", k.Name, totalWarps)
		}
	}
}

func TestVIOIsMemoryHeavy(t *testing.T) {
	vio := VIO(0)
	mem := map[isa.Opcode]bool{isa.OpLDG: true, isa.OpSTG: true}
	if s := opShare(vio, mem); s < 0.15 {
		t.Errorf("VIO memory share = %.3f, want stencil-heavy profile", s)
	}
}

func TestWorkloadsUseDisjointAddressSpaces(t *testing.T) {
	ranges := map[string][2]uint64{}
	for _, name := range Names() {
		w, _ := ByName(name, 0)
		lo, hi := uint64(1)<<63, uint64(0)
		var lanes [isa.WarpSize]uint64
		for _, k := range w.Kernels {
			for _, cta := range k.CTAs {
				for wi := range cta.Warps {
					warp := &cta.Warps[wi]
					var c trace.Cursor
					for l := range warp.Insts {
						in := &warp.Insts[l]
						cur := c
						c = warp.Next(c, in)
						if isa.SpaceOf(in.Op) == isa.SpaceShared {
							// Shared offsets are segment-local, not VAs.
							continue
						}
						for _, a := range warp.Addrs(cur, in, &lanes) {
							if a < lo {
								lo = a
							}
							if a > hi {
								hi = a
							}
						}
					}
				}
			}
		}
		ranges[name] = [2]uint64{lo, hi}
	}
	names := Names()
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := ranges[names[i]], ranges[names[j]]
			if a[0] <= b[1] && b[0] <= a[1] {
				t.Errorf("%s [%#x,%#x] overlaps %s [%#x,%#x]",
					names[i], a[0], a[1], names[j], b[0], b[1])
			}
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	a := VIO(3)
	b := VIO(3)
	if a.InstCount() != b.InstCount() || len(a.Kernels) != len(b.Kernels) {
		t.Error("VIO builds differ between calls")
	}
}

func TestGridBuilderPartialWarp(t *testing.T) {
	g := newGrid("partial", 0, 128, 16, 0)
	k := g.run(40, func(c *shader.Ctx, base, lanes int) {
		c.Store(c.Imm(1), g.rowAddrs(0x1000, base, lanes, 4), trace.ClassCompute)
	})
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	// 40 elements = 1 full warp + 1 8-lane warp.
	warps := 0
	for _, cta := range k.CTAs {
		warps += len(cta.Warps)
	}
	if warps != 2 {
		t.Errorf("warps = %d, want 2", warps)
	}
	if k.ThreadInstCount() == 0 {
		t.Error("no thread instructions")
	}
}

func TestUpscaleIsTensorHeavy(t *testing.T) {
	up := Upscale(0)
	tensor := map[isa.Opcode]bool{isa.OpHMMA: true}
	if s := opShare(up, tensor); s < 0.1 {
		t.Errorf("UPSCALE tensor share = %.3f, want heavy HMMA usage", s)
	}
	for _, k := range up.Kernels {
		if k.SharedMem == 0 {
			t.Errorf("UPSCALE kernel %q declares no shared memory", k.Name)
		}
		if k.OpHistogram()[isa.OpBAR] == 0 {
			t.Errorf("UPSCALE kernel %q has no barriers", k.Name)
		}
	}
}

func TestATWIsMemoryBound(t *testing.T) {
	atw := ATW(0)
	if len(atw.Kernels) != 2 {
		t.Fatalf("ATW kernels = %d, want one per eye", len(atw.Kernels))
	}
	mem := map[isa.Opcode]bool{isa.OpLDG: true, isa.OpSTG: true}
	if s := opShare(atw, mem); s < 0.10 {
		t.Errorf("ATW memory share = %.3f, want gather-dominated profile", s)
	}
	sfu := map[isa.Opcode]bool{isa.OpMUFUSIN: true, isa.OpMUFUCOS: true}
	if s := opShare(atw, sfu); s > 0.05 {
		t.Errorf("ATW SFU share = %.3f, want light ALU", s)
	}
}

func TestPostprocessPairsRunConcurrently(t *testing.T) {
	// Both new workloads must produce valid traces runnable next to
	// graphics (exercised fully in core tests; here just validate).
	for _, name := range []string{"UPSCALE", "ATW"} {
		w, err := ByName(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range w.Kernels {
			if err := k.Validate(); err != nil {
				t.Errorf("%s kernel %q: %v", name, k.Name, err)
			}
		}
	}
}
