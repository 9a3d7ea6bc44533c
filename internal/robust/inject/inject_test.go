package inject_test

import (
	"math/rand"
	"reflect"
	"testing"

	"crisp/internal/compute"
	"crisp/internal/config"
	"crisp/internal/gpu"
	"crisp/internal/isa"
	"crisp/internal/partition"
	"crisp/internal/robust"
	"crisp/internal/robust/inject"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
	"crisp/internal/trace/tracetest"
)

// workload builds a small two-kernel compute stream exercising every
// feature the fault catalog perturbs: multi-warp CTAs, barriers, global
// loads with per-lane addresses, and plain ALU work.
func workload() []*trace.Kernel {
	var kernels []*trace.Kernel
	for ki := 0; ki < 2; ki++ {
		b := trace.NewBuilder("k", trace.KindCompute, 7, 2*isa.WarpSize, 16, 0)
		for c := 0; c < 4; c++ {
			b.BeginCTA()
			for w := 0; w < 2; w++ {
				b.BeginWarp()
				r := b.NewReg()
				b.ALU(isa.OpIADD, r, trace.FullMask)
				addrs := make([]uint64, isa.WarpSize)
				for l := range addrs {
					addrs[l] = uint64(ki<<20 | c<<12 | w<<8 | l*4)
				}
				b.Mem(isa.OpLDG, b.NewReg(), trace.FullMask, addrs, trace.ClassCompute)
				b.Barrier()
				b.ALU(isa.OpFMUL, b.NewReg(), trace.FullMask, r)
			}
		}
		kernels = append(kernels, b.Finish())
	}
	return kernels
}

func validateAll(ks []*trace.Kernel) error {
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// runFaulted pushes the faulted kernels through a real GPU under the
// given policy builder (nil = serial) and returns the run error.
func runFaulted(t *testing.T, ks []*trace.Kernel, intraSM bool) error {
	t.Helper()
	cfg := config.JetsonOrin()
	cfg.NumSMs = 2
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatalf("gpu.New: %v", err)
	}
	g.WatchdogWindow = 1 << 16 // keep runtime faults fast
	if err := g.AddStream(gpu.StreamDef{ID: 7, Task: 1, Label: "faulted", Kernels: ks}); err != nil {
		return err
	}
	if intraSM {
		even, err := partition.NewFGN(g, 2)
		if err != nil {
			t.Fatalf("NewFGN: %v", err)
		}
		g.SetPolicy(even)
	}
	_, err = g.Run()
	return err
}

func TestCloneKernelsIsolation(t *testing.T) {
	orig := workload()
	pristine := inject.CloneKernels(orig)
	clone := inject.CloneKernels(orig)

	rng := rand.New(rand.NewSource(1))
	for _, f := range inject.Catalog() {
		f.Apply(clone, rng)
	}
	if !reflect.DeepEqual(orig, pristine) {
		t.Fatal("faulting a clone mutated the original kernels")
	}
}

// TestFaultsCopyOnWrite: a clone shares its original's programs and
// streams, and NN's 4,968 warps share 7 programs, so a fault that wrote into
// a program would reach every warp running it, in the clone and in the
// original alike. Every catalog fault applied to a clone of NN must leave
// the original's digest as it was and, in the clone, every warp but the one
// it targets folding as before.
func TestFaultsCopyOnWrite(t *testing.T) {
	nn, err := compute.ByName("NN", 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(ks []*trace.Kernel) uint64 {
		h := snapshot.NewHasher()
		tracetest.Fold(h, ks)
		return h.Sum64()
	}
	perWarp := func(ks []*trace.Kernel) map[[3]int]uint64 {
		out := map[[3]int]uint64{}
		for ki, k := range ks {
			for c := range k.CTAs {
				for w := range k.CTAs[c].Warps {
					h := snapshot.NewHasher()
					tracetest.FoldWarp(h, &k.CTAs[c].Warps[w])
					out[[3]int{ki, c, w}] = h.Sum64()
				}
			}
		}
		return out
	}
	want, before := digest(nn.Kernels), perWarp(nn.Kernels)
	for _, f := range inject.Catalog() {
		clone := inject.CloneKernels(nn.Kernels)
		if !f.Apply(clone, rand.New(rand.NewSource(5))) {
			t.Errorf("%s: not applicable to NN", f.Name)
			continue
		}
		if got := digest(nn.Kernels); got != want {
			t.Errorf("%s: the original's digest moved from %#x to %#x", f.Name, want, got)
		}
		changed := 0
		for id, h := range perWarp(clone) {
			if h != before[id] {
				changed++
			}
		}
		if changed > 1 {
			t.Errorf("%s: %d warps of the clone fold differently, want at most the one it targets", f.Name, changed)
		}
	}
}

func TestCatalogDeterminism(t *testing.T) {
	for _, f := range inject.Catalog() {
		a := inject.CloneKernels(workload())
		b := inject.CloneKernels(workload())
		okA := f.Apply(a, rand.New(rand.NewSource(42)))
		okB := f.Apply(b, rand.New(rand.NewSource(42)))
		if okA != okB {
			t.Fatalf("%s: applicability differs across identical seeds", f.Name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different mutations", f.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if f := inject.ByName("drop-barrier"); f == nil || f.Expect != inject.ExpectRuntime {
		t.Fatalf("ByName(drop-barrier) = %+v", f)
	}
	if f := inject.ByName("no-such-fault"); f != nil {
		t.Fatalf("ByName(no-such-fault) = %+v, want nil", f)
	}
}

// TestFaultContainment is the harness's core claim: every catalog fault is
// caught at (exactly) its expected layer and never escalates to a hang or
// panic.
func TestFaultContainment(t *testing.T) {
	for _, f := range inject.Catalog() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			ks := inject.CloneKernels(workload())
			if !f.Apply(ks, rand.New(rand.NewSource(3))) {
				t.Fatalf("%s: fault not applicable to the test workload", f.Name)
			}
			switch f.Expect {
			case inject.ExpectValidation:
				if err := validateAll(ks); err == nil {
					t.Fatal("Validate accepted the faulted trace")
				}
				err := runFaulted(t, ks, false)
				se, ok := robust.AsSimError(err)
				if !ok || se.Kind != robust.KindValidation {
					t.Fatalf("AddStream error = %v, want validation SimError", err)
				}
			case inject.ExpectAddStream:
				if err := validateAll(ks); err != nil {
					t.Fatalf("fault should pass Validate, got %v", err)
				}
				err := runFaulted(t, ks, false)
				se, ok := robust.AsSimError(err)
				if !ok || se.Kind != robust.KindDeadlock {
					t.Fatalf("error = %v, want static deadlock SimError", err)
				}
				if se.Dump == nil {
					t.Fatal("static deadlock SimError carries no crash dump")
				}
			case inject.ExpectRuntime:
				err := runFaulted(t, ks, false)
				se, ok := robust.AsSimError(err)
				if !ok || se.Kind != robust.KindWatchdog {
					t.Fatalf("error = %v, want watchdog SimError", err)
				}
				if se.Dump == nil || len(se.Dump.SMs) == 0 {
					t.Fatal("watchdog SimError lacks a populated crash dump")
				}
			case inject.ExpectIntraSM:
				if err := runFaulted(t, ks, false); err != nil {
					t.Fatalf("whole-SM run failed: %v", err)
				}
				err := runFaulted(t, ks, true)
				se, ok := robust.AsSimError(err)
				if !ok || se.Kind != robust.KindDeadlock {
					t.Fatalf("intra-SM error = %v, want deadlock SimError", err)
				}
			case inject.ExpectTolerated:
				if err := runFaulted(t, ks, false); err != nil {
					t.Fatalf("tolerated fault failed the run: %v", err)
				}
			}
		})
	}
}

func TestConfigCatalogRejected(t *testing.T) {
	for _, cf := range inject.ConfigCatalog() {
		cf := cf
		t.Run(cf.Name, func(t *testing.T) {
			cfg := config.JetsonOrin()
			cf.Apply(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted the faulted config")
			}
			if _, err := gpu.New(cfg); err == nil {
				t.Fatal("gpu.New accepted the faulted config")
			}
		})
	}
}

// TestAddrFaultsDropLineTables: a fault that edits a warp's addresses must
// leave that warp without a line table (Warp.SetAddrs), so that a run which
// gets past validation derives lines from the edited addresses instead of
// replaying the ones the Builder derived; every other fault leaves the
// tables alone, and a clone keeps its original's.
func TestAddrFaultsDropLineTables(t *testing.T) {
	tabled := func(ks []*trace.Kernel) (with, without int) {
		for _, k := range ks {
			for c := range k.CTAs {
				for w := range k.CTAs[c].Warps {
					if k.CTAs[c].Warps[w].HasLineTable(trace.CacheLineSize) {
						with++
					} else {
						without++
					}
				}
			}
		}
		return
	}
	for _, f := range inject.Catalog() {
		ks := inject.CloneKernels(workload())
		if with, without := tabled(ks); with == 0 || without != 0 {
			t.Fatalf("a clone of a Builder-made workload has %d tabled warps and %d bare ones", with, without)
		}
		if !f.Apply(ks, rand.New(rand.NewSource(3))) {
			t.Fatalf("%s: fault not applicable to the test workload", f.Name)
		}
		_, without := tabled(ks)
		switch f.Name {
		case "addr-mismatch", "nonmem-addrs", "addr-arena-overrun":
			if without != 1 {
				t.Errorf("%s edits one warp's addresses and leaves %d warps without a line table", f.Name, without)
			}
		default:
			if without != 0 {
				t.Errorf("%s dropped the line table of %d warps", f.Name, without)
			}
		}
	}
}
