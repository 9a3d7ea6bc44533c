package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"crisp/internal/isa"
)

// tinyKernel builds a minimal valid kernel: 1 CTA, 1 warp, ALU + load +
// EXIT.
func tinyKernel(name string, stream int) *Kernel {
	b := NewBuilder(name, KindCompute, stream, 64, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	r0 := b.NewReg()
	b.ALU(isa.OpMOV, r0, FullMask)
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(0x1000 + i*4)
	}
	r1 := b.NewReg()
	b.Mem(isa.OpLDG, r1, FullMask, addrs, ClassCompute, r0)
	b.ALU(isa.OpFADD, b.NewReg(), FullMask, r1, r0)
	return b.Finish()
}

func TestBuilderAppendsExit(t *testing.T) {
	k := tinyKernel("k", 0)
	w := k.CTAs[0].Warps[0]
	if w.Insts[len(w.Insts)-1].Op != isa.OpEXIT {
		t.Fatal("builder did not terminate warp with EXIT")
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesMissingAddrs(t *testing.T) {
	k := tinyKernel("k", 0)
	w := &k.CTAs[0].Warps[0]
	var lanes [isa.WarpSize]uint64
	w.SetAddrs(1, w.Addrs(w.CursorAt(1), &w.Insts[1], &lanes)[:5])
	if err := k.Validate(); err == nil {
		t.Fatal("Validate accepted address/lane mismatch")
	}
	w.SetAddrs(1, nil)
	if err := k.Validate(); err == nil {
		t.Fatal("Validate accepted a global load without addresses")
	}
}

func TestValidateCatchesEmptyMask(t *testing.T) {
	k := tinyKernel("k", 0)
	k.CTAs[0].Warps[0].Insts[0].Mask = 0
	if err := k.Validate(); err == nil {
		t.Fatal("Validate accepted empty mask")
	}
}

func TestValidateCatchesMissingExit(t *testing.T) {
	k := tinyKernel("k", 0)
	w := &k.CTAs[0].Warps[0]
	w.Insts = w.Insts[:len(w.Insts)-1]
	if err := k.Validate(); err == nil {
		t.Fatal("Validate accepted trace without EXIT")
	}
}

func TestValidateCatchesNoCTAs(t *testing.T) {
	k := &Kernel{Name: "empty", ThreadsPerCTA: 32}
	if err := k.Validate(); err == nil {
		t.Fatal("Validate accepted kernel without CTAs")
	}
}

func TestInstCounts(t *testing.T) {
	k := tinyKernel("k", 0)
	if got := k.InstCount(); got != 4 {
		t.Errorf("InstCount = %d, want 4", got)
	}
	if got := k.ThreadInstCount(); got != 4*32 {
		t.Errorf("ThreadInstCount = %d, want 128", got)
	}
}

func TestWarpsPerCTA(t *testing.T) {
	k := &Kernel{ThreadsPerCTA: 96}
	if k.WarpsPerCTA() != 3 {
		t.Errorf("WarpsPerCTA(96) = %d", k.WarpsPerCTA())
	}
	k.ThreadsPerCTA = 100
	if k.WarpsPerCTA() != 4 {
		t.Errorf("WarpsPerCTA(100) = %d", k.WarpsPerCTA())
	}
}

func TestOpHistogram(t *testing.T) {
	k := tinyKernel("k", 0)
	h := k.OpHistogram()
	if h[isa.OpMOV] != 1 || h[isa.OpLDG] != 1 || h[isa.OpFADD] != 1 || h[isa.OpEXIT] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestActiveLanes(t *testing.T) {
	in := Inst{Mask: 0x0000000F}
	if in.ActiveLanes() != 4 {
		t.Errorf("ActiveLanes = %d", in.ActiveLanes())
	}
	in.Mask = FullMask
	if in.ActiveLanes() != 32 {
		t.Errorf("ActiveLanes = %d", in.ActiveLanes())
	}
}

func TestTexLinesPerCTA(t *testing.T) {
	b := NewBuilder("tex", KindFragment, 0, 64, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	// 32 lanes hitting 2 distinct 128B lines.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64((i % 2) * 128)
	}
	b.Mem(isa.OpTEX, b.NewReg(), FullMask, addrs, ClassTexture)
	// Same lines again (no new lines), plus one new line.
	addrs2 := make([]uint64, 32)
	for i := range addrs2 {
		addrs2[i] = uint64((i % 2) * (128 + 256))
	}
	b.Mem(isa.OpTEX, b.NewReg(), FullMask, addrs2, ClassTexture)
	k := b.Finish()
	// Once from the line table, once — the table dropped — from the
	// expanded lanes.
	for _, source := range []string{"line table", "address records"} {
		lines := k.TexLinesPerCTA()
		if len(lines) != 1 {
			t.Fatalf("%s: lines len = %d", source, len(lines))
		}
		// Lines touched: 0, 128 from first; 0 and 384 from second → {0,1,3}.
		if lines[0] != 3 {
			t.Errorf("%s: TexLinesPerCTA = %d, want 3", source, lines[0])
		}
		k.DropLineTable()
	}
}

func TestBuilderPanicsOnMisuse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BeginWarp before BeginCTA did not panic")
		}
	}()
	b := NewBuilder("bad", KindCompute, 0, 32, 16, 0)
	b.BeginWarp()
}

func TestBuilderALURejectsMemOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ALU(LDG) did not panic")
		}
	}()
	b := NewBuilder("bad", KindCompute, 0, 32, 16, 0)
	b.BeginCTA()
	b.BeginWarp()
	b.ALU(isa.OpLDG, b.NewReg(), FullMask)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ks := []*Kernel{tinyKernel("a", 1), tinyKernel("b", 2)}
	var buf bytes.Buffer
	if err := Save(&buf, ks); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d kernels", len(got))
	}
	for i := range got {
		if got[i].Name != ks[i].Name || got[i].Stream != ks[i].Stream {
			t.Errorf("kernel %d identity mismatch", i)
		}
		if got[i].InstCount() != ks[i].InstCount() {
			t.Errorf("kernel %d inst count mismatch", i)
		}
		if err := got[i].Validate(); err != nil {
			t.Errorf("kernel %d invalid after round trip: %v", i, err)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := t.TempDir() + "/trace.bin"
	ks := []*Kernel{tinyKernel("f", 7)}
	if err := SaveFile(path, ks); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if len(got) != 1 || got[0].Name != "f" {
		t.Fatal("file round trip mismatch")
	}
}

func TestMemClassString(t *testing.T) {
	for c := MemClass(0); c < MemClassCount; c++ {
		if c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
	}
}

func TestKernelKind(t *testing.T) {
	if !KindVertex.IsGraphics() || !KindFragment.IsGraphics() || KindCompute.IsGraphics() {
		t.Error("IsGraphics misclassifies")
	}
	for _, k := range []KernelKind{KindCompute, KindVertex, KindFragment} {
		if k.String() == "" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestLoadRejectsVersionMismatch(t *testing.T) {
	ks := []*Kernel{tinyKernel("v", 1)}
	var buf bytes.Buffer
	if err := Save(&buf, ks); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version field inside the gzip envelope.
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// The first four bytes are the version; flip a bit of its revision.
	raw[3] ^= 0x40
	var tampered bytes.Buffer
	zw := gzip.NewWriter(&tampered)
	zw.Write(raw)
	zw.Close()
	if _, err := Load(&tampered); err == nil {
		t.Fatal("version-tampered trace accepted")
	}
}

// TestLoadRefusesRevision1 is the migration test: testdata holds a trace
// the last gob-writing build saved. No reader for it is kept; it must be
// refused with the re-collect message, not misread.
func TestLoadRefusesRevision1(t *testing.T) {
	_, err := LoadFile("testdata/revision1.trace.gz")
	if err == nil || !strings.Contains(err.Error(), "re-collected") {
		t.Fatalf("loading a revision-1 (gob) trace: %v, want the format-version error that says to re-collect", err)
	}
}

// TestBuilderSharesOneArrayPerProgram: a kernel's warps mostly run one
// program, so the Builder builds each warp's in one reused array and gives
// every warp of the kernel that ran the same program one exactly-sized copy
// — across CTAs too — and a warp that differs in any field its own. Once its
// scratch has grown, a warp of a known program allocates nothing.
func TestBuilderSharesOneArrayPerProgram(t *testing.T) {
	const warps, insts = 8, 37
	emit := func(b *Builder, mask uint32) {
		b.BeginWarp()
		for i := 0; i < insts; i++ {
			b.ALU(isa.OpFADD, b.NewReg(), mask)
		}
	}
	b := NewBuilder("k", KindCompute, 0, warps*isa.WarpSize, 16, 0)
	b.BeginCTA()
	for i := 0; i < warps; i++ {
		emit(b, FullMask) // grows the scratch to a CTA's worth
	}
	b.BeginCTA()
	if perWarp := testing.AllocsPerRun(warps-1, func() { emit(b, FullMask) }); perWarp != 0 {
		t.Errorf("a warp of a known %d-instruction program took %v allocations, want 0", insts, perWarp)
	}
	b.BeginCTA()
	emit(b, FullMask>>1)
	k := b.Finish()
	first := &k.CTAs[0].Warps[0].Insts[0]
	for c := 0; c < 2; c++ {
		for i, w := range k.CTAs[c].Warps {
			if len(w.Insts) != insts+1 || cap(w.Insts) != len(w.Insts) { // + EXIT
				t.Fatalf("CTA %d warp %d: %d instructions, cap %d", c, i, len(w.Insts), cap(w.Insts))
			}
			if &w.Insts[0] != first {
				t.Errorf("CTA %d warp %d runs the kernel's one program from an array of its own", c, i)
			}
		}
	}
	if got := cap(k.CTAs[0].Warps); got != warps {
		t.Errorf("CTA holds room for %d warps, its kernel launches %d", got, warps)
	}
	if other := &k.CTAs[2].Warps[0]; &other.Insts[0] == first || other.Insts[0].Mask != FullMask>>1 {
		t.Error("a warp under another mask shares the full-mask program")
	}
	if m, u := marks(k); m != 2*warps+1 || u != 0 {
		t.Errorf("%d marked, %d unmarked warps", m, u)
	}

	// Length, registers, class and the record flag each tell programs apart.
	b = NewBuilder("k", KindCompute, 0, 8*isa.WarpSize, 16, 64)
	b.BeginCTA()
	addrs := make([]uint64, isa.WarpSize)
	variants := []func(){
		func() { b.ALU(isa.OpFADD, b.NewReg(), FullMask) },
		func() { b.ALU(isa.OpFADD, b.NewReg(), FullMask); b.ALU(isa.OpFADD, b.NewReg(), FullMask) },
		func() { b.NewReg(); b.ALU(isa.OpFADD, b.NewReg(), FullMask) },
		func() { b.Mem(isa.OpLDG, b.NewReg(), FullMask, addrs, ClassCompute) },
		func() { b.Mem(isa.OpLDG, b.NewReg(), FullMask, addrs, ClassTexture) },
		func() { b.Shared(isa.OpSTS, isa.RegNone, FullMask) },
		func() { b.SharedAddr(isa.OpSTS, isa.RegNone, FullMask, addrs) },
	}
	for _, v := range variants {
		b.BeginWarp()
		v()
	}
	seen := map[*Inst]bool{}
	for _, w := range b.Finish().CTAs[0].Warps {
		seen[&w.Insts[0]] = true
	}
	if len(seen) != len(variants) {
		t.Errorf("%d variants share %d arrays", len(variants), len(seen))
	}
}

// marks counts a kernel's warps with and without the validation mark.
func marks(k *Kernel) (marked, unmarked int) {
	for i := range k.CTAs {
		for j := range k.CTAs[i].Warps {
			if k.CTAs[i].Warps[j].marked() {
				marked++
			} else {
				unmarked++
			}
		}
	}
	return marked, unmarked
}

// TestValidationMarkLifecycle: Builder.Finish and Load return marked warps;
// a clone, SetAddrs and a replaced or truncated instruction list leave a
// warp unmarked, and Check walks exactly the unmarked ones. The mark is the
// warp's: of two warps sharing a program, one can lose it and the other
// keep it.
func TestValidationMarkLifecycle(t *testing.T) {
	k := tinyKernel("k", 0)
	if m, u := marks(k); m != 1 || u != 0 {
		t.Fatalf("Builder.Finish: %d marked, %d unmarked warps", m, u)
	}
	var buf bytes.Buffer
	if err := Save(&buf, []*Kernel{k}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m, u := marks(loaded[0]); m != 1 || u != 0 {
		t.Fatalf("Load: %d marked, %d unmarked warps", m, u)
	}

	w := &k.CTAs[0].Warps[0]
	if c := w.Clone(); c.marked() {
		t.Error("a clone kept the validation mark")
	}
	moved := *w
	moved.Insts = append([]Inst(nil), w.Insts...)
	if moved.marked() {
		t.Error("a warp whose instruction list was replaced kept the mark")
	}
	truncated := *w
	truncated.Insts = w.Insts[:len(w.Insts)-1]
	if truncated.marked() {
		t.Error("a truncated warp kept the mark")
	}
	var lanes [isa.WarpSize]uint64
	w.SetAddrs(1, w.Addrs(w.CursorAt(1), &w.Insts[1], &lanes))
	if w.marked() {
		t.Error("SetAddrs kept the mark")
	}

	// Check trusts the mark and walks the rest; Validate walks everything.
	k = tinyKernel("k", 0)
	k.CTAs[0].Warps[0].Insts[0].Mask = 0 // an in-place edit the mark cannot see
	if err := k.Check(); err != nil {
		t.Errorf("Check walked a marked warp: %v", err)
	}
	if err := k.Validate(); err == nil {
		t.Error("Validate skipped a marked warp")
	}
	k.CTAs[0].Warps[0] = k.CTAs[0].Warps[0].Clone()
	if err := k.Check(); err == nil {
		t.Error("Check accepted an unmarked warp with an empty mask")
	}

	// Two warps of one program, one of them re-homed onto a copy and broken
	// there: only it is walked, and only it fails.
	b := NewBuilder("two", KindCompute, 0, 64, 8, 0)
	b.BeginCTA()
	for i := 0; i < 2; i++ {
		b.BeginWarp()
		b.ALU(isa.OpMOV, b.NewReg(), FullMask)
	}
	two := b.Finish()
	broken, kept := &two.CTAs[0].Warps[0], &two.CTAs[0].Warps[1]
	*broken = broken.Clone()
	broken.Insts[0].Mask = 0
	if broken.marked() || !kept.marked() || kept.Insts[0].Mask != FullMask {
		t.Error("breaking a clone of one warp reached its sibling's program or mark")
	}
	if err := two.Check(); err == nil || !strings.Contains(err.Error(), "warp 0") {
		t.Errorf("Check: %v, want the empty mask of warp 0", err)
	}

	// A warp that fails validation where it is built is not marked.
	b = NewBuilder("bad", KindCompute, 0, 32, 8, 0)
	b.BeginCTA()
	b.BeginWarp()
	b.ALU(isa.OpMOV, b.NewReg(), 0)
	bad := b.Finish()
	if m, _ := marks(bad); m != 0 {
		t.Fatal("a warp with an empty mask was marked")
	}
	if err := bad.Check(); err == nil {
		t.Error("Check accepted a Builder warp with an empty mask")
	}
}
