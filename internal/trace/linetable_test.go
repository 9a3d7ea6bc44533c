package trace

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"crisp/internal/isa"
)

// TestInstLayout pins the layout promise: an instruction is 12 bytes and
// holds no pointer, so a program is memory the garbage collector never
// scans, and nothing a warp's addresses decide.
func TestInstLayout(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n > 12 {
		t.Errorf("trace.Inst is %d bytes, want at most 12", n)
	}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %v: trace.Inst must stay pointer-free", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Inst{}), "Inst")

	// The line table is derived state the file does not carry: the same
	// kernel saves to the same bytes with its table and without.
	k := tinyKernel("k", 0)
	var with, without bytes.Buffer
	if err := Save(&with, []*Kernel{k}); err != nil {
		t.Fatal(err)
	}
	k.DropLineTable()
	if err := Save(&without, []*Kernel{k}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(with.Bytes(), without.Bytes()) {
		t.Error("the line table changes the bytes of a saved trace")
	}
}

// TestSizeBytesCountsLineArenas: the Frontend's budget is an exact capacity
// walk, so all of a warp's streams — line counts, lines and addresses —
// must be in it, and a program once however many warps share it.
func TestSizeBytesCountsLineArenas(t *testing.T) {
	k := tinyKernel("k", 0)
	w := &k.CTAs[0].Warps[0]
	if len(w.counts) != 1 || len(w.lines) != 1 || w.lineSize != CacheLineSize {
		t.Fatalf("tinyKernel's warp holds counts %v, lines %v at line size %d, want its one coalesced line at %d", w.counts, w.lines, w.lineSize, CacheLineSize)
	}
	if want := recHeader + 8; len(w.addrs) != want || cap(w.addrs) != want {
		t.Fatalf("tinyKernel's warp holds %d address bytes (cap %d), want its one affine record of %d", len(w.addrs), cap(w.addrs), want)
	}
	with := k.SizeBytes()
	table := int64(cap(w.counts)) + int64(cap(w.lines))*8
	k.DropLineTable()
	without := k.SizeBytes()
	if with-without != table {
		t.Errorf("SizeBytes counts %d bytes for a %d-byte line table", with-without, table)
	}
	arena := int64(cap(w.addrs))
	w.SetAddrs(1, nil) // a private program the size of the shared one, no records
	if bare := k.SizeBytes(); without-bare != arena {
		t.Errorf("SizeBytes counts %d bytes for a %d-byte address arena", without-bare, arena)
	}

	// Two warps of one program: the second adds its header and streams,
	// not another program.
	two := func(warps int) *Kernel {
		b := NewBuilder("k", KindCompute, 0, 2*isa.WarpSize, 16, 0)
		b.BeginCTA()
		for i := 0; i < warps; i++ {
			b.BeginWarp()
			b.ALU(isa.OpMOV, b.NewReg(), FullMask)
			addrs := make([]uint64, isa.WarpSize)
			for l := range addrs {
				addrs[l] = uint64(i<<12 + l*4)
			}
			b.Mem(isa.OpLDG, b.NewReg(), FullMask, addrs, ClassCompute)
		}
		return b.Finish()
	}
	one, shared := two(1), two(2)
	w0, w1 := &shared.CTAs[0].Warps[0], &shared.CTAs[0].Warps[1]
	if &w0.Insts[0] != &w1.Insts[0] {
		t.Fatal("two warps of one program hold two arrays")
	}
	streams := func(w *Warp) int64 { return int64(cap(w.addrs)) + int64(cap(w.counts)) + int64(cap(w.lines))*8 }
	if got, want := shared.SizeBytes()-one.SizeBytes(), streams(w1); got != want {
		t.Errorf("a second warp of the same program adds %d bytes, want its %d bytes of streams", got, want)
	}
	*w1 = w1.Clone()
	program := int64(cap(w1.Insts)) * int64(unsafe.Sizeof(Inst{}))
	if got, want := shared.SizeBytes()-one.SizeBytes(), streams(w1)+program; got != want {
		t.Errorf("a second warp with a program of its own adds %d bytes, want %d", got, want)
	}
}

// TestLineArenasAreCutFromOneArrayPerCTA: the line table's counts and
// lines and the address records cost one allocation each per CTA — the
// warps' streams lie back to back in an array of exactly their total size,
// each clipped to its own share.
func TestLineArenasAreCutFromOneArrayPerCTA(t *testing.T) {
	b := NewBuilder("k", KindCompute, 0, 4*isa.WarpSize, 16, 0)
	for c := 0; c < 40; c++ {
		b.BeginCTA()
		for w := 0; w < 4; w++ {
			b.BeginWarp()
			for i := 0; i < 5-w; i++ { // warps of unequal length, one with no memory op after it
				addrs := make([]uint64, isa.WarpSize)
				for l := range addrs {
					addrs[l] = uint64(w<<16 + i<<10 + l*64) // two lanes per 128-byte line
				}
				b.Mem(isa.OpLDG, b.NewReg(), FullMask, addrs, ClassCompute)
			}
			b.ALU(isa.OpFADD, b.NewReg(), FullMask)
		}
	}
	k := b.Finish()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	for c := range k.CTAs {
		warps := k.CTAs[c].Warps
		for i := range warps {
			w := &warps[i]
			if want := (5 - i) * 16; len(w.lines) != want || cap(w.lines) != want || w.lineSize != CacheLineSize {
				t.Errorf("CTA %d warp %d: arena len %d cap %d at line size %d, want %d with no slack", c, i, len(w.lines), cap(w.lines), w.lineSize, want)
			}
			if want := 5 - i; len(w.counts) != want || cap(w.counts) != want {
				t.Errorf("CTA %d warp %d: %d line counts (cap %d), want %d with no slack", c, i, len(w.counts), cap(w.counts), want)
			}
			// Stride-64 rows are affine: one 17-byte record per load.
			if want := (5 - i) * (recHeader + 8); len(w.addrs) != want || cap(w.addrs) != want {
				t.Errorf("CTA %d warp %d: address arena len %d cap %d, want %d with no slack", c, i, len(w.addrs), cap(w.addrs), want)
			}
			if i > 0 {
				prev := warps[i-1].lines
				if unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), len(prev)*8) != unsafe.Pointer(unsafe.SliceData(w.lines)) {
					t.Errorf("CTA %d warp %d: line arena does not follow warp %d's", c, i, i-1)
				}
				prevAddrs := warps[i-1].addrs
				if unsafe.Add(unsafe.Pointer(unsafe.SliceData(prevAddrs)), len(prevAddrs)) != unsafe.Pointer(unsafe.SliceData(w.addrs)) {
					t.Errorf("CTA %d warp %d: address arena does not follow warp %d's", c, i, i-1)
				}
				prevCounts := warps[i-1].counts
				if unsafe.Add(unsafe.Pointer(unsafe.SliceData(prevCounts)), len(prevCounts)) != unsafe.Pointer(unsafe.SliceData(w.counts)) {
					t.Errorf("CTA %d warp %d: line counts do not follow warp %d's", c, i, i-1)
				}
			}
		}
	}
	// One array per CTA and stream (counts, lines) plus the scratch they are
	// collected in, grown a few times per kernel — not one array per warp.
	if n := testing.AllocsPerRun(10, func() { k.deriveLineTable() }); n > float64(2*len(k.CTAs))+16 {
		t.Errorf("re-deriving %d CTAs' tables (%d warps) allocates %v times", len(k.CTAs), 4*len(k.CTAs), n)
	}
}

// TestValidateBoundsLineTable: Validate bounds-checks table entries (it
// runs on every warp a front end builds and must not re-derive them).
func TestValidateBoundsLineTable(t *testing.T) {
	k := tinyKernel("k", 0)
	w := &k.CTAs[0].Warps[0]
	for _, tc := range []struct {
		name   string
		break_ func()
	}{
		{"count past the lines", func() { w.counts = []uint8{7} }},
		{"lines cut short", func() { w.lines = w.lines[:0] }},
		{"no line for 32 addresses", func() { w.counts = []uint8{0} }},
		{"no entry for the LDG", func() { w.counts = nil }},
		{"an entry too many", func() { w.counts = append(slices.Clone(w.counts), 1) }},
	} {
		saveCounts, saveLines := w.counts, w.lines
		tc.break_()
		if err := k.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the trace", tc.name)
		}
		w.counts, w.lines = saveCounts, saveLines
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: restoring the entry did not restore validity: %v", tc.name, err)
		}
	}
	b := NewBuilder("s", KindCompute, 0, 32, 16, 64)
	b.BeginCTA()
	b.BeginWarp()
	b.Shared(isa.OpLDS, b.NewReg(), FullMask)
	ks := b.Finish()
	ks.CTAs[0].Warps[0].counts[0] = 0
	if err := ks.Validate(); err == nil {
		t.Error("Validate accepted a tabled LDS with no conflict degree")
	}
	ks.DropLineTable()
	if err := ks.Validate(); err != nil {
		t.Errorf("without a table the same instruction is a hand-built one and valid: %v", err)
	}
}
