package trace

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"crisp/internal/isa"
)

// TestInstLayout pins the layout promise: an instruction is at most 24
// bytes (20 today) and holds no pointer, so a warp's instruction array is
// memory the garbage collector never scans.
func TestInstLayout(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n > 24 {
		t.Errorf("trace.Inst is %d bytes, want at most 24", n)
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
// walk, so both of a warp's arenas — lines and addresses — must be in it.
func TestSizeBytesCountsLineArenas(t *testing.T) {
	k := tinyKernel("k", 0)
	w := &k.CTAs[0].Warps[0]
	if len(w.lines) != 1 || w.lineSize != CacheLineSize {
		t.Fatalf("tinyKernel's warp holds lines %v at line size %d, want its one coalesced line at %d", w.lines, w.lineSize, CacheLineSize)
	}
	if want := recHeader + 8; len(w.addrs) != want || cap(w.addrs) != want {
		t.Fatalf("tinyKernel's warp holds %d address bytes (cap %d), want its one affine record of %d", len(w.addrs), cap(w.addrs), want)
	}
	with := k.SizeBytes()
	arena := int64(cap(w.lines)) * 8
	k.DropLineTable()
	without := k.SizeBytes()
	if with-without != arena {
		t.Errorf("SizeBytes counts %d bytes for a %d-byte line arena", with-without, arena)
	}
	arena = int64(cap(w.addrs))
	w.SetAddrs(1, nil)
	if bare := k.SizeBytes(); without-bare != arena {
		t.Errorf("SizeBytes counts %d bytes for a %d-byte address arena", without-bare, arena)
	}
}

// TestLineArenasAreCutFromOneArrayPerCTA: the line table and the address
// records cost one allocation each per CTA — the warps' arenas lie back to
// back in an array of exactly their total size, each clipped to its own
// share.
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
			}
		}
	}
	// One array per CTA plus the scratch the lines are collected in, grown
	// a few times per kernel — not one array per warp.
	if n := testing.AllocsPerRun(10, func() { k.deriveLineTable() }); n > float64(len(k.CTAs))+16 {
		t.Errorf("re-deriving %d CTAs' tables (%d warps) allocates %v times", len(k.CTAs), 4*len(k.CTAs), n)
	}
}

// TestValidateBoundsLineTable: Validate bounds-checks table entries (it
// runs on every warp a front end builds and must not re-derive them).
func TestValidateBoundsLineTable(t *testing.T) {
	k := tinyKernel("k", 0)
	w := &k.CTAs[0].Warps[0]
	ldg := &w.Insts[1]
	for _, tc := range []struct {
		name   string
		break_ func()
	}{
		{"offset past the arena", func() { ldg.lineOff = 7 }},
		{"arena cut short", func() { w.lines = w.lines[:0] }},
		{"no line for 32 addresses", func() { ldg.nLines = 0 }},
	} {
		saveInst, saveLines := *ldg, w.lines
		tc.break_()
		if err := k.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the trace", tc.name)
		}
		*ldg, w.lines = saveInst, saveLines
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: restoring the entry did not restore validity: %v", tc.name, err)
		}
	}
	b := NewBuilder("s", KindCompute, 0, 32, 16, 64)
	b.BeginCTA()
	b.BeginWarp()
	b.Shared(isa.OpLDS, b.NewReg(), FullMask)
	ks := b.Finish()
	ks.CTAs[0].Warps[0].Insts[0].conflict = 0
	if err := ks.Validate(); err == nil {
		t.Error("Validate accepted a tabled LDS with no conflict degree")
	}
	ks.DropLineTable()
	if err := ks.Validate(); err != nil {
		t.Errorf("without a table the same instruction is a hand-built one and valid: %v", err)
	}
}
