package trace

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"crisp/internal/isa"
)

// maskOf returns a mask of n active lanes: the low n when dense, else n
// lanes scattered over the warp (every third, wrapping).
func maskOf(n int, dense bool) uint32 {
	if dense {
		return uint32(uint64(1)<<n - 1)
	}
	var m uint32
	for lane := 0; bits.OnesCount32(m) < n; lane = (lane + 3) % isa.WarpSize {
		m |= 1 << lane
	}
	return m
}

// recordKernel is one LDG and one STS over the same addrs under mask,
// between two ALU instructions.
func recordKernel(mask uint32, addrs []uint64) *Kernel {
	b := NewBuilder("rec", KindCompute, 0, isa.WarpSize, 16, 64)
	b.BeginCTA()
	b.BeginWarp()
	b.ALU(isa.OpMOV, b.NewReg(), mask)
	b.Mem(isa.OpLDG, b.NewReg(), mask, addrs, ClassCompute)
	b.SharedAddr(isa.OpSTS, isa.RegNone, mask, addrs)
	b.ALU(isa.OpFADD, b.NewReg(), mask)
	return b.Finish()
}

// TestAddrRecordForms is the record's table: one row per address form ×
// {1, 7, 32 lanes} × {dense, scattered mask}, and on each row's one object
// every predicate — the form the Builder picks and the record's length, the
// lanes it expands to, the line-table entries against a fresh derivation of
// the expansion, Validate, a Save/Load round trip, and that every byte which
// determines where a record lies and how long it is (its form byte, the
// mask, which instructions own one) is checked by Validate.
func TestAddrRecordForms(t *testing.T) {
	// One lane has no step, so it packs to a bare Δ8 header; one stride
	// packs affine once that is no longer than its deltas (7 one-byte steps
	// are 15 bytes, an affine record 17).
	type pattern struct {
		name  string
		forms [3]AddrForm // at 1, 7 and 32 lanes
		at    func(i int) uint64
	}
	patterns := []pattern{
		{"broadcast", [3]AddrForm{FormDelta8, FormDelta8, FormAffine}, func(int) uint64 { return 0x7000 }},
		{"unit stride", [3]AddrForm{FormDelta8, FormDelta8, FormAffine}, func(i int) uint64 { return 0x1000 + uint64(i)*4 }},
		{"descending rows", [3]AddrForm{FormDelta8, FormAffine, FormAffine}, func(i int) uint64 { return 1<<40 - uint64(i)*4096 }},
		{"byte steps", [3]AddrForm{FormDelta8, FormDelta8, FormDelta8}, func(i int) uint64 { return 0x2000 + uint64(i*i%11)*8 + uint64(i)*4 }},
		{"backward byte steps", [3]AddrForm{FormDelta8, FormDelta8, FormDelta8}, func(i int) uint64 { return 0x9000 - uint64(i*(i+1)/2) }},
		{"row gather", [3]AddrForm{FormDelta8, FormDelta16, FormDelta16}, func(i int) uint64 { return 0x40000 + uint64(i%4)*5120 + uint64(i)*4 }},
		{"plane gather", [3]AddrForm{FormDelta8, FormDelta32, FormDelta32}, func(i int) uint64 { return 1<<33 + uint64(i%3)<<24 + uint64(i)*16 }},
		{"address-space hops", [3]AddrForm{FormDelta8, FormDelta64, FormDelta64}, func(i int) uint64 { return uint64(i%2)<<44 + uint64(i)*128 }},
	}
	for _, p := range patterns {
		for li, lanes := range []int{1, 7, 32} {
			for _, dense := range []bool{true, false} {
				if lanes == isa.WarpSize && !dense {
					continue // 32 lanes are the full mask either way
				}
				name := fmt.Sprintf("%s/%d lanes/dense=%v", p.name, lanes, dense)
				mask := maskOf(lanes, dense)
				addrs := make([]uint64, lanes)
				for i := range addrs {
					addrs[i] = p.at(i)
				}
				wantForm := p.forms[li]
				wantLen, _ := recordLen(wantForm, lanes)

				k := recordKernel(mask, addrs)
				w := &k.CTAs[0].Warps[0]
				ldg, sts := &w.Insts[1], &w.Insts[2]
				atLDG, atSTS := w.CursorAt(1), w.CursorAt(2)

				// Encode: the form picked, the length it implies.
				c := k.AddrCensus()
				if c.Records[wantForm] != 2 || c.Bytes[wantForm] != 2*wantLen || len(w.addrs) != 2*wantLen {
					t.Errorf("%s: census %+v over a %d-byte arena, want two %v records of %d bytes", name, c, len(w.addrs), wantForm, wantLen)
					continue
				}
				// Expand: the lanes that went in.
				var buf [isa.WarpSize]uint64
				if got := w.Addrs(atLDG, ldg, &buf); !slices.Equal(got, addrs) {
					t.Errorf("%s: the LDG expands to %#x, packed %#x", name, got, addrs)
				}
				if got := w.Addrs(atSTS, sts, &buf); !slices.Equal(got, addrs) {
					t.Errorf("%s: the STS expands to %#x, packed %#x", name, got, addrs)
				}
				if got := w.Addrs(Cursor{}, &w.Insts[0], &buf); got != nil {
					t.Errorf("%s: the MOV expands to %#x", name, got)
				}
				// Table: what the expansion derives to.
				ok := w.HasLineTable(CacheLineSize)
				if want := Coalesce(nil, addrs, CacheLineSize); !ok || !slices.Equal(w.Lines(atLDG), want) {
					t.Errorf("%s: tabled lines %v (table %v), the lanes coalesce to %v", name, w.Lines(atLDG), ok, want)
				}
				if want := BankConflictDegree(addrs); w.ConflictDegree(atSTS) != want {
					t.Errorf("%s: tabled conflict degree %d, the lanes give %d", name, w.ConflictDegree(atSTS), want)
				}
				if err := k.Validate(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				// Codec: the file gives back the same records and tables.
				var file bytes.Buffer
				if err := Save(&file, []*Kernel{k}); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&file)
				if err != nil {
					t.Errorf("%s: Load: %v", name, err)
				} else if lw := &loaded[0].CTAs[0].Warps[0]; !bytes.Equal(lw.addrs, w.addrs) || !slices.Equal(lw.Insts, w.Insts) ||
					!slices.Equal(lw.counts, w.counts) || !slices.Equal(lw.lines, w.lines) {
					t.Errorf("%s: the loaded warp differs from the built one", name)
				}

				// Every length-determining byte is Validate's to check.
				breaks := map[string]func(){
					"shared record disowned": func() { sts.rec = false },
					"record disowned":        func() { ldg.rec = false },
					"unknown form":           func() { w.addrs[0] = byte(AddrFormCount) },
					"arena cut short":        func() { w.addrs = w.addrs[:len(w.addrs)-1] },
					"arena overlong":         func() { w.addrs = append(slices.Clone(w.addrs), 0) },
					"non-memory owner":       func() { w.Insts[3].rec = true },
				}
				for f := FormAffine; f < AddrFormCount; f++ {
					if n, _ := recordLen(f, lanes); n != wantLen {
						breaks[fmt.Sprintf("form byte %v", f)] = func() { w.addrs[0] = byte(f) }
					}
				}
				if lanes > 1 && wantForm != FormAffine {
					breaks["mask a lane short"] = func() { ldg.Mask &= ldg.Mask - 1 }
				}
				if lanes < isa.WarpSize && wantForm != FormAffine {
					breaks["mask a lane long"] = func() { ldg.Mask |= ^ldg.Mask & -^ldg.Mask }
				}
				for what, break_ := range breaks {
					saved := w.Clone()
					break_()
					if err := k.Validate(); err == nil {
						t.Errorf("%s: %s: Validate accepted the warp", name, what)
					}
					*w = saved
					ldg, sts = &w.Insts[1], &w.Insts[2]
				}
				if err := k.Validate(); err != nil {
					t.Fatalf("%s: restoring the warp did not restore validity: %v", name, err)
				}
			}
		}
	}
}

// TestAddrRecordFormsDecodeAtAnyLaneCount: the Builder never writes an
// affine record for one lane or a wide form where a narrow one fits, but a
// file may; every form decodes at every lane count.
func TestAddrRecordFormsDecodeAtAnyLaneCount(t *testing.T) {
	for f := FormAffine; f < AddrFormCount; f++ {
		for _, lanes := range []int{1, 7, 32} {
			addrs := make([]uint64, lanes)
			for i := range addrs {
				addrs[i] = 0x5000 - uint64(i)*12
			}
			w := Warp{Insts: []Inst{{Op: isa.OpLDG, Mask: maskOf(lanes, false), rec: true}}}
			w.addrs = appendRecord(nil, f, addrs)
			if n, _ := recordLen(f, lanes); n != len(w.addrs) {
				t.Errorf("%v × %d lanes: packed %d bytes, recordLen says %d", f, lanes, len(w.addrs), n)
			}
			var buf [isa.WarpSize]uint64
			if got := w.Addrs(Cursor{}, &w.Insts[0], &buf); !slices.Equal(got, addrs) {
				t.Errorf("%v × %d lanes: expands to %#x, packed %#x", f, lanes, got, addrs)
			}
		}
	}
}

// TestSetAddrsRepacksTheWarp: SetAddrs replaces one instruction's record,
// keeps the others', leaves the warp valid when the new list matches the
// mask, and drops only that warp's line table; a warp whose program is
// shared gets one of its own, and its siblings keep theirs untouched.
func TestSetAddrsRepacksTheWarp(t *testing.T) {
	addrs := make([]uint64, isa.WarpSize)
	for i := range addrs {
		addrs[i] = 0x3000 + uint64(i*i)*4
	}
	k := recordKernel(FullMask, addrs)
	w := &k.CTAs[0].Warps[0]
	row := make([]uint64, isa.WarpSize)
	for i := range row {
		row[i] = 0x8000 + uint64(i)*4
	}
	w.SetAddrs(1, row) // the first record shrinks from Δ16 to affine; the second must move up
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf [isa.WarpSize]uint64
	if got := w.Addrs(w.CursorAt(1), &w.Insts[1], &buf); !slices.Equal(got, row) {
		t.Errorf("the edited LDG expands to %#x, want %#x", got, row)
	}
	if got := w.Addrs(w.CursorAt(2), &w.Insts[2], &buf); !slices.Equal(got, addrs) {
		t.Errorf("the untouched STS expands to %#x, want %#x", got, addrs)
	}
	if w.HasLineTable(CacheLineSize) {
		t.Error("SetAddrs left the warp's line table in place")
	}
	// A mismatched list stays visible to Validate even when it is a row an
	// affine record could hold.
	w.SetAddrs(1, row[:31])
	if err := k.Validate(); err == nil {
		t.Error("Validate accepted 31 addresses under a 32-lane mask")
	}

	b := NewBuilder("shared", KindCompute, 0, 2*isa.WarpSize, 16, 64)
	b.BeginCTA()
	for i := 0; i < 2; i++ {
		b.BeginWarp()
		b.Mem(isa.OpLDG, b.NewReg(), FullMask, addrs, ClassCompute)
		b.SharedAddr(isa.OpSTS, isa.RegNone, FullMask, row)
	}
	k = b.Finish()
	edited, sibling := &k.CTAs[0].Warps[0], &k.CTAs[0].Warps[1]
	if &edited.Insts[0] != &sibling.Insts[0] {
		t.Fatal("two warps of one program hold two arrays")
	}
	program := slices.Clone(sibling.Insts)
	edited.SetAddrs(1, nil) // the STS loses its offsets, and its record flag with them
	if &edited.Insts[0] == &sibling.Insts[0] || edited.Insts[1].HasAddrs() {
		t.Error("SetAddrs edited the shared program instead of a copy")
	}
	if !slices.Equal(sibling.Insts, program) || !sibling.marked() || !sibling.HasLineTable(CacheLineSize) {
		t.Error("SetAddrs on one warp changed its sibling's program, mark or table")
	}
	if got := sibling.Addrs(sibling.CursorAt(1), &sibling.Insts[1], &buf); !slices.Equal(got, row) {
		t.Errorf("the sibling's STS expands to %#x, want %#x", got, row)
	}
	if err := k.Validate(); err != nil {
		t.Errorf("an STS without offsets beside its sibling's: %v", err)
	}
}
