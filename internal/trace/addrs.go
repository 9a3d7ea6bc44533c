package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"crisp/internal/isa"
)

// This file is the address record: how a memory instruction's per-lane
// addresses are kept, in memory and in a trace file alike.
//
// The timing model reads the line table (linetable.go); the lanes themselves
// are wanted only by the -no-skip oracle, a config with a foreign line size,
// and tools. So they are not a []uint64 per instruction but one packed record
// in a byte arena per warp, the records lying back to back in instruction
// order, where a Cursor finds them (an instruction holds only a flag saying
// it owns the next one, so warps with different addresses share a program):
//
//	form byte | base, 8 bytes | one 8-byte stride         (FormAffine)
//	form byte | base, 8 bytes | lanes-1 signed deltas     (FormDelta8…64)
//
// all little-endian. The base is the first active lane's address; a delta is
// the step from one active lane to the next, every delta of a record at the
// narrowest width that holds them all. The lane count is not stored — it is
// the popcount of the instruction's mask — so a record's length follows from
// its form byte and the mask, and any payload decodes to exactly that many
// addresses. Warp.Addrs is the one way back to lanes.

// AddrForm names how an address record packs its lanes.
type AddrForm uint8

const (
	// FormAffine is base + i·stride: unit-stride rows, broadcasts.
	FormAffine AddrForm = iota
	// FormDelta8 to FormDelta64 are lane-to-lane deltas of 1, 2, 4, 8 bytes.
	FormDelta8
	FormDelta16
	FormDelta32
	FormDelta64
	// AddrFormCount is the number of AddrForm values.
	AddrFormCount
)

var addrFormNames = [...]string{FormAffine: "affine", FormDelta8: "Δ8", FormDelta16: "Δ16", FormDelta32: "Δ32", FormDelta64: "Δ64"}

func (f AddrForm) String() string {
	if int(f) < len(addrFormNames) {
		return addrFormNames[f]
	}
	return fmt.Sprintf("AddrForm(%d)", uint8(f))
}

// recHeader is the form byte and the base.
const recHeader = 1 + 8

// recordLen is the length of a record of form f under a mask of lanes lanes;
// ok is false for a form byte that names no form.
func recordLen(f AddrForm, lanes int) (n int, ok bool) {
	switch {
	case f == FormAffine:
		return recHeader + 8, true
	case f <= FormDelta64:
		return recHeader + max(lanes-1, 0)<<(f-FormDelta8), true
	}
	return 0, false
}

// classify reports the narrowest delta form that holds addrs' lane-to-lane
// steps, and whether the steps are all one stride.
func classify(addrs []uint64) (delta AddrForm, uniform bool) {
	uniform = true
	var mag uint64 // every step's magnitude bits, sign folded away
	for i := 1; i < len(addrs); i++ {
		d := int64(addrs[i] - addrs[i-1])
		uniform = uniform && d == int64(addrs[1]-addrs[0])
		mag |= uint64(d ^ d>>63)
	}
	switch n := bits.Len64(mag) + 1; { // + the sign bit
	case n <= 8:
		return FormDelta8, uniform
	case n <= 16:
		return FormDelta16, uniform
	case n <= 32:
		return FormDelta32, uniform
	}
	return FormDelta64, uniform
}

// pickForm chooses the shortest record for addrs, the affine one on a tie.
func pickForm(addrs []uint64) AddrForm {
	delta, uniform := classify(addrs)
	if n, _ := recordLen(delta, len(addrs)); uniform && n >= recHeader+8 {
		return FormAffine
	}
	return delta
}

// appendRecord packs addrs (at least one) onto arena in form f, which must
// hold them: FormAffine needs one stride, a delta form steps that fit.
func appendRecord(arena []byte, f AddrForm, addrs []uint64) []byte {
	arena = append(arena, byte(f))
	arena = binary.LittleEndian.AppendUint64(arena, addrs[0])
	if f == FormAffine {
		var stride uint64
		if len(addrs) > 1 {
			stride = addrs[1] - addrs[0]
		}
		return binary.LittleEndian.AppendUint64(arena, stride)
	}
	for i := 1; i < len(addrs); i++ {
		d := addrs[i] - addrs[i-1]
		switch f {
		case FormDelta8:
			arena = append(arena, byte(d))
		case FormDelta16:
			arena = binary.LittleEndian.AppendUint16(arena, uint16(d))
		case FormDelta32:
			arena = binary.LittleEndian.AppendUint32(arena, uint32(d))
		default:
			arena = binary.LittleEndian.AppendUint64(arena, d)
		}
	}
	return arena
}

// record returns the bytes of the address record at byte off of the warp's
// arena, as long as its form byte and in's mask say, or ok false when the
// form byte names no form or the record does not lie inside the arena.
func (w *Warp) record(off int, in *Inst) (rec []byte, ok bool) {
	if off < 0 || off >= len(w.addrs) {
		return nil, false
	}
	n, ok := recordLen(AddrForm(w.addrs[off]), in.ActiveLanes())
	if !ok || n > len(w.addrs)-off {
		return nil, false
	}
	return w.addrs[off : off+n], true
}

// HasAddrs reports whether in carries per-lane addresses.
func (in *Inst) HasAddrs() bool { return in.rec }

// AddrCensus counts a trace's address records and their bytes by form.
type AddrCensus struct {
	Records, Bytes [AddrFormCount]int
}

// Add folds o into c.
func (c *AddrCensus) Add(o AddrCensus) {
	for f := range c.Records {
		c.Records[f] += o.Records[f]
		c.Bytes[f] += o.Bytes[f]
	}
}

// AddrCensus takes the census of k's address records.
func (k *Kernel) AddrCensus() (c AddrCensus) {
	for i := range k.CTAs {
		for j := range k.CTAs[i].Warps {
			w := &k.CTAs[i].Warps[j]
			var cur Cursor
			for l := range w.Insts {
				in := &w.Insts[l]
				if rec, ok := w.recordAt(cur, in); ok {
					c.Records[rec[0]]++
					c.Bytes[rec[0]] += len(rec)
				}
				cur = w.Next(cur, in)
			}
		}
	}
	return c
}

// Addrs expands the address record of in, the instruction of w at cursor c,
// into buf and returns the addresses of in's active lanes, in ascending lane
// order; nil when in carries none (or a record that does not lie inside w's
// arena, which Validate rejects).
func (w *Warp) Addrs(c Cursor, in *Inst, buf *[isa.WarpSize]uint64) []uint64 {
	rec, ok := w.recordAt(c, in)
	out := buf[:in.ActiveLanes()]
	if !ok || len(out) == 0 {
		return nil
	}
	a := binary.LittleEndian.Uint64(rec[1:])
	out[0] = a
	p := rec[recHeader:]
	switch AddrForm(rec[0]) {
	case FormAffine:
		stride := binary.LittleEndian.Uint64(p)
		for i := 1; i < len(out); i++ {
			a += stride
			out[i] = a
		}
	case FormDelta8:
		for i := 1; i < len(out); i++ {
			a += uint64(int8(p[i-1]))
			out[i] = a
		}
	case FormDelta16:
		for i := 1; i < len(out); i++ {
			a += uint64(int16(binary.LittleEndian.Uint16(p[2*i-2:])))
			out[i] = a
		}
	case FormDelta32:
		for i := 1; i < len(out); i++ {
			a += uint64(int32(binary.LittleEndian.Uint32(p[4*i-4:])))
			out[i] = a
		}
	case FormDelta64:
		for i := 1; i < len(out); i++ {
			a += binary.LittleEndian.Uint64(p[8*i-8:])
			out[i] = a
		}
	}
	return out
}

// SetAddrs gives instruction i of the warp the per-lane addresses addrs —
// none when addrs is empty — by re-packing the warp's arena around the new
// record, and drops the warp's line table so that a run derives lines from
// the addresses as they now are. The warp gets a program of its own first:
// the one it had may be shared, and stays as it was. It is the slow path of
// tests, tools and fault injection, which is why it takes what Builder.Mem
// refuses: an instruction that is not a memory one, and a list that does not
// match the instruction's mask. Such a list is packed in a delta form, the
// only kind of record whose length can disagree with a mask (an affine
// record decodes to as many lanes as it is asked for), so Validate sees the
// mismatch. The warp loses its validation mark: Check walks it again.
func (w *Warp) SetAddrs(i int, addrs []uint64) {
	prog := make([]Inst, len(w.Insts))
	copy(prog, w.Insts)
	var arena []byte
	var c Cursor
	for l := range w.Insts {
		in := &w.Insts[l]
		switch {
		case l == i:
			prog[l].rec = len(addrs) > 0
			if len(addrs) > 0 {
				f := pickForm(addrs)
				if len(addrs) != in.ActiveLanes() {
					f, _ = classify(addrs)
				}
				arena = appendRecord(arena, f, addrs)
			}
		case in.rec:
			rec, ok := w.recordAt(c, in)
			if !ok {
				// A record that does not fit keeps not fitting: the rest of
				// the arena goes along as it was.
				rec = w.addrs[c.addr:]
			}
			arena = append(arena, rec...)
		}
		c = w.Next(c, in)
	}
	w.Insts, w.addrs, w.counts, w.lines, w.lineSize, w.valid = prog, arena, nil, nil, 0, nil
}
