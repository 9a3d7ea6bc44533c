// Package tracetest holds the canonical trace digest the determinism tests
// of the front ends and of core.Frontend share.
package tracetest

import (
	"bytes"

	"crisp/internal/isa"
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

// Fold hashes everything the timing model reads from a trace: kernel
// headers, the CTA/warp structure, and every instruction's opcode,
// registers, mask, class and per-lane addresses, expanded from the packed
// records — so the digests recorded when traces held one []uint64 per
// instruction prove the packing lossless. Slice capacities, the form a
// record is packed in and which warps share a program are not part of it.
func Fold(h *snapshot.Hasher, ks []*trace.Kernel) {
	h.PutInt(len(ks))
	for _, k := range ks {
		h.PutStr(k.Name)
		h.PutU8(uint8(k.Kind))
		h.PutInt(k.Stream)
		h.PutInt(k.ThreadsPerCTA)
		h.PutInt(k.RegsPerThread)
		h.PutInt(k.SharedMem)
		h.PutInt(len(k.CTAs))
		for i := range k.CTAs {
			cta := &k.CTAs[i]
			h.PutInt(cta.ID)
			h.PutInt(len(cta.Warps))
			for j := range cta.Warps {
				FoldWarp(h, &cta.Warps[j])
			}
		}
	}
}

// FoldWarp is Fold's per-warp part: the warp's ID and every instruction.
func FoldWarp(h *snapshot.Hasher, w *trace.Warp) {
	var lanes [isa.WarpSize]uint64
	h.PutInt(w.ID)
	h.PutInt(len(w.Insts))
	var c trace.Cursor
	for l := range w.Insts {
		in := &w.Insts[l]
		h.PutU64(uint64(in.Op))
		h.PutU64(uint64(in.Dst))
		h.PutU64(uint64(in.SrcA))
		h.PutU64(uint64(in.SrcB))
		h.PutU64(uint64(in.SrcC))
		h.PutU32(in.Mask)
		h.PutU8(uint8(in.Class))
		addrs := w.Addrs(c, in, &lanes)
		h.PutInt(len(addrs))
		for _, a := range addrs {
			h.PutU64(a)
		}
		c = w.Next(c, in)
	}
}

// Reload returns ks as a trace file gives them back: saved to memory and
// loaded again.
func Reload(ks []*trace.Kernel) ([]*trace.Kernel, error) {
	var file bytes.Buffer
	if err := trace.Save(&file, ks); err != nil {
		return nil, err
	}
	return trace.Load(&file)
}
