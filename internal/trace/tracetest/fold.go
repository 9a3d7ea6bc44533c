// Package tracetest holds the canonical trace digest the determinism tests
// of the front ends and of core.Frontend share.
package tracetest

import (
	"crisp/internal/snapshot"
	"crisp/internal/trace"
)

// Fold hashes everything the timing model reads from a trace: kernel
// headers, the CTA/warp structure, and every instruction's opcode,
// registers, mask, class and addresses. Slice capacities are not part of
// it.
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
				w := &cta.Warps[j]
				h.PutInt(w.ID)
				h.PutInt(len(w.Insts))
				for l := range w.Insts {
					in := &w.Insts[l]
					h.PutU64(uint64(in.Op))
					h.PutU64(uint64(in.Dst))
					h.PutU64(uint64(in.SrcA))
					h.PutU64(uint64(in.SrcB))
					h.PutU64(uint64(in.SrcC))
					h.PutU32(in.Mask)
					h.PutU8(uint8(in.Class))
					h.PutInt(len(in.Addrs))
					for _, a := range in.Addrs {
						h.PutU64(a)
					}
				}
			}
		}
	}
}
