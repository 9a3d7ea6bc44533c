package tracetest

import (
	"fmt"
	"slices"

	"crisp/internal/isa"
	"crisp/internal/trace"
)

// RefCoalesce is the coalescer the timing model ran at every issue before
// traces carried a line table: unique lines in first-touch order, found by
// a linear scan over a growing slice. Kept as the table's reference.
func RefCoalesce(addrs []uint64, lineSize uint64) []uint64 {
	var lines []uint64
	for _, a := range addrs {
		la := a / lineSize
		found := false
		for _, l := range lines {
			if l == la {
				found = true
				break
			}
		}
		if !found {
			lines = append(lines, la)
		}
	}
	return lines
}

// RefConflictDegree is the slice-per-bank bank-conflict count that
// trace.BankConflictDegree's chained table replaced, kept as its reference.
func RefConflictDegree(offsets []uint64) int {
	const banks = 32
	var words [banks][]uint64
	degree := 1
	for _, off := range offsets {
		word := off / 4
		b := word % banks
		dup := false
		for _, wd := range words[b] {
			if wd == word {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		words[b] = append(words[b], word)
		if len(words[b]) > degree {
			degree = len(words[b])
		}
	}
	return degree
}

// CheckLineTable requires every warp of ks to carry a line table derived
// at trace.CacheLineSize whose every entry, read through a Cursor, equals
// the reference derivation of the instruction's expanded addresses. It
// returns how many entries it compared.
func CheckLineTable(ks []*trace.Kernel) (lineEntries, conflictEntries int, err error) {
	var lanes [isa.WarpSize]uint64
	for _, k := range ks {
		for i := range k.CTAs {
			for j := range k.CTAs[i].Warps {
				w := &k.CTAs[i].Warps[j]
				if !w.HasLineTable(trace.CacheLineSize) {
					return 0, 0, fmt.Errorf("kernel %q CTA %d warp %d: no line table at %d B", k.Name, i, j, trace.CacheLineSize)
				}
				var c trace.Cursor
				for l := range w.Insts {
					in := &w.Insts[l]
					where := fmt.Sprintf("kernel %q CTA %d warp %d inst %d (%v)", k.Name, i, j, l, in.Op)
					addrs := w.Addrs(c, in, &lanes)
					switch in.Op {
					case isa.OpLDG, isa.OpSTG, isa.OpTEX:
						got, want := w.Lines(c), RefCoalesce(addrs, trace.CacheLineSize)
						if !slices.Equal(got, want) {
							return 0, 0, fmt.Errorf("%s: table lists lines %v, its addresses coalesce to %v", where, got, want)
						}
						lineEntries++
					case isa.OpLDS, isa.OpSTS:
						if got, want := w.ConflictDegree(c), RefConflictDegree(addrs); got != want {
							return 0, 0, fmt.Errorf("%s: table holds conflict degree %d, its offsets give %d", where, got, want)
						}
						conflictEntries++
					}
					c = w.Next(c, in)
				}
			}
		}
	}
	return lineEntries, conflictEntries, nil
}
