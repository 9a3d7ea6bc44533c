package trace_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"os"
	"testing"

	"crisp/internal/isa"
	"crisp/internal/trace"
	"crisp/internal/trace/tracetest"
)

// seedKernel is one CTA of one warp whose single LDG packs to the form
// step selects: 0 a unit-stride row (affine), else irregular steps of that
// many bytes' width (Δ8 to Δ64).
func seedKernel(width int) *trace.Kernel {
	b := trace.NewBuilder("seed", trace.KindCompute, 3, isa.WarpSize, 16, 256)
	b.BeginCTA()
	b.BeginWarp()
	b.ALU(isa.OpMOV, b.NewReg(), trace.FullMask)
	addrs := make([]uint64, isa.WarpSize)
	for l := range addrs {
		addrs[l] = 0x1000 + uint64(l)*4
		if width > 0 {
			addrs[l] += uint64(l%3) << (8*width - 6)
		}
	}
	b.Mem(isa.OpLDG, b.NewReg(), trace.FullMask, addrs, trace.ClassCompute)
	b.Barrier()
	return b.Finish()
}

func saved(t testing.TB, ks ...*trace.Kernel) []byte {
	var buf bytes.Buffer
	if err := trace.Save(&buf, ks); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// truncatedArena is seedKernel(1)'s file with the warp's arena length one
// byte short of its records: the last record runs past the arena.
func truncatedArena(t testing.TB) []byte {
	zr, err := gzip.NewReader(bytes.NewReader(saved(t, seedKernel(1))))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// version, kernels | name, kind, four ints, CTAs | CTA ID, warps | warp ID, instructions, arena length
	at := 4 + 4 + (4 + len("seed") + 1 + 4*8 + 4) + (8 + 4) + (8 + 4)
	n := binary.LittleEndian.Uint32(raw[at:])
	if want := uint32(9 + 31); n != want {
		t.Fatalf("the seed's arena length reads %d, want its one Δ8 record of %d bytes: the file layout moved", n, want)
	}
	binary.LittleEndian.PutUint32(raw[at:], n-1)
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write(raw[:len(raw)-1])
	zw.Close()
	return out.Bytes()
}

// TestLoadRefusesTruncatedArena: the record check Load runs before it
// derives tables from the records.
func TestLoadRefusesTruncatedArena(t *testing.T) {
	if _, err := trace.Load(bytes.NewReader(truncatedArena(t))); err == nil {
		t.Fatal("Load accepted a warp whose last address record runs past its arena")
	}
}

// FuzzKernelValidate feeds arbitrary bytes through the trace deserializer
// and validates whatever decodes: Load and Validate must contain any
// corruption — truncated streams, hostile counts, malformed instruction
// lists and address records — with a clean error, never a panic or an OOM.
// What both accept must be a trace the timing model can replay either way:
// every address record expands to exactly its instruction's active lanes,
// and the line tables Load derived match the reference derivation.
func FuzzKernelValidate(f *testing.F) {
	var all []*trace.Kernel
	for width := 0; width <= 8; width = max(1, 2*width) {
		k := seedKernel(width)
		if c := k.AddrCensus(); c.Records[len(all)] != 1 {
			f.Fatalf("seedKernel(%d) packs to %+v, want one %v record", width, c, trace.AddrForm(len(all)))
		}
		f.Add(saved(f, k)) // one file per address form
		all = append(all, k)
	}
	seed := saved(f, all...)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(truncatedArena(f))
	rev1, err := os.ReadFile("testdata/revision1.trace.gz")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rev1)
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b}) // bare gzip magic
	f.Fuzz(func(t *testing.T, data []byte) {
		kernels, err := trace.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		valid := kernels[:0]
		for _, k := range kernels {
			if k == nil {
				t.Fatal("Load returned a nil kernel without error")
			}
			_ = k.InstCount()
			_ = k.WarpsPerCTA()
			// Validate must classify, not crash, whatever decoded.
			if k.Validate() == nil {
				valid = append(valid, k)
			}
		}
		var lanes [isa.WarpSize]uint64
		for _, k := range valid {
			for i := range k.CTAs {
				for j := range k.CTAs[i].Warps {
					w := &k.CTAs[i].Warps[j]
					var c trace.Cursor
					for l := range w.Insts {
						in := &w.Insts[l]
						if n := len(w.Addrs(c, in, &lanes)); in.HasAddrs() && n != in.ActiveLanes() {
							t.Fatalf("kernel %q CTA %d warp %d inst %d: %d addresses for %d active lanes", k.Name, i, j, l, n, in.ActiveLanes())
						}
						c = w.Next(c, in)
					}
				}
			}
		}
		if _, _, err := tracetest.CheckLineTable(valid); err != nil {
			t.Fatal(err)
		}
	})
}
