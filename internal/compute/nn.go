package compute

import (
	"fmt"

	"crisp/internal/shader"
	"crisp/internal/trace"
)

// nnBase is the NN workload's virtual address region.
const nnBase = uint64(1) << 42

// nnLayer describes one RITnet principal kernel as a tiled matmul:
// (M×K)·(K×N), M = output channels, N = spatial positions × batch,
// K = input channels × filter taps.
type nnLayer struct {
	name    string
	m, n, k int
}

// NN builds the RITnet eye-segmentation principal kernels (the paper uses
// Principal Kernel Selection to avoid simulating the full 248K-parameter
// network). The layers are convolution-as-matmul with shared-memory
// tiling, joined by DenseNet-style concatenation kernels that stream
// feature maps through DRAM. The batch is pinned at two (one image per
// eye), so the grids stay modest and occupancy is capped — and the
// shared-memory-heavy, register-light matmuls complement the rendering
// pipeline's register-heavy, shared-memory-free shaders, which is why the
// NN pairing is the biggest concurrency winner in paper Fig. 12.
func NN(stream int) *Workload {
	w := &Workload{Name: "NN"}
	layers := []nnLayer{
		{"ritnet.conv1", 32, 2 * 60 * 40, 25},
		{"ritnet.down2", 32, 2 * 30 * 20, 144},
		{"ritnet.bottleneck", 64, 2 * 15 * 10, 144},
		{"ritnet.up1", 32, 2 * 30 * 20, 144},
		{"ritnet.head", 4, 2 * 60 * 40, 72},
	}
	var alloc uint64 = nnBase
	buf := func(bytes int) uint64 {
		b := alloc
		alloc += uint64(bytes+127) &^ 127
		return b
	}
	var ks []func() *trace.Kernel
	for i, l := range layers {
		in := buf(l.k * l.n * 4)
		wgt := buf(l.m * l.k * 4)
		out := buf(l.m * l.n * 4)
		ks = append(ks, func() *trace.Kernel { return nnMatmul(stream, l, in, wgt, out) })
		// Dense skip connections: concatenate the layer's output with
		// the earlier features — a pure streaming copy through DRAM.
		if i == 1 || i == 3 {
			elems := l.m * l.n
			dst := buf(elems * 2 * 4)
			ks = append(ks, func() *trace.Kernel {
				return nnConcat(stream, fmt.Sprintf("ritnet.concat%d", i), out, dst, elems)
			})
		}
	}
	w.Kernels = buildKernels(ks)
	return w
}

// Tile geometry: each 256-thread CTA computes a 16(M)×64(N) output block
// with four outputs per thread, walking K in tiles of 16 through shared
// memory with barriers.
const (
	nnTileM = 16
	nnTileN = 64
	nnTileK = 16
)

func nnMatmul(stream int, l nnLayer, in, wgt, out uint64) *trace.Kernel {
	// Shared memory: A tile (16×16) + B tile (16×64), float32.
	shmem := (nnTileM*nnTileK + nnTileK*nnTileN) * 4
	g := newGrid(l.name, stream, 256, 40, shmem)

	mBlocks := (l.m + nnTileM - 1) / nnTileM
	nBlocks := (l.n + nnTileN - 1) / nnTileN
	kTiles := (l.k + nnTileK - 1) / nnTileK
	totalThreads := mBlocks * nBlocks * 256

	return g.run(totalThreads, func(c *shader.Ctx, base, lanes int) {
		ctaIdx := base / 256
		mb := ctaIdx % mBlocks
		nb := ctaIdx / mBlocks
		// Eight output accumulators per thread (register tiling).
		var accs [8]shader.Val
		for i := range accs {
			accs[i] = c.Imm(0)
		}
		for kt := 0; kt < kTiles; kt++ {
			// Cooperative loads into shared memory: each thread brings
			// one A element and one B element.
			var aAddrsBuf [shader.Lanes]uint64
			aAddrs := aAddrsBuf[:lanes]
			var bAddrsBuf [shader.Lanes]uint64
			bAddrs := bAddrsBuf[:lanes]
			for i := 0; i < lanes; i++ {
				tid := (base + i) % 256
				row := mb*nnTileM + tid%nnTileM
				kcol := kt*nnTileK + tid/nnTileM%nnTileK
				aAddrs[i] = wgt + uint64((row*l.k+kcol)%(l.m*l.k))*4
				ncol := nb*nnTileN + tid%nnTileN
				bAddrs[i] = in + uint64((kcol*l.n+ncol)%(l.k*l.n))*4
			}
			av := c.Load(aAddrs, trace.ClassCompute)
			bv := c.Load(bAddrs, trace.ClassCompute)
			// Cooperative stores: one word per thread, stride-1 —
			// conflict-free.
			var stABuf [shader.Lanes]uint64
			stA := stABuf[:lanes]
			var stBBuf [shader.Lanes]uint64
			stB := stBBuf[:lanes]
			for i := 0; i < lanes; i++ {
				tid := uint64((base + i) % 256)
				stA[i] = tid * 4
				stB[i] = (256 + tid) * 4
			}
			c.SharedStoreAt(av, stA)
			c.SharedStoreAt(bv, stB)
			c.Barrier()
			// Inner product over the K tile from shared memory, eight
			// outputs per LDS pair (the register tiling that makes
			// compiled matmuls FP-throughput-bound). The A tile is
			// padded (stride 17) so the row-major reads stay
			// conflict-free, as tuned kernels do.
			for kk := 0; kk < nnTileK; kk += 4 {
				var ldABuf [shader.Lanes]uint64
				ldA := ldABuf[:lanes]
				var ldBBuf [shader.Lanes]uint64
				ldB := ldBBuf[:lanes]
				for i := 0; i < lanes; i++ {
					tid := uint64((base + i) % 256)
					ldA[i] = ((tid%16)*17 + uint64(kk)) * 4
					ldB[i] = (544 + uint64(kk)*nnTileN + tid%64) * 4
				}
				a := c.SharedLoadAt(ldA)
				b := c.SharedLoadAt(ldB)
				for o := range accs {
					if o%2 == 0 {
						accs[o] = c.FMA(a, b, accs[o])
					} else {
						accs[o] = c.FMA(b, a, accs[o])
					}
				}
			}
			c.Barrier()
		}
		// ReLU and store (one 4-wide store per thread).
		sum := accs[0]
		for o := 1; o < len(accs); o++ {
			sum = c.Add(sum, accs[o])
		}
		r := c.Max(sum, c.Imm(0))
		var oAddrsBuf [shader.Lanes]uint64
		oAddrs := oAddrsBuf[:lanes]
		for i := 0; i < lanes; i++ {
			oAddrs[i] = out + uint64((base+i)%(l.m*l.n))*16
		}
		c.Store(r, oAddrs, trace.ClassCompute)
	})
}

// nnConcat streams elems float32 features from src to dst (skip-connection
// concatenation): one coalesced load and store per warp — pure DRAM
// bandwidth, the memory-bound side of the network.
func nnConcat(stream int, name string, src, dst uint64, elems int) *trace.Kernel {
	g := newGrid(name, stream, 256, 16, 0)
	return g.run(elems, func(c *shader.Ctx, base, lanes int) {
		v := c.Load(g.rowAddrs(src, base, lanes, 4), trace.ClassCompute)
		c.Store(v, g.rowAddrs(dst, base, lanes, 4), trace.ClassCompute)
	})
}
