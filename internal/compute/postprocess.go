package compute

import (
	"crisp/internal/shader"
	"crisp/internal/trace"
)

// The paper's background section motivates two post-processing compute
// workloads that co-run with rendering on real systems:
//
//   - DLSS-style super sampling: the scene renders at low resolution and
//     a neural network upscales it, "leveraging Tensor Cores for the
//     general matrix multiplication" while fragment shaders use the FP
//     units — the canonical async-compute pairing.
//   - Asynchronous timewarp: "after the scene is rendered, a compute
//     shader is executed to warp the scene to reflect the user's latest
//     position" — a memory-bound per-pixel reprojection adopted by
//     virtually all XR systems.
//
// UPSCALE and ATW implement these as additional workloads.

// upscaleBase is the UPSCALE workload's virtual address region.
const upscaleBase = uint64(1) << 44

const (
	upLowW  = 160 // low-resolution input
	upLowH  = 90
	upScale = 2 // output is 2x per axis
)

// Upscale builds the DLSS-analog workload: a patch-based neural upscaler.
// Each 256-thread CTA upscales one 8×8 input patch: it loads the patch
// and its feature context, stages it in shared memory, runs a stack of
// tensor-core (HMMA) layers with FP activations, and stores the 16×16
// output patch. Tensor-pipe-heavy with moderate streaming memory — the
// complement of fragment shading's FP+TEX profile.
func Upscale(stream int) *Workload {
	w := &Workload{Name: "UPSCALE"}
	in := upscaleBase
	wgt := upscaleBase + 1<<22
	out := upscaleBase + 1<<23

	const patch = 8
	patchesX := upLowW / patch
	patchesY := upLowH / patch
	const layers = 4
	const hmmaPerLayer = 8 // 16x16x16 MMA tiles per layer per warp

	g := newGrid("upscale.net", stream, 256, 64, 8<<10)
	k := g.run(patchesX*patchesY*256, func(c *shader.Ctx, base, lanes int) {
		p := base / 256
		px, py := p%patchesX, p/patchesX
		// Load the input patch + halo (two coalesced rows per thread).
		var a1Buf [shader.Lanes]uint64
		a1 := a1Buf[:lanes]
		var a2Buf [shader.Lanes]uint64
		a2 := a2Buf[:lanes]
		for i := 0; i < lanes; i++ {
			tid := (base + i) % 256
			x := px*patch + tid%16 - 4
			y := py*patch + tid/16 - 4
			if x < 0 {
				x = 0
			}
			if y < 0 {
				y = 0
			}
			if x >= upLowW {
				x = upLowW - 1
			}
			if y >= upLowH {
				y = upLowH - 1
			}
			a1[i] = in + uint64((y*upLowW+x)*4)
			a2[i] = in + uint64(((y+1)%upLowH*upLowW+x)*4)
		}
		v1 := c.Load(a1, trace.ClassCompute)
		v2 := c.Load(a2, trace.ClassCompute)
		c.SharedStore(v1)
		c.SharedStore(v2)
		c.Barrier()

		act := c.SharedLoad()
		for l := 0; l < layers; l++ {
			// Weights stream through the constant/global path once per
			// layer; the MMA tiles come from shared memory.
			var waBuf [shader.Lanes]uint64
			wa := waBuf[:lanes]
			for i := 0; i < lanes; i++ {
				wa[i] = wgt + uint64((l*4096+((base+i)%1024))*4)
			}
			wv := c.Load(wa, trace.ClassCompute)
			for m := 0; m < hmmaPerLayer; m++ {
				act = c.Tensor(act, wv)
			}
			// Activation (ReLU) + residual add.
			act = c.Max(act, c.Imm(0))
			act = c.FMA(act, c.Imm(0.9), v1)
			c.SharedStore(act)
			c.Barrier()
			act = c.SharedLoad()
		}

		// Store the upscaled 16×16 output patch (4 output pixels per
		// thread → one wide store).
		var oaBuf [shader.Lanes]uint64
		oa := oaBuf[:lanes]
		for i := 0; i < lanes; i++ {
			tid := (base + i) % 256
			ox := px*patch*upScale + tid%16
			oy := py*patch*upScale + tid/16
			oa[i] = out + uint64((oy*upLowW*upScale+ox)*16)
		}
		c.Store(act, oa, trace.ClassCompute)
	})
	w.Kernels = append(w.Kernels, k)
	return w
}

// atwBase is the ATW workload's virtual address region.
const atwBase = uint64(1) << 45

const (
	atwW = 320
	atwH = 180
)

// ATW builds the asynchronous-timewarp workload: per output pixel,
// compute the reprojected source coordinate under the latest head pose (a
// small homography evaluation) and gather the rendered frame with a
// bilinear fetch. One pass per eye. Scattered reads of the source frame
// make it memory-latency/bandwidth-bound with light ALU — the classic
// latency-critical XR post-process.
func ATW(stream int) *Workload {
	w := &Workload{Name: "ATW"}
	src := atwBase
	dst := atwBase + 1<<22

	var ks []func() *trace.Kernel
	for eye := 0; eye < 2; eye++ {
		ks = append(ks, func() *trace.Kernel { return atwWarp(stream, src, dst, eye) })
	}
	w.Kernels = buildKernels(ks)
	return w
}

// atwWarp is one eye's reprojection pass.
func atwWarp(stream int, src, dst uint64, eye int) *trace.Kernel {
	g := newGrid("atw.warp", stream, 128, 28, 0)
	return g.run(atwW*atwH, func(c *shader.Ctx, base, lanes int) {
		// Homography row evaluation: ~2 rcp + a handful of FMAs.
		x := c.Imm(0.31)
		y := c.Imm(0.17)
		wden := c.FMA(x, c.Imm(0.02), c.FMA(y, c.Imm(-0.013), c.Imm(1)))
		inv := c.Rcp(wden)
		u := c.Mul(c.FMA(x, c.Imm(0.998), c.Mul(y, c.Imm(0.04))), inv)
		v := c.Mul(c.FMA(y, c.Imm(0.997), c.Mul(x, c.Imm(-0.03))), inv)
		_ = u
		_ = v

		// Gather: the reprojected source pixel shifts a few pixels
		// from the output position (pose delta), scattering reads.
		var addrsBuf [shader.Lanes]uint64
		addrs := addrsBuf[:lanes]
		for i := 0; i < lanes; i++ {
			p := base + i
			ox, oy := p%atwW, p/atwW
			sx := ox + (oy%7 - 3) + eye*2 // pose-dependent shear
			sy := oy + (ox % 5) - 2
			if sx < 0 {
				sx = 0
			}
			if sy < 0 {
				sy = 0
			}
			if sx >= atwW {
				sx = atwW - 1
			}
			if sy >= atwH {
				sy = atwH - 1
			}
			addrs[i] = src + uint64((sy*atwW+sx)*4)
		}
		col := c.Load(addrs, trace.ClassCompute)
		// Chromatic-aberration correction: one more shifted gather.
		var addrs2Buf [shader.Lanes]uint64
		addrs2 := addrs2Buf[:lanes]
		for i := 0; i < lanes; i++ {
			addrs2[i] = addrs[i] + 8
		}
		col2 := c.Load(addrs2, trace.ClassCompute)
		res := c.FMA(col2, c.Imm(0.5), c.Mul(col, c.Imm(0.5)))
		c.Store(res, g.rowAddrs(dst+uint64(eye)*uint64(atwW*atwH*4), base, lanes, 4), trace.ClassCompute)
	})
}
