package compute

import (
	"fmt"

	"crisp/internal/shader"
	"crisp/internal/trace"
)

// vioBase is the VIO workload's virtual address region.
const vioBase = uint64(1) << 41

// vioW and vioH are the camera image dimensions (stereo pair processed as
// one stream of kernels, as in the EuRoC-style datasets the paper uses).
const (
	vioW = 160
	vioH = 120
)

// VIO builds the visual-inertial-odometry pipeline: per pyramid level a
// Gaussian blur and downsample, image undistortion, Sobel gradients,
// Harris corner response with non-max suppression, and two-level
// Lucas–Kanade optical flow. The defining property is many small kernels —
// the reason warped-slicer's per-launch sampling cannot amortize
// (paper Fig. 12).
func VIO(stream int) *Workload {
	w := &Workload{Name: "VIO"}
	var alloc uint64 = vioBase
	buf := func(elems, elemBytes int) uint64 {
		b := alloc
		alloc += uint64(elems*elemBytes+127) &^ 127
		return b
	}

	img0 := buf(vioW*vioH, 4)
	img1 := buf(vioW*vioH, 4)
	prev := buf(vioW*vioH, 4)

	levels := []struct{ w, h int }{{vioW, vioH}, {vioW / 2, vioH / 2}, {vioW / 4, vioH / 4}}
	pyr := make([]uint64, len(levels))
	for i, lv := range levels {
		pyr[i] = buf(lv.w*lv.h, 4)
	}

	var ks []func() *trace.Kernel

	// 1) Undistort: per-pixel radial remap with a bilinear gather.
	und := buf(vioW*vioH, 4)
	ks = append(ks, func() *trace.Kernel { return vioUndistort(stream, img0, und) })

	// 2) Pyramid: blur + downsample per level.
	src := und
	for i, lv := range levels {
		in, blurred := src, buf(lv.w*lv.h, 4)
		ks = append(ks, func() *trace.Kernel {
			return vioBlur(stream, fmt.Sprintf("vio.blur.l%d", i), in, blurred, lv.w, lv.h)
		})
		ks = append(ks, func() *trace.Kernel {
			return vioDownsample(stream, fmt.Sprintf("vio.down.l%d", i), blurred, pyr[i], lv.w, lv.h)
		})
		src = pyr[i]
	}

	// 3) Gradients + Harris corner response + NMS on the base level.
	gx := buf(vioW*vioH, 4)
	gy := buf(vioW*vioH, 4)
	resp := buf(vioW*vioH, 4)
	corners := buf(vioW*vioH, 4)
	ks = append(ks, func() *trace.Kernel { return vioSobel(stream, pyr[0], gx, gy) })
	ks = append(ks, func() *trace.Kernel { return vioHarris(stream, gx, gy, resp) })
	ks = append(ks, func() *trace.Kernel { return vioNMS(stream, resp, corners) })

	// 4) Optical flow: LK on two pyramid levels against the previous
	// frame.
	for i := 0; i < 2; i++ {
		lv, flow := levels[i], buf(levels[i].w*levels[i].h, 8)
		ks = append(ks, func() *trace.Kernel {
			return vioLK(stream, fmt.Sprintf("vio.lk.l%d", i), pyr[i], prev, flow, lv.w, lv.h)
		})
	}
	_ = img1
	w.Kernels = buildKernels(ks)
	return w
}

// vioBlur is a 5×5 separable-as-direct Gaussian: 5-tap vertical gather per
// pixel (the horizontal pass is folded to keep kernels small, as VPI's
// fused blur does).
func vioBlur(stream int, name string, src, dst uint64, iw, ih int) *trace.Kernel {
	g := newGrid(name, stream, 128, 24, 0)
	return g.run(iw*ih, func(c *shader.Ctx, base, lanes int) {
		acc := c.Imm(0)
		for tap := -2; tap <= 2; tap++ {
			var addrsBuf [shader.Lanes]uint64
			addrs := addrsBuf[:lanes]
			for i := 0; i < lanes; i++ {
				p := base + i
				y := p/iw + tap
				if y < 0 {
					y = 0
				}
				if y >= ih {
					y = ih - 1
				}
				addrs[i] = src + uint64((y*iw+p%iw)*4)
			}
			v := c.Load(addrs, trace.ClassCompute)
			acc = c.FMA(v, c.Imm(0.2), acc)
		}
		c.Store(acc, g.rowAddrs(dst, base, lanes, 4), trace.ClassCompute)
	})
}

// vioDownsample halves resolution with a 2×2 average.
func vioDownsample(stream int, name string, src, dst uint64, iw, ih int) *trace.Kernel {
	ow, oh := iw/2, ih/2
	g := newGrid(name, stream, 128, 16, 0)
	return g.run(ow*oh, func(c *shader.Ctx, base, lanes int) {
		acc := c.Imm(0)
		for dy := 0; dy < 2; dy++ {
			var addrsBuf [shader.Lanes]uint64
			addrs := addrsBuf[:lanes]
			for i := 0; i < lanes; i++ {
				p := base + i
				sy := (p/ow)*2 + dy
				sx := (p % ow) * 2
				addrs[i] = src + uint64((sy*iw+sx)*4)
			}
			v := c.Load(addrs, trace.ClassCompute)
			acc = c.FMA(v, c.Imm(0.5), acc)
		}
		c.Store(acc, g.rowAddrs(dst, base, lanes, 4), trace.ClassCompute)
	})
}

// vioUndistort remaps each pixel through a radial distortion polynomial
// (k1, k2) and gathers bilinearly — scattered reads, ALU-moderate.
func vioUndistort(stream int, src, dst uint64) *trace.Kernel {
	g := newGrid("vio.undistort", stream, 128, 32, 0)
	return g.run(vioW*vioH, func(c *shader.Ctx, base, lanes int) {
		// Normalized radius² from pixel coords: a few IMAD-like FMAs.
		x := c.Imm(0.1)
		y := c.Imm(0.2)
		r2 := c.FMA(x, x, c.Mul(y, y))
		k := c.FMA(r2, c.Imm(-0.12), c.Imm(1))
		k = c.FMA(c.Mul(r2, r2), c.Imm(0.03), k)
		// Gather: the remapped source address (computed functionally).
		var addrsBuf [shader.Lanes]uint64
		addrs := addrsBuf[:lanes]
		for i := 0; i < lanes; i++ {
			p := base + i
			px, py := p%vioW, p/vioW
			// Radial pull toward the center.
			cx, cy := px-vioW/2, py-vioH/2
			sx := vioW/2 + cx*97/100
			sy := vioH/2 + cy*97/100
			addrs[i] = src + uint64((sy*vioW+sx)*4)
		}
		v := c.Load(addrs, trace.ClassCompute)
		out := c.Mul(v, k)
		c.Store(out, g.rowAddrs(dst, base, lanes, 4), trace.ClassCompute)
	})
}

// vioSobel computes x/y gradients with 3×3 stencils.
func vioSobel(stream int, src, gx, gy uint64) *trace.Kernel {
	g := newGrid("vio.sobel", stream, 128, 24, 0)
	return g.run(vioW*vioH, func(c *shader.Ctx, base, lanes int) {
		sx := c.Imm(0)
		sy := c.Imm(0)
		for tap := 0; tap < 3; tap++ {
			var addrsBuf [shader.Lanes]uint64
			addrs := addrsBuf[:lanes]
			for i := 0; i < lanes; i++ {
				p := base + i
				y := p/vioW + tap - 1
				if y < 0 {
					y = 0
				}
				if y >= vioH {
					y = vioH - 1
				}
				addrs[i] = src + uint64((y*vioW+p%vioW)*4)
			}
			v := c.Load(addrs, trace.ClassCompute)
			sx = c.FMA(v, c.Imm(float32(tap-1)), sx)
			sy = c.FMA(v, c.Imm(float32(2-tap)), sy)
		}
		c.Store(sx, g.rowAddrs(gx, base, lanes, 4), trace.ClassCompute)
		c.Store(sy, g.rowAddrs(gy, base, lanes, 4), trace.ClassCompute)
	})
}

// vioHarris computes the corner response det(M) - k·trace(M)².
func vioHarris(stream int, gx, gy, resp uint64) *trace.Kernel {
	g := newGrid("vio.harris", stream, 128, 32, 0)
	return g.run(vioW*vioH, func(c *shader.Ctx, base, lanes int) {
		vx := c.Load(g.rowAddrs(gx, base, lanes, 4), trace.ClassCompute)
		vy := c.Load(g.rowAddrs(gy, base, lanes, 4), trace.ClassCompute)
		xx := c.Mul(vx, vx)
		yy := c.Mul(vy, vy)
		xy := c.Mul(vx, vy)
		det := c.FMA(xx, yy, c.Mul(c.Mul(xy, xy), c.Imm(-1)))
		tr := c.Add(xx, yy)
		r := c.FMA(c.Mul(tr, tr), c.Imm(-0.04), det)
		c.Store(r, g.rowAddrs(resp, base, lanes, 4), trace.ClassCompute)
	})
}

// vioNMS suppresses non-maximal responses in a 3-row neighborhood.
func vioNMS(stream int, resp, out uint64) *trace.Kernel {
	g := newGrid("vio.nms", stream, 128, 16, 0)
	return g.run(vioW*vioH, func(c *shader.Ctx, base, lanes int) {
		best := c.Imm(-1e30)
		for tap := -1; tap <= 1; tap++ {
			var addrsBuf [shader.Lanes]uint64
			addrs := addrsBuf[:lanes]
			for i := 0; i < lanes; i++ {
				p := base + i
				y := p/vioW + tap
				if y < 0 {
					y = 0
				}
				if y >= vioH {
					y = vioH - 1
				}
				addrs[i] = resp + uint64((y*vioW+p%vioW)*4)
			}
			v := c.Load(addrs, trace.ClassCompute)
			best = c.Max(best, v)
		}
		c.Store(best, g.rowAddrs(out, base, lanes, 4), trace.ClassCompute)
	})
}

// vioLK is one Lucas–Kanade iteration: a 3×3 window gather on both frames
// plus the 2×2 normal-equation solve.
func vioLK(stream int, name string, cur, prev, flow uint64, iw, ih int) *trace.Kernel {
	g := newGrid(name, stream, 128, 40, 0)
	return g.run(iw*ih, func(c *shader.Ctx, base, lanes int) {
		a11 := c.Imm(0)
		a12 := c.Imm(0)
		a22 := c.Imm(0)
		b1 := c.Imm(0)
		b2 := c.Imm(0)
		for tap := -1; tap <= 1; tap++ {
			var addrsCBuf [shader.Lanes]uint64
			addrsC := addrsCBuf[:lanes]
			var addrsPBuf [shader.Lanes]uint64
			addrsP := addrsPBuf[:lanes]
			for i := 0; i < lanes; i++ {
				p := base + i
				y := p/iw + tap
				if y < 0 {
					y = 0
				}
				if y >= ih {
					y = ih - 1
				}
				addrsC[i] = cur + uint64((y*iw+p%iw)*4)
				addrsP[i] = prev + uint64((y%vioH*vioW+p%iw)*4)
			}
			vc := c.Load(addrsC, trace.ClassCompute)
			vp := c.Load(addrsP, trace.ClassCompute)
			dt := c.Sub(vc, vp)
			gx := c.Mul(vc, c.Imm(0.5))
			gy := c.Mul(vp, c.Imm(0.5))
			a11 = c.FMA(gx, gx, a11)
			a12 = c.FMA(gx, gy, a12)
			a22 = c.FMA(gy, gy, a22)
			b1 = c.FMA(gx, dt, b1)
			b2 = c.FMA(gy, dt, b2)
		}
		// 2×2 solve via the inverse determinant.
		det := c.FMA(a11, a22, c.Mul(c.Mul(a12, a12), c.Imm(-1)))
		inv := c.Rcp(c.Max(det, c.Imm(1e-6)))
		u := c.Mul(c.FMA(a22, b1, c.Mul(c.Mul(a12, b2), c.Imm(-1))), inv)
		v := c.Mul(c.FMA(a11, b2, c.Mul(c.Mul(a12, b1), c.Imm(-1))), inv)
		c.Store(u, g.rowAddrs(flow, base, lanes, 8), trace.ClassCompute)
		c.Store(v, g.rowAddrs(flow+4, base, lanes, 8), trace.ClassCompute)
	})
}
