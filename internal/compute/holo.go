package compute

import (
	"crisp/internal/shader"
	"crisp/internal/trace"
)

// holoBase is the HOLO workload's virtual address region.
const holoBase = uint64(1) << 43

const (
	holoW      = 96
	holoH      = 64
	holoPoints = 20 // point sources accumulated per pixel
	holoIters  = 1  // Gerchberg–Saxton-style refinement passes
)

// HOLO builds the hologram-generation workload: for every SLM pixel the
// phase contributions of all point sources are accumulated (distance,
// reciprocal square root, sine/cosine per point). It is extremely
// compute-bound — FP and SFU pipes saturate while memory traffic is
// negligible — which is why TAP assigns it a single L2 set and
// warped-slicer's sampling sees no contention for it (paper §VI-C).
func HOLO(stream int) *Workload {
	w := &Workload{Name: "HOLO"}
	points := holoBase
	phase := holoBase + 1<<20

	for it := 0; it < holoIters; it++ {
		g := newGrid("holo.phase", stream, 256, 40, 0)
		k := g.run(holoW*holoH, func(c *shader.Ctx, base, lanes int) {
			// Point-source list arrives via a handful of coalesced loads.
			px := c.Load(g.rowAddrs(points, 0, lanes, 4), trace.ClassCompute)
			accRe := c.Imm(0)
			accIm := c.Imm(0)
			x := c.Mul(px, c.Imm(0.01))
			for p := 0; p < holoPoints; p++ {
				// Squared distance to the source (3 FMAs), then
				// 1/sqrt, then the phase's sine and cosine.
				dx := c.Add(x, c.Imm(float32(p)*0.13))
				d2 := c.FMA(dx, dx, c.Imm(1))
				d2 = c.FMA(x, x, d2)
				invd := c.Rsqrt(d2)
				ph := c.Mul(d2, c.Imm(6.28318*0.37))
				s := c.Sin(ph)
				co := c.Cos(ph)
				accRe = c.FMA(co, invd, accRe)
				accIm = c.FMA(s, invd, accIm)
			}
			// Final phase = atan2 approximation (polynomial).
			ratio := c.Mul(accIm, c.Rcp(c.Max(accRe, c.Imm(1e-6))))
			r2 := c.Mul(ratio, ratio)
			atan := c.Mul(ratio, c.FMA(r2, c.Imm(-0.33), c.Imm(1)))
			c.Store(atan, g.rowAddrs(phase, base, lanes, 4), trace.ClassCompute)
		})
		w.Kernels = append(w.Kernels, k)
	}
	return w
}
