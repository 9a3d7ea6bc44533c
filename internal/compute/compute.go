// Package compute builds the paper's three XR system workloads as
// CUDA-analog trace generators:
//
//   - VIO: visual-inertial odometry — a pipeline of many small
//     computer-vision kernels (pyramid blur, undistortion, Harris corners,
//     Lucas–Kanade optical flow), the Nvidia-VPI-composed pipeline of the
//     paper.
//   - NN: RITnet eye-segmentation principal kernels — shared-memory tiled
//     convolution-as-matmul, memory bound, batch fixed at two (one image
//     per eye), unable to fill the GPU.
//   - HOLO: phase-hologram generation — per-pixel accumulation over point
//     sources, extremely FP/SFU (compute) bound with little memory
//     traffic.
//
// Each workload is one in-order stream of kernels whose instruction mixes
// and address streams come from the real algorithms' access patterns.
package compute

import (
	"fmt"

	"crisp/internal/fanout"
	"crisp/internal/shader"
	"crisp/internal/trace"
)

// Workload is one compute task: an ordered kernel stream.
type Workload struct {
	Name    string
	Kernels []*trace.Kernel
}

// InstCount sums warp instructions over all kernels.
func (w *Workload) InstCount() int {
	n := 0
	for _, k := range w.Kernels {
		n += k.InstCount()
	}
	return n
}

// Names lists the built-in compute workloads: the paper's three XR
// system tasks plus the two post-processing workloads its background
// section motivates (DLSS-style upscaling, asynchronous timewarp).
func Names() []string { return []string{"VIO", "HOLO", "NN", "UPSCALE", "ATW"} }

// ByName builds a workload by name with kernels on the given stream.
func ByName(name string, stream int) (*Workload, error) {
	switch name {
	case "VIO":
		return VIO(stream), nil
	case "HOLO":
		return HOLO(stream), nil
	case "NN":
		return NN(stream), nil
	case "UPSCALE":
		return Upscale(stream), nil
	case "ATW":
		return ATW(stream), nil
	}
	return nil, fmt.Errorf("compute: unknown workload %q (have %v)", name, Names())
}

// buildKernels runs a workload's kernel builders on up to GOMAXPROCS
// goroutines and returns the kernels in the builders' order. A builder is a
// pure function of buffer addresses assigned before this is called, so the
// kernels are the same in any order.
func buildKernels(builders []func() *trace.Kernel) []*trace.Kernel {
	ks := make([]*trace.Kernel, 0, len(builders))
	q := fanout.New(func(k *trace.Kernel) { ks = append(ks, k) })
	defer q.Close()
	for _, b := range builders {
		q.Go(b)
	}
	q.Wait()
	return ks
}

// gridBuilder emits a 1-thread-per-element kernel over n elements with
// CTAs of ctaThreads, invoking body once per warp.
type gridBuilder struct {
	bld        *trace.Builder
	ctaThreads int
	row        [shader.Lanes]uint64 // rowAddrs' scratch
}

func newGrid(name string, stream, ctaThreads, regs, shmem int) *gridBuilder {
	return &gridBuilder{
		bld:        trace.NewBuilder(name, trace.KindCompute, stream, ctaThreads, regs, shmem),
		ctaThreads: ctaThreads,
	}
}

// run emits the kernel over n elements. body receives the warp context and
// the global index of the warp's first lane.
func (g *gridBuilder) run(n int, body func(c *shader.Ctx, base int, lanes int)) *trace.Kernel {
	warpsPerCTA := g.ctaThreads / shader.Lanes
	c := shader.NewCtx(g.bld, 0)
	for e0 := 0; e0 < n; {
		g.bld.BeginCTA()
		for w := 0; w < warpsPerCTA && e0 < n; w++ {
			lanes := n - e0
			if lanes > shader.Lanes {
				lanes = shader.Lanes
			}
			mask := uint32(0xFFFFFFFF)
			if lanes < 32 {
				mask = (uint32(1) << uint(lanes)) - 1
			}
			g.bld.BeginWarp()
			c.Reset(g.bld, mask)
			body(c, e0, lanes)
			e0 += lanes
		}
	}
	return g.bld.Finish()
}

// rowAddrs returns per-lane addresses for elements base..base+lanes at
// elemBytes each from bufBase, in the grid's scratch: good until the next
// call, which is as long as the Builder looks at them.
func (g *gridBuilder) rowAddrs(bufBase uint64, base, lanes, elemBytes int) []uint64 {
	a := g.row[:lanes]
	for i := range a {
		a[i] = bufBase + uint64((base+i)*elemBytes)
	}
	return a
}
