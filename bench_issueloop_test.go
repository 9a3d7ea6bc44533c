package crisp

import (
	"runtime"
	"testing"

	"crisp/internal/config"
	"crisp/internal/isa"
	"crisp/internal/mem"
	"crisp/internal/obs"
	"crisp/internal/sm"
	"crisp/internal/trace"
)

// noStats discards the per-instruction accounting: the issue-loop parts
// below price the scheduler, not the statistics sinks behind it.
type noStats struct{}

func (noStats) OnIssue(smID, stream, task int, op isa.Opcode, lanes int)       {}
func (noStats) OnStall(smID, stream, task int, cause obs.StallCause)           {}
func (noStats) OnStallN(smID, stream, task int, cause obs.StallCause, n int64) {}

// issueLoopKernel builds four CTAs of eight warps that each run emit 1500
// times: long enough that a resident warp's retire is rare beside its
// issues.
func issueLoopKernel(name string, shared int, emit func(b *trace.Builder, i int)) *trace.Kernel {
	const warps, insts = 8, 1500
	b := trace.NewBuilder(name, trace.KindCompute, 0, warps*isa.WarpSize, 32, shared)
	for c := 0; c < 4; c++ {
		b.BeginCTA()
		for w := 0; w < warps; w++ {
			b.BeginWarp()
			for i := 0; i < insts; i++ {
				emit(b, i)
			}
		}
	}
	return b.Finish()
}

// BenchmarkIssueLoop prices the four parts of the scheduler's issue loop on
// one sm.Core kept at full occupancy (64 warps, 16 per scheduler) and
// stepped every cycle, as a core is while any of its schedulers can issue.
// One op is one Core.Step — four scheduler slots:
//
//   - scan: every warp runs a chain of dependent FADDs, so the greedy pick
//     is never ready again the cycle after it issued and each slot scans
//     for another warp that is.
//   - replay: every warp runs dependent MUFUs; the SFU takes one every four
//     cycles, so three slots in four are stalls with nothing changed since
//     the last one.
//   - issue-ldg: independent, fully coalesced global loads on an L1-resident
//     footprint: what an issue pays to learn the lines a load touches.
//   - issue-lds: independent, conflict-free shared loads with per-lane
//     offsets: what an issue pays to learn the bank-conflict degree.
//
// It uses only sm's public API, so the same file measures any commit;
// CRISP_BENCH_JSON records the rows beside BenchmarkSimulatorSpeed's
// (BENCH_parallel.json; cycles_per_sec is core steps per second).
func BenchmarkIssueLoop(b *testing.B) {
	row := func(base uint64, stride uint64) []uint64 {
		addrs := make([]uint64, isa.WarpSize)
		for l := range addrs {
			addrs[l] = base + uint64(l)*stride
		}
		return addrs
	}
	parts := []struct {
		name   string
		kernel *trace.Kernel
	}{
		{"scan", issueLoopKernel("scan", 0, func(b *trace.Builder, i int) {
			b.ALU(isa.OpFADD, 1, trace.FullMask, 1)
		})},
		{"replay", issueLoopKernel("replay", 0, func(b *trace.Builder, i int) {
			b.ALU(isa.OpMUFURCP, 1, trace.FullMask, 1)
		})},
		{"issue-ldg", issueLoopKernel("issue-ldg", 0, func(b *trace.Builder, i int) {
			b.Mem(isa.OpLDG, isa.Reg(i%200), trace.FullMask, row(uint64(i%64)*128, 4), trace.ClassCompute)
		})},
		{"issue-lds", issueLoopKernel("issue-lds", 4096, func(b *trace.Builder, i int) {
			b.SharedAddr(isa.OpLDS, isa.Reg(i%200), trace.FullMask, row(uint64(i%8)*128, 4))
		})},
	}
	for _, part := range parts {
		b.Run(part.name, func(b *testing.B) {
			cfg := config.JetsonOrin()
			memsys, err := mem.NewSystem(&cfg)
			if err != nil {
				b.Fatal(err)
			}
			c := sm.NewCore(0, &cfg, memsys, noStats{})
			k, next := part.kernel, 0
			refill := func(now int64) {
				for c.CanAccept(k, 0) {
					c.IssueCTA(now, k, next%len(k.CTAs), 0, nil)
					next++
				}
			}
			refill(0)
			retired := c.RetiredWarps()
			b.ResetTimer()
			for now := int64(0); now < int64(b.N); now++ {
				c.Step(now)
				if r := c.RetiredWarps(); r != retired {
					retired = r
					refill(now)
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(c.SchedSlots())/float64(b.N), "slots/op")
			writeBenchSnapshot(b, benchEntry{
				Bench:      "IssueLoop/" + part.name,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				Runs:       b.N,
				SimCycles:  int64(b.N),
				ElapsedSec: sec,
				CyclesPerS: float64(b.N) / sec,
			})
		})
	}
}
