package sm

import (
	"sync/atomic"
	"testing"
)

// VerifyStallReplays installs the replay check on cores: every scheduler
// slot answered from a stall record — in step and in FlushSkipDebt — first
// runs the full scan the record stands for, which must give the recorded
// (wake cycle, warp, cause). It returns the number of checks made so far.
// The check runs on whatever goroutine steps the core, so it is safe under
// the parallel engine.
func VerifyStallReplays(t testing.TB, cores ...*Core) *atomic.Int64 {
	var checks, mismatches atomic.Int64
	for _, c := range cores {
		id := c.ID
		c.replayCheck = func(s *scheduler) {
			checks.Add(1)
			slot, e, cause := s.scan(-1)
			w := s.warpAt(slot)
			if (e != s.stallUntil || w != s.stallWarp || (w != nil && cause != s.stallCause)) && mismatches.Add(1) <= 8 {
				t.Errorf("SM %d: stall record (wake %d, warp %p, %v) but a scan says (wake %d, warp %p, %v)",
					id, s.stallUntil, s.stallWarp, s.stallCause, e, w, cause)
			}
		}
	}
	return &checks
}
