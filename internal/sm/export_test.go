package sm

import "testing"

// VerifyStallReplays installs the replay check on cores: every scheduler
// slot answered from a stall record — in step and in FlushSkipDebt — first
// runs the full scan the record stands for, which must give the recorded
// (wake cycle, warp, cause). It returns the number of checks made so far.
func VerifyStallReplays(t testing.TB, cores ...*Core) *int64 {
	var checks, mismatches int64
	for _, c := range cores {
		id := c.ID
		c.replayCheck = func(s *scheduler) {
			checks++
			slot, e, cause := s.scan(-1)
			w := s.warpAt(slot)
			if (e != s.stallUntil || w != s.stallWarp || (w != nil && cause != s.stallCause)) && mismatches < 8 {
				mismatches++
				t.Errorf("SM %d: stall record (wake %d, warp %p, %v) but a scan says (wake %d, warp %p, %v)",
					id, s.stallUntil, s.stallWarp, s.stallCause, e, w, cause)
			}
		}
	}
	return &checks
}
