package core

import (
	"fmt"
	"testing"

	"crisp/internal/config"
	"crisp/internal/scenario"
)

// TestPolicyDigestsPinned holds every partitioning policy to the cycle
// count and stats digest commit d526dad — the last one with a pairwise and
// an n-way body per policy — computed at tinyOpts(), except the four-tenant
// TAP row, which moved when TAP's both-sensitive split became one rule at
// every task count. The parity suites run both of their sides through one
// BuildPolicy, so they cannot see a policy change; these constants can.
// Each group names what moves it.
func TestPolicyDigestsPinned(t *testing.T) {
	fe := NewFrontend()
	for _, row := range []struct {
		gpu            func() config.GPU
		scene, compute string // a pair, or
		preset         string // a scenario preset
		policy         PolicyKind
		cycles         int64
		digest         uint64
	}{
		// Every policy at two tasks.
		{config.JetsonOrin, "SPL", "VIO", "", PolicySerial, 14498, 0x08515bbd2e4e8ea7},
		{config.JetsonOrin, "SPL", "VIO", "", PolicyMPS, 16710, 0x3fb321e7e1beaf00},
		{config.JetsonOrin, "SPL", "VIO", "", PolicyMiG, 18262, 0x6a87b2bf95e4780d},
		{config.JetsonOrin, "SPL", "VIO", "", PolicyEven, 16361, 0x034619f383b777fa},
		{config.JetsonOrin, "SPL", "VIO", "", PolicyWarpedSlicer, 23700, 0x7f2b4357b30c10de},
		{config.JetsonOrin, "SPL", "VIO", "", PolicyTAP, 16710, 0x3fb321e7e1beaf00},
		{config.JetsonOrin, "SPL", "VIO", "", PolicyPriority, 16361, 0x034619f383b777fa},
		// The rows that move if a two-task decision reads differently:
		// WarpedSlicer's exhaustive cap search (the greedy water-fill stops
		// elsewhere), TAP's both-sensitive split and its quarter-bank clamp.
		{config.JetsonOrin, "SPL", "NN", "", PolicyWarpedSlicer, 45401, 0xabc751a49d747382},
		{config.JetsonOrin, "SPL", "NN", "", PolicyTAP, 44787, 0x8fa8de1c9571ee8b},
		{config.RTX3070, "SPH", "NN", "", PolicyTAP, 32781, 0xa0f00ee12ea3e2ed},
		// One task still gets a two-slot partition (BuildPolicy's clamp).
		{config.JetsonOrin, "SPL", "", "", PolicyMPS, 4114, 0x5ecae779df40d2fd},
		// Four tenants: SM grouping, bank ranges and TAP's split by way
		// share (WarpedSlicer's row is in TestHotPathDigestsPinned).
		{config.JetsonOrin, "", "", "n-way-fair", PolicyMPS, 106996, 0x317796be3801345a},
		{config.JetsonOrin, "", "", "n-way-fair", PolicyMiG, 159587, 0xae84a5a1d874186e},
		{config.JetsonOrin, "", "", "n-way-fair", PolicyTAP, 118315, 0xcfc04141c19cd8f2},
	} {
		cfg := row.gpu()
		name := fmt.Sprintf("%s %s+%s%s/%s", cfg.Name, row.scene, row.compute, row.preset, row.policy)
		var res *Result
		var err error
		if row.preset != "" {
			var mix scenario.MixSpec
			if mix, err = scenario.Preset(row.preset); err == nil {
				res, err = RunMix(cfg, mix, row.policy, tinyOpts(), WithFrontend(fe))
			}
		} else {
			res, err = RunPair(cfg, row.scene, row.compute, row.policy, tinyOpts(), WithFrontend(fe))
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := statsDigestOf(t, res); got != row.digest || res.Cycles != row.cycles {
			t.Errorf("%s: stats digest %016x after %d cycles, pinned %016x after %d",
				name, got, res.Cycles, row.digest, row.cycles)
		}
	}
}
