package partition

import (
	"fmt"

	"crisp/internal/robust"
)

// gpu.StateSnapshotter is implemented by the two policies with dynamic
// state: WarpedSlicerN (sampling phase, measured envelopes) and TAPN (epoch
// counter, set split, utility-monitor shadow tags). The blobs are JSON with
// sorted slices, so a policy blob — like everything else in a snapshot — is
// byte-deterministic for a given state. The remaining policies (MPS, MiG,
// the static intra-SM splits) are stateless: their behavior is fully
// determined by name and config, so they serialize to nothing.

func policyErr(format string, args ...any) error {
	return &robust.SimError{Kind: robust.KindSnapshot, Msg: fmt.Sprintf(format, args...)}
}

// tapRegion is one task's set region, keyed for sorting.
type tapRegion struct {
	Task  int
	Start int
	Count int
}
