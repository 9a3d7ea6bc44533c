// Package chaos is CRISP's service-level fault-injection harness: seeded,
// reproducible faults planted into crispd's supervised execution path so
// the retry/recovery machinery can be exercised deterministically — in
// tests, in CI's chaos-recovery gate, and interactively via `crispd -chaos`.
//
// Two fault kinds, both driven by one Spec:
//
//   - kill@N — the running simulation dies at simulated cycle N. In-process
//     this is a panic carrying a KindInjected SimError (thrown from the
//     metrics sink on the sim goroutine, so the core's deferred recovery
//     still flushes a final snapshot); in -isolate mode the worker process
//     SIGKILLs itself, leaving no final snapshot at all and forcing the
//     supervisor onto the periodic-checkpoint fallback.
//   - corrupt=truncate|flip — after a kill, before the retry resumes, the
//     newest checkpoint in the job's attempt directories is damaged (cut to
//     half, or one body byte flipped), forcing snapshot.LoadNewest to fall
//     back to the previous checkpoint.
//
// Faults are budgeted per job digest: a kill fires at most Kills times
// (default 1) and a corruption at most once, so a retried job converges
// instead of hot-looping — the whole point is to prove that every chaos
// schedule still ends in the bit-identical result digest.
package chaos

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"crisp/internal/robust"
	"crisp/internal/snapshot"
)

// Spec is a parsed chaos schedule.
type Spec struct {
	// Seed keys any randomized choice the harness makes (currently the
	// flip offset perturbation); the same spec + seed plants byte-identical
	// faults.
	Seed int64
	// KillCycle kills the simulation at this simulated cycle (0 = no kill).
	KillCycle int64
	// Kills is how many attempts per job digest get killed (default 1 when
	// KillCycle > 0): kills=2 kills the first run AND its first retry.
	Kills int
	// CorruptLatest, when non-empty, damages the newest checkpoint before
	// the first post-kill resume: "truncate" or "flip".
	CorruptLatest string
}

// ParseSpec parses the `-chaos` flag syntax: comma-separated tokens
//
//	seed=7,kill@9000,kills=2,corrupt=truncate
//
// Every token is optional; an empty string is a valid no-op spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		switch {
		case strings.HasPrefix(tok, "kill@"):
			n, err := strconv.ParseInt(tok[len("kill@"):], 10, 64)
			if err != nil || n <= 0 {
				return Spec{}, fmt.Errorf("chaos: bad kill cycle %q", tok)
			}
			spec.KillCycle = n
		case strings.HasPrefix(tok, "kills="):
			n, err := strconv.Atoi(tok[len("kills="):])
			if err != nil || n < 0 {
				return Spec{}, fmt.Errorf("chaos: bad kill count %q", tok)
			}
			spec.Kills = n
		case strings.HasPrefix(tok, "seed="):
			n, err := strconv.ParseInt(tok[len("seed="):], 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("chaos: bad seed %q", tok)
			}
			spec.Seed = n
		case strings.HasPrefix(tok, "corrupt="):
			mode := tok[len("corrupt="):]
			if mode != "truncate" && mode != "flip" {
				return Spec{}, fmt.Errorf("chaos: corrupt mode %q (want truncate or flip)", mode)
			}
			spec.CorruptLatest = mode
		default:
			return Spec{}, fmt.Errorf("chaos: unknown token %q", tok)
		}
	}
	if spec.KillCycle > 0 && spec.Kills == 0 {
		spec.Kills = 1
	}
	return spec, nil
}

// String renders the spec back in flag syntax (for logs).
func (s Spec) String() string {
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	if s.KillCycle > 0 {
		parts = append(parts, fmt.Sprintf("kill@%d", s.KillCycle))
		if s.Kills != 1 {
			parts = append(parts, fmt.Sprintf("kills=%d", s.Kills))
		}
	}
	if s.CorruptLatest != "" {
		parts = append(parts, "corrupt="+s.CorruptLatest)
	}
	return strings.Join(parts, ",")
}

// Enabled reports whether the spec plants any fault at all.
func (s Spec) Enabled() bool {
	return s.KillCycle > 0 || s.CorruptLatest != ""
}

// Controller budgets a Spec's faults across job attempts. All methods are
// safe for concurrent use and safe on a nil receiver (every Take reports
// false), so callers hold one optional *Controller with no nil checks.
type Controller struct {
	spec Spec

	mu        sync.Mutex
	kills     map[string]int  // digest → kills already fired
	corrupted map[string]bool // digest → corruption already fired

	killsFired       atomic.Int64
	corruptionsFired atomic.Int64
}

// NewController builds a Controller for spec; nil when the spec is empty,
// so `ctrl := chaos.NewController(spec)` composes with the nil-safe API.
func NewController(spec Spec) *Controller {
	if !spec.Enabled() {
		return nil
	}
	return &Controller{
		spec:      spec,
		kills:     make(map[string]int),
		corrupted: make(map[string]bool),
	}
}

// Spec returns the controller's schedule (zero Spec on nil).
func (c *Controller) Spec() Spec {
	if c == nil {
		return Spec{}
	}
	return c.spec
}

// TakeKill reserves one kill for this job digest: it reports the cycle at
// which the starting attempt must die, or ok=false when the digest's kill
// budget is spent (or no kill is scheduled). The reservation is consumed —
// the retry that follows a taken kill runs to completion — but a kill is
// counted only when Killed reports it carried out: a run that ends before
// the cycle was never killed.
func (c *Controller) TakeKill(digest string) (cycle int64, ok bool) {
	if c == nil || c.spec.KillCycle <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kills[digest] >= c.spec.Kills {
		return 0, false
	}
	c.kills[digest]++
	return c.spec.KillCycle, true
}

// Killed counts one reserved kill carried out: the attempt died at or past
// its kill cycle.
func (c *Controller) Killed() {
	if c != nil {
		c.killsFired.Add(1)
	}
}

// TakeCorrupt reserves the one checkpoint corruption for this digest. It
// only fires after a kill has been taken for the same digest — corruption
// models damage discovered on the recovery path, so it is planted exactly
// when a retry is about to resume.
func (c *Controller) TakeCorrupt(digest string) (mode string, ok bool) {
	if c == nil || c.spec.CorruptLatest == "" {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kills[digest] == 0 || c.corrupted[digest] {
		return "", false
	}
	c.corrupted[digest] = true
	c.corruptionsFired.Add(1)
	return c.spec.CorruptLatest, true
}

// Stats reports total faults fired, for /metrics: kills carried out, and
// corruptions planted.
func (c *Controller) Stats() (kills, corruptions int64) {
	if c == nil {
		return 0, 0
	}
	return c.killsFired.Load(), c.corruptionsFired.Load()
}

// Injected builds the KindInjected SimError an in-process kill panics
// with. The panic crosses the core's deferred recovery (which flushes the
// final snapshot) and surfaces at the facade wrapped in KindPanic —
// robust.DeepestKind recovers the injected classification.
func Injected(cycle int64) *robust.SimError {
	return &robust.SimError{
		Kind:  robust.KindInjected,
		Cycle: cycle,
		Msg:   fmt.Sprintf("chaos: injected kill at cycle %d", cycle),
	}
}

// Corrupt damages the newest checkpoint in dirs according to mode
// ("truncate" cuts the body in half, "flip" inverts one body byte) and
// returns the damaged path. Both aim past the header line, wherever it
// ends, so the file still ranks as the newest candidate and the damage is
// exactly what snapshot.LoadNewest must survive: detect, rename aside,
// fall back.
func Corrupt(mode string, seed int64, dirs ...string) (string, error) {
	cands := snapshot.Candidates(dirs...)
	if len(cands) == 0 {
		return "", fmt.Errorf("chaos: no checkpoint to corrupt in %s", strings.Join(dirs, ", "))
	}
	path := cands[0]
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("chaos: read %s: %w", path, err)
	}
	if len(data) == 0 {
		return "", fmt.Errorf("chaos: %s is empty", path)
	}
	headerLen := bytes.IndexByte(data, '\n') + 1
	mid := headerLen + (len(data)-headerLen)/2
	switch mode {
	case "truncate":
		data = data[:mid]
	case "flip":
		// Perturb the offset with the seed so different schedules damage
		// different bytes, deterministically.
		off := max(headerLen, min(mid+int(seed%16), len(data)-1))
		data[off] ^= 0xFF
	default:
		return "", fmt.Errorf("chaos: unknown corrupt mode %q", mode)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("chaos: write %s: %w", path, err)
	}
	return path, nil
}
