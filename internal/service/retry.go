package service

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"crisp/internal/robust"
	"crisp/internal/snapshot"
)

// Supervised-retry defaults (Config.MaxAttempts / RetryBase / RetryMax).
const (
	// DefaultMaxAttempts is how many execution attempts a job gets before
	// quarantine, counted across daemon restarts via attempts.json.
	DefaultMaxAttempts = 3
	// DefaultRetryBase and DefaultRetryMax bound the exponential backoff
	// between attempts: base·2^(n-1), capped at max, plus seeded jitter.
	DefaultRetryBase = 100 * time.Millisecond
	DefaultRetryMax  = 30 * time.Second
)

// backoffDelay is the pause before retry attempt `attempt` (2-based: the
// first retry is attempt 2): exponential in the number of prior failures,
// capped, plus deterministic jitter in [0, delay/2) keyed on (seed, digest,
// attempt) — jitter de-synchronizes a fleet of retrying jobs without
// sacrificing reproducibility, which the chaos suite depends on.
func (s *Server) backoffDelay(digest string, attempt int) time.Duration {
	base := s.cfg.RetryBase
	if base <= 0 {
		base = DefaultRetryBase
	}
	maxd := s.cfg.RetryMax
	if maxd <= 0 {
		maxd = DefaultRetryMax
	}
	delay := base
	for i := 2; i < attempt && delay < maxd; i++ {
		delay *= 2
	}
	if delay > maxd {
		delay = maxd
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", s.cfg.RetrySeed, digest, attempt)
	jitter := time.Duration(h.Sum64() % uint64(delay/2+1))
	return delay + jitter
}

// verdict is what a failed attempt means for its task.
type verdict int

const (
	verdictCanceled  verdict = iota // stopped, not broken: never retried
	verdictPermanent                // validation, deadlock: the same inputs fail the same way
	verdictRetry                    // retryable, budget left: run again after the backoff
	verdictExhausted                // retryable, but this failure used up the attempt budget
)

// verdict is the one classification of a failed attempt, for jobs and
// sweep tasks alike: err ended the task's failed-th counted attempt.
func (s *Server) verdict(digest string, failed int, err error) (verdict, time.Duration) {
	if se, ok := robust.AsSimError(err); ok && robust.DeepestKind(se) == robust.KindCanceled {
		return verdictCanceled, 0
	}
	if !robust.RetryableError(err) {
		return verdictPermanent, 0
	}
	if failed >= s.maxAttempts() {
		return verdictExhausted, 0
	}
	return verdictRetry, s.backoffDelay(digest, failed+1)
}

// maxAttempts is the quarantine threshold K.
func (s *Server) maxAttempts() int {
	if s.cfg.MaxAttempts > 0 {
		return s.cfg.MaxAttempts
	}
	return DefaultMaxAttempts
}

// ---- failure markers --------------------------------------------------
//
// Two small JSON files in the job directory persist supervision state
// across daemon restarts: attempts.json counts failed attempts (so a
// crash-looping daemon cannot reset a poison job's budget), and
// quarantined.json marks the terminal quarantine decision. Both are
// written atomically with a directory fsync — they are the ground truth
// the next daemon instance recovers from.

// attemptRecord is the on-disk failed-attempt counter.
type attemptRecord struct {
	Attempts  int    `json:"attempts"`
	LastError string `json:"last_error"`
	Kind      string `json:"kind,omitempty"`
	Cycle     int64  `json:"cycle,omitempty"`
}

// quarantineRecord is the on-disk quarantine marker.
type quarantineRecord struct {
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
	Kind     string `json:"kind,omitempty"`
	Cycle    int64  `json:"cycle,omitempty"`
}

// failureOf names a failure for a marker: its deepest SimError kind and
// cycle ("" when err carries no SimError).
func failureOf(err error) (kind string, cycle int64) {
	if se, ok := robust.AsSimError(err); ok {
		return robust.DeepestKind(se).String(), se.Cycle
	}
	return "", 0
}

// writeMarker persists one record into the job's directory (best effort;
// memory-only servers keep supervision state in process only).
func (s *Server) writeMarker(job *Job, name string, rec any) {
	if dir := s.jobDir(job); dir != "" {
		writeJSONAtomic(filepath.Join(dir, name), rec)
	}
}

// recordAttempt persists the failed-attempt counter after attempt n failed
// with err.
func (s *Server) recordAttempt(job *Job, n int, err error) {
	kind, cycle := failureOf(err)
	s.writeMarker(job, "attempts.json", attemptRecord{Attempts: n, LastError: err.Error(), Kind: kind, Cycle: cycle})
}

// markQuarantined persists the quarantine decision and a crash dump for
// postmortems; the job directory (checkpoints included) is kept.
func (s *Server) markQuarantined(job *Job, err error, attempts int) {
	if se, ok := robust.AsSimError(err); ok && se.Dump != nil && s.cfg.StateDir != "" {
		snapshot.WriteAtomic(filepath.Join(s.jobDir(job), "crash.json"), se.Dump.WriteJSON)
	}
	kind, cycle := failureOf(err)
	s.writeMarker(job, "quarantined.json", quarantineRecord{Attempts: attempts, Error: err.Error(), Kind: kind, Cycle: cycle})
}

// writeJSONAtomic publishes v, indented, at path (snapshot.WriteAtomic),
// so a host crash can neither expose a partial file nor lose the rename.
// Best effort: persistence failures never fail the in-memory state change.
func writeJSONAtomic(path string, v any) {
	if b, err := json.MarshalIndent(v, "", "  "); err == nil {
		snapshot.WriteAtomic(path, func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		})
	}
}

// quarantineSuffix marks a job directory or persisted file set aside at
// startup because its contents no longer parse.
const quarantineSuffix = ".corrupt"

// quarantineFile renames a corrupt persisted file aside (best effort) and
// returns the new name for logging.
func quarantineFile(path string) string {
	aside := path + quarantineSuffix
	if err := os.Rename(path, aside); err != nil {
		return ""
	}
	return aside
}
