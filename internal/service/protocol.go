package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"crisp/internal/obs"
	"crisp/internal/robust"
)

// The coordinator↔worker wire protocol. A supervisor (the per-job
// isolation path in worker.go, or a fleet shard in coordinator.go) sends
// one workerRequest JSON document on the child's stdin; the child streams
// newline-delimited workerEvent JSON on stdout — at most one "resume"
// event first, any number of "sample" and "heartbeat" events, then
// exactly one terminal "result" or "error" event. The protocol carries
// summaries, never simulator internals, so both ends rebuild the job
// independently from the same by-value JobSpec.
//
// The request and the child's resume, result and error events carry
// wireProtocol. A child answers a request of another protocol with an
// error event naming both; the supervisor fails an attempt whose events
// lack the number or carry another (runWorkerProcess), so a -worker-bin
// from another build is refused instead of misread.
//
// Every inbound line passes through decodeWorkerEvent, which enforces the
// never-panic contract fuzzed by FuzzWireDecode: arbitrary bytes produce
// an error, never a crash, and a structurally valid event always carries
// the fields its type promises.

// wireProtocol numbers this revision of the protocol. Bump it whenever a
// field of workerRequest or workerEvent changes meaning or disappears.
const wireProtocol = 2

// Protocol event types (workerEvent.Type).
const (
	evSample    = "sample"
	evResume    = "resume"
	evHeartbeat = "heartbeat"
	evResult    = "result"
	evError     = "error"
)

// workerRequest is everything one attempt needs, resolved by the parent.
type workerRequest struct {
	Protocol int     `json:"protocol"` // wireProtocol
	Spec     JobSpec `json:"spec"`
	// CheckpointDir/CheckpointEvery enable periodic checkpoints — the
	// supervisor's recovery points if this worker dies. CheckpointDir is
	// the attempt's own a<N> directory; the attempt resumes from the
	// newest readable checkpoint in any a<N> beside it (reported via
	// "resume").
	CheckpointDir   string `json:"checkpoint_dir,omitempty"`
	CheckpointEvery int64  `json:"checkpoint_every,omitempty"`
	// Budget and Watchdog are the server-default-merged limits.
	Budget   int64 `json:"budget,omitempty"`
	Watchdog int64 `json:"watchdog,omitempty"`
	// ProgressInterval is the sample cadence.
	ProgressInterval int64 `json:"progress_interval,omitempty"`
	// HeartbeatEvery, when positive, makes the worker emit heartbeat
	// events on this wall-clock period — the liveness signal the
	// supervisor's silence timer watches between samples.
	HeartbeatEvery int64 `json:"heartbeat_every_ns,omitempty"`
	// KillAt is a chaos fault: the worker SIGKILLs itself at this
	// simulated cycle (0 = none), leaving no final snapshot — the hardest
	// crash the supervisor must recover from.
	KillAt int64 `json:"kill_at,omitempty"`
}

// workerEvent is one newline-delimited protocol message from the child.
type workerEvent struct {
	Type string `json:"type"` // evSample | evResume | evHeartbeat | evResult | evError
	// Protocol is the child's wireProtocol, on resume, result and error
	// events.
	Protocol int `json:"protocol,omitempty"`
	// Sample carries interval telemetry (Type "sample"), forwarded to the
	// job's hub so isolation is invisible to timeline subscribers.
	Sample *obs.Sample `json:"sample,omitempty"`
	// Cycle is the checkpoint the attempt restored (Type "resume"), or
	// noResume when it restored none; Corrupt lists the checkpoints it
	// renamed aside on the way.
	Cycle   int64    `json:"cycle,omitempty"`
	Corrupt []string `json:"corrupt,omitempty"`
	// Result is the completed attempt's cache entry (Type "result").
	Result *StoredResult `json:"result,omitempty"`
	// ErrKind/ErrCycle/ErrMsg reconstruct the SimError (Type "error").
	ErrKind  string `json:"err_kind,omitempty"`
	ErrCycle int64  `json:"err_cycle,omitempty"`
	ErrMsg   string `json:"err_msg,omitempty"`
}

// maxWireEvent bounds one protocol line. Samples are a few KB; results
// grow with per-task stats. 16 MiB matches the scanner buffer the
// supervisor reads with.
const maxWireEvent = 16 * 1024 * 1024

// decodeWorkerEvent parses and validates one protocol line. It never
// panics on any input (the fuzzed contract): malformed JSON, unknown
// fields, an unknown type, or a type missing its promised payload all
// return an error, so a corrupted or adversarial peer costs one attempt,
// never the coordinator.
func decodeWorkerEvent(line []byte) (*workerEvent, error) {
	if len(line) == 0 {
		return nil, fmt.Errorf("protocol: empty event line")
	}
	if len(line) > maxWireEvent {
		return nil, fmt.Errorf("protocol: event line of %d bytes exceeds the %d limit", len(line), maxWireEvent)
	}
	var ev workerEvent
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return nil, fmt.Errorf("protocol: malformed event: %w", err)
	}
	switch ev.Type {
	case evSample:
		if ev.Sample == nil {
			return nil, fmt.Errorf("protocol: sample event without a sample")
		}
	case evResume:
		if ev.Cycle < noResume {
			return nil, fmt.Errorf("protocol: resume event at cycle %d", ev.Cycle)
		}
	case evHeartbeat:
		// No required payload.
	case evResult:
		if ev.Result == nil {
			return nil, fmt.Errorf("protocol: result event without a result")
		}
		if !validDigest(ev.Result.Digest) {
			return nil, fmt.Errorf("protocol: result event with malformed digest %q", ev.Result.Digest)
		}
	case evError:
		if ev.ErrKind == "" {
			return nil, fmt.Errorf("protocol: error event without a kind")
		}
	default:
		return nil, fmt.Errorf("protocol: unknown event type %q", ev.Type)
	}
	return &ev, nil
}

// eventWriter serializes protocol events onto one stream: the sample sink
// runs on the simulation goroutine while the signal handler and heartbeat
// goroutines are live, so writes are mutexed.
type eventWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	w   *bufio.Writer
}

func newEventWriter(w io.Writer) *eventWriter {
	bw := bufio.NewWriter(w)
	return &eventWriter{enc: json.NewEncoder(bw), w: bw}
}

func (e *eventWriter) event(ev workerEvent) {
	switch ev.Type {
	case evResume, evResult, evError:
		ev.Protocol = wireProtocol
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.enc.Encode(ev) // Encode appends the newline framing
	e.w.Flush()
}

func (e *eventWriter) sample(smp obs.Sample) {
	e.event(workerEvent{Type: evSample, Sample: &smp})
}

func (e *eventWriter) heartbeat() {
	e.event(workerEvent{Type: evHeartbeat})
}

func (e *eventWriter) error(se *robust.SimError) {
	e.event(workerEvent{
		Type:     evError,
		ErrKind:  robust.DeepestKind(se).String(),
		ErrCycle: se.Cycle,
		ErrMsg:   se.Error(),
	})
}
