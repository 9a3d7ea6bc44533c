package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"crisp/internal/obs"
)

// TestDecodeWorkerEvent pins the validation matrix the fuzzer explores:
// every well-formed event type round-trips, and each way a line can be
// malformed is an error, not a panic and not a half-valid event.
func TestDecodeWorkerEvent(t *testing.T) {
	valid := []workerEvent{
		{Type: evSample, Sample: &obs.Sample{Cycle: 4096}},
		{Type: evResume, Protocol: wireProtocol, Cycle: 2048, Corrupt: []string{"ckpt-000001.crisp"}},
		{Type: evResume, Protocol: wireProtocol, Cycle: noResume, Corrupt: []string{"ckpt-000001.crisp"}},
		{Type: evResume, Protocol: wireProtocol, Cycle: 4096},
		{Type: evHeartbeat},
		{Type: evResult, Protocol: wireProtocol, Result: &StoredResult{Digest: "0123456789abcdef", StatsDigest: "feedfacefeedface"}},
		{Type: evError, Protocol: wireProtocol, ErrKind: "crash", ErrCycle: 9000, ErrMsg: "sim crash at cycle 9000"},
	}
	for _, want := range valid {
		line, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := decodeWorkerEvent(line)
		if err != nil {
			t.Errorf("valid %s event rejected: %v", want.Type, err)
			continue
		}
		if got.Type != want.Type || got.Protocol != want.Protocol || got.Cycle != want.Cycle || len(got.Corrupt) != len(want.Corrupt) {
			t.Errorf("round trip mangled %s event: %+v", want.Type, got)
		}
	}

	invalid := map[string]string{
		"empty line":           "",
		"not json":             "not json at all",
		"json scalar":          `42`,
		"json array":           `[1,2,3]`,
		"no type":              `{}`,
		"unknown type":         `{"type":"gossip"}`,
		"unknown field":        `{"type":"heartbeat","surprise":true}`,
		"sample sans payload":  `{"type":"sample"}`,
		"result sans payload":  `{"type":"result"}`,
		"result digest short":  `{"type":"result","result":{"digest":"abc"}}`,
		"result digest upper":  `{"type":"result","result":{"digest":"0123456789ABCDEF"}}`,
		"error sans kind":      `{"type":"error","err_msg":"boom"}`,
		"resume before zero":   `{"type":"resume","cycle":-2}`,
		"fallback type":        `{"type":"fallback","corrupt":["ckpt-000001.crisp"]}`,
		"result with cached":   `{"type":"result","result":{"digest":"0123456789abcdef"},"cached":true}`,
		"type wrong json kind": `{"type":7}`,
		"truncated":            `{"type":"sample","sample":{"cycle":`,
	}
	for name, line := range invalid {
		if ev, err := decodeWorkerEvent([]byte(line)); err == nil {
			t.Errorf("%s accepted: %+v", name, ev)
		}
	}

	oversized := []byte(`{"type":"heartbeat","err_msg":"` + strings.Repeat("x", maxWireEvent) + `"}`)
	if _, err := decodeWorkerEvent(oversized); err == nil {
		t.Error("oversized line accepted")
	}
}

// FuzzWireDecode is the never-panic contract on the coordinator↔worker
// protocol: arbitrary bytes — a corrupted pipe, a truncated write, an
// adversarial peer — must decode to an error or to an event that carries
// everything its type promises. The CI wire-fuzz job runs this for a 10s
// smoke on every push.
func FuzzWireDecode(f *testing.F) {
	// Seed corpus: every valid event shape plus the interesting rejections.
	seeds := []string{
		`{"type":"sample","sample":{"cycle":4096,"frames":1}}`,
		`{"type":"resume","protocol":2,"cycle":2048,"corrupt":["ckpt-000001.crisp","ckpt-000002.crisp"]}`,
		`{"type":"resume","protocol":2,"cycle":-1,"corrupt":["ckpt-000001.crisp"]}`,
		`{"type":"resume","protocol":2,"cycle":-7}`,
		`{"type":"heartbeat"}`,
		`{"type":"result","protocol":2,"result":{"digest":"0123456789abcdef","stats_digest":"feedfacefeedface","cycles":65536}}`,
		`{"type":"result","result":{"digest":"0123456789abcdef"}}`,
		`{"type":"error","protocol":2,"err_kind":"crash","err_cycle":9000,"err_msg":"sim crash at cycle 9000"}`,
		`{"type":"error","protocol":1,"err_kind":"validation","err_msg":"worker speaks wire protocol 1"}`,
		`{"type":"gossip"}`,
		`{"type":"sample"}`,
		`{"type":"result","result":{"digest":"xyz"}}`,
		`{}`,
		``,
		`null`,
		`"heartbeat"`,
		`{"type":"heartbeat"`,
		"\x00\x01\x02",
		`{"type":"heartbeat","sample":null,"result":null}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := decodeWorkerEvent(line)
		if err != nil {
			if ev != nil {
				t.Fatalf("error return with non-nil event: %+v", ev)
			}
			return
		}
		// A decoded event must honor its type's promises — the supervisor
		// dereferences these without further checks.
		switch ev.Type {
		case evSample:
			if ev.Sample == nil {
				t.Fatal("sample event decoded without a sample")
			}
		case evResult:
			if ev.Result == nil {
				t.Fatal("result event decoded without a result")
			}
			if !validDigest(ev.Result.Digest) {
				t.Fatalf("result event decoded with invalid digest %q", ev.Result.Digest)
			}
		case evError:
			if ev.ErrKind == "" {
				t.Fatal("error event decoded without a kind")
			}
		case evResume:
			if ev.Cycle < noResume {
				t.Fatalf("resume event decoded at cycle %d", ev.Cycle)
			}
		case evHeartbeat:
		default:
			t.Fatalf("unknown type %q decoded without error", ev.Type)
		}
		// Valid events re-encode losslessly modulo field ordering: encode
		// and re-decode, and the result must be accepted too (the protocol
		// is self-consistent — what one end writes, the other end reads).
		reenc, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("re-encode of accepted event failed: %v", err)
		}
		ev2, err := decodeWorkerEvent(reenc)
		if err != nil {
			t.Fatalf("re-encoded accepted event rejected: %v\n%s", err, reenc)
		}
		if ev2.Type != ev.Type {
			t.Fatalf("type changed across re-encode: %q -> %q", ev.Type, ev2.Type)
		}
		_ = bytes.Equal(line, reenc)
	})
}
