package snapshot

import (
	"bytes"
	"testing"

	"crisp/internal/robust"
)

// FuzzSnapshotDecode drives Decode with arbitrary bytes. The contract under
// test is the robustness guarantee of the format: any input — truncated,
// bit-flipped, hostile header fields, garbage — either decodes or fails with
// a structured KindSnapshot SimError. A panic, or any other error type,
// fails the fuzz run.
func FuzzSnapshotDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleEnvelope(4242)); err != nil {
		f.Fatalf("Encode seed: %v", err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(encodeBody(sampleEnvelope(4242)))
	f.Add(good[:len(good)/2])
	f.Add(good[:bytes.IndexByte(good, '\n')+1])
	f.Add([]byte(`{"magic":"crispsnap","version":2,"schema":"` + schema + `","body_len":-5}` + "\n"))
	f.Add([]byte(`{"magic":"crispsnap","version":2,"schema":"` + schema + `","body_len":4294967296,"body_fnv":0}` + "\n"))
	for _, file := range hostileBodies(f, good) {
		f.Add(file)
	}
	f.Add([]byte("not a snapshot at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Once as a file, and once as the body of a well-framed file, so
		// mutations reach the walk and not only the checksum.
		for _, file := range [][]byte{data, reframe(t, good, data)} {
			env, err := Decode(bytes.NewReader(file))
			if err == nil {
				if env == nil {
					t.Fatalf("Decode returned nil envelope without error")
				}
				continue
			}
			if se, ok := robust.AsSimError(err); !ok || se.Kind != robust.KindSnapshot {
				t.Fatalf("Decode error is not a snapshot SimError: %v", err)
			}
		}
	})
}
