package config

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDigestFileVsPreset is the satellite acceptance test: a config loaded
// from a JSON file that reconstructs a preset field-by-field must digest
// identically to the preset itself.
func TestDigestFileVsPreset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "orin.json")
	// A file naming the base and overriding nothing reproduces the preset.
	if err := os.WriteFile(path, []byte(`{"base": "JetsonOrin"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	preset := JetsonOrin()
	if got, want := Digest(fromFile), Digest(preset); got != want {
		t.Fatalf("file-loaded config digest %s != preset digest %s", got, want)
	}

	// Overriding a field to its preset value must also digest identically:
	// the digest keys on content, not provenance.
	if err := os.WriteFile(path, []byte(`{"base": "JetsonOrin", "num_sms": 14}`), 0o644); err != nil {
		t.Fatal(err)
	}
	explicit, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Digest(explicit), Digest(preset); got != want {
		t.Fatalf("explicit-field config digest %s != preset digest %s", got, want)
	}
}

func TestDigestSeparatesConfigs(t *testing.T) {
	if Digest(JetsonOrin()) == Digest(RTX3070()) {
		t.Fatal("JetsonOrin and RTX3070 digest identically")
	}
	small := JetsonOrin()
	small.NumSMs = 4
	if Digest(small) == Digest(JetsonOrin()) {
		t.Fatal("changing NumSMs did not change the digest")
	}
}
