package snapshot

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crisp/internal/config"
)

// TestConfigDigestFileVsPreset: a config loaded from a JSON file that
// reconstructs a preset digests identically to the preset itself — the
// digest keys on content, not provenance.
func TestConfigDigestFileVsPreset(t *testing.T) {
	preset := ConfigDigest(config.JetsonOrin())
	path := filepath.Join(t.TempDir(), "orin.json")
	for _, body := range []string{
		`{"base": "JetsonOrin"}`,                // names the base, overrides nothing
		`{"base": "JetsonOrin", "num_sms": 14}`, // overrides a field to its preset value
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := config.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := ConfigDigest(g); got != preset {
			t.Errorf("%s digests %s, the preset %s", body, got, preset)
		}
	}
}

func TestConfigDigestSeparatesConfigs(t *testing.T) {
	if ConfigDigest(config.JetsonOrin()) == ConfigDigest(config.RTX3070()) {
		t.Fatal("JetsonOrin and RTX3070 digest identically")
	}
}

// keyedLeaves perturbs each leaf under the fields of *v in turn and
// reports whether digest moved, by field name.
func keyedLeaves[T any](t *testing.T, v *T, digest func(*T) string) map[string][]bool {
	t.Helper()
	base := digest(v)
	rv := reflect.ValueOf(v).Elem()
	moved := map[string][]bool{}
	k := 0
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		for end := k + leaves(rv.Field(i).Addr().Interface()); k < end; k++ {
			c := *v
			visit(&perturb{k: k}, reflect.ValueOf(&c))
			moved[name] = append(moved[name], digest(&c) != base)
		}
	}
	if k == 0 {
		t.Fatal("no leaves walked")
	}
	return moved
}

// TestConfigDigestEveryField: changing any field of config.GPU changes
// its digest. The walk enumerates the fields, so one added later is
// covered the moment it is declared.
func TestConfigDigestEveryField(t *testing.T) {
	g := config.JetsonOrin()
	for name, moved := range keyedLeaves(t, &g, func(g *config.GPU) string { return ConfigDigest(*g) }) {
		for _, m := range moved {
			if !m {
				t.Errorf("changing GPU.%s left ConfigDigest unchanged", name)
			}
		}
	}
}

// TestJobDigestEveryField: changing any Spec field changes JobDigest,
// except the observability cadences and Complete, which change no result.
func TestJobDigestEveryField(t *testing.T) {
	s := sampleEnvelope(1000).Spec
	s.Mix, s.RenderOptions, s.MetricsInterval = []byte(`{}`), []byte(`{}`), 256
	unkeyed := map[string]bool{"MetricsInterval": true, "DigestEvery": true, "Complete": true}
	fields := keyedLeaves(t, &s, (*Spec).JobDigest)
	if len(fields) != reflect.TypeOf(s).NumField() {
		t.Fatalf("walked %d Spec fields, it has %d", len(fields), reflect.TypeOf(s).NumField())
	}
	for name, moved := range fields {
		for _, m := range moved {
			if m == unkeyed[name] {
				t.Errorf("changing Spec.%s: JobDigest moved = %v, want %v", name, m, !unkeyed[name])
			}
		}
	}
}
