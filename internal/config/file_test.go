package config

import (
	"os"
	"testing"
)

func TestParseOverridesBase(t *testing.T) {
	g, err := Parse([]byte(`{
		"name": "OrinNX",
		"base": "JetsonOrin",
		"num_sms": 8,
		"mem_bandwidth_gbps": 102.4,
		"core_clock_mhz": 918
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "OrinNX" || g.NumSMs != 8 || g.CoreClockMHz != 918 {
		t.Errorf("overrides not applied: %+v", g)
	}
	// Inherited from the Orin base.
	if g.L2Size != 4<<20 || g.MaxWarpsPerSM != 64 {
		t.Errorf("base fields not inherited: %+v", g)
	}
}

func TestParseDefaultsToOrinBase(t *testing.T) {
	g, err := Parse([]byte(`{"name": "X"}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSMs != 14 {
		t.Errorf("default base not Orin: %d SMs", g.NumSMs)
	}
}

func TestParseRejectsUnknownFieldsAndInvalid(t *testing.T) {
	if _, err := Parse([]byte(`{"smCount": 8}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// Caches are line-granular; a file asking for sectors is refused, not
	// run without them.
	if _, err := Parse([]byte(`{"sector_size": 32}`)); err == nil {
		t.Error("sector_size accepted")
	}
	if _, err := Parse([]byte(`{"num_sms": 0}`)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Parse([]byte(`{"base": "A100"}`)); err == nil {
		t.Error("unknown base accepted")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLoadFile(t *testing.T) {
	path := t.TempDir() + "/gpu.json"
	if err := os.WriteFile(path, []byte(`{"base": "RTX3070", "name": "RTX3070-OC", "core_clock_mhz": 1400}`), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSMs != 46 || g.CoreClockMHz != 1400 {
		t.Errorf("loaded config wrong: %+v", g)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}
