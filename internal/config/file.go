package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The paper's artifact supports experiment customization "by adjusting the
// GPU configuration file"; LoadFile provides the same workflow: a JSON
// file overriding any subset of a base configuration's fields.

// LoadFile reads a JSON GPU configuration. Fields not present inherit
// from the "base" configuration (JetsonOrin by default). The result is
// validated.
func LoadFile(path string) (GPU, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return GPU{}, err
	}
	return Parse(data)
}

// Parse decodes a JSON GPU configuration (see LoadFile).
func Parse(data []byte) (GPU, error) {
	type configFile struct {
		Base *string `json:"base"` // "JetsonOrin" or "RTX3070"; default JetsonOrin
		*GPU
	}
	// decode reads data over g: keys that are absent keep g's values.
	decode := func(g *GPU) (base *string, err error) {
		file := configFile{GPU: g}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		err = dec.Decode(&file)
		return file.Base, err
	}
	// The first pass finds the base and refuses a malformed file; the
	// second, which cannot fail, lays the file over that base.
	base, err := decode(new(GPU))
	if err != nil {
		return GPU{}, fmt.Errorf("config: parse: %w", err)
	}
	g := JetsonOrin()
	if base != nil {
		if g, err = ByName(*base); err != nil {
			return GPU{}, err
		}
	}
	decode(&g)
	if err := g.Validate(); err != nil {
		return GPU{}, err
	}
	return g, nil
}
