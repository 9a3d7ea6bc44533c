package trace

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"crisp/internal/isa"
)

// formatVersion fingerprints the trace file format: the container layout
// revision in the high bits and the ISA's opcode count in the low bits,
// because opcode insertion renumbers every serialized instruction.
const formatVersion = 1<<16 | isa.OpcodeCount

// Save serializes kernels to w (gob, gzip-compressed). This is the
// trace-driven workflow: front ends collect traces once, and timing
// experiments replay them in any combination.
func Save(w io.Writer, kernels []*Kernel) error {
	zw := gzip.NewWriter(w)
	enc := gob.NewEncoder(zw)
	if err := enc.Encode(formatVersion); err != nil {
		return fmt.Errorf("trace: encode version: %w", err)
	}
	if err := enc.Encode(len(kernels)); err != nil {
		return fmt.Errorf("trace: encode count: %w", err)
	}
	for _, k := range kernels {
		if err := enc.Encode(k); err != nil {
			return fmt.Errorf("trace: encode kernel %q: %w", k.Name, err)
		}
	}
	return zw.Close()
}

// Load reads kernels written by Save and derives their line tables, which
// the file does not carry.
func Load(r io.Reader) ([]*Kernel, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: open gzip stream: %w", err)
	}
	defer zr.Close()
	dec := gob.NewDecoder(zr)
	var version int
	if err := dec.Decode(&version); err != nil {
		return nil, fmt.Errorf("trace: decode version: %w", err)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("trace: format version %#x does not match this build's %#x (traces must be re-collected after ISA changes)", version, formatVersion)
	}
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("trace: decode count: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("trace: negative kernel count %d", n)
	}
	// Cap the pre-allocation: n is attacker-controlled (a corrupt or
	// malicious file), and a huge count must fail at decode — after 0
	// kernels decode — rather than OOM the host up front.
	capHint := n
	if capHint > 1024 {
		capHint = 1024
	}
	kernels := make([]*Kernel, 0, capHint)
	for i := 0; i < n; i++ {
		var k Kernel
		if err := dec.Decode(&k); err != nil {
			return nil, fmt.Errorf("trace: decode kernel %d: %w", i, err)
		}
		k.deriveLineTable()
		kernels = append(kernels, &k)
	}
	return kernels, nil
}

// SaveFile writes kernels to the named file.
func SaveFile(path string, kernels []*Kernel) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, kernels); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads kernels from the named file.
func LoadFile(path string) ([]*Kernel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
