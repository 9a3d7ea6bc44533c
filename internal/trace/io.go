package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"crisp/internal/isa"
)

// formatVersion fingerprints the trace file format: the container layout
// revision in the high bits and the ISA's opcode count in the low bits,
// because opcode insertion renumbers every serialized instruction.
// Revision 1 was a gob stream of kernels holding one []uint64 per memory
// instruction; it is refused like any other version.
const formatVersion = 2<<16 | isa.OpcodeCount

// A trace file is one gzip member holding, little-endian and length-prefixed:
//
//	u32 formatVersion, u32 kernels, then per kernel
//	  u32 length + name, u8 kind, i64 stream, threads/CTA, regs/thread,
//	  shared memory, u32 CTAs, then per CTA
//	    i64 ID, u32 warps, per warp {i64 ID, u32 instructions, u32 arena bytes},
//	    every warp's instructions, instBytes each, then every warp's address
//	    arena, as it sits in memory (addrs.go)
//
// An instruction is its six byte-sized fields, a byte that is 1 when it owns
// the next record of its warp's arena, and its mask. The file carries nothing
// derived — no record offsets, no line table: Load walks the records to place
// them and derives the tables, so a corrupt file can only describe other
// addresses, never steer timing through a table nobody checks.
const (
	warpHeaderBytes = 8 + 4 + 4
	instBytes       = 6 + 1 + 4
)

// Save serializes kernels to w. This is the trace-driven workflow: front
// ends collect traces once, and timing experiments replay them in any
// combination.
func Save(w io.Writer, kernels []*Kernel) error {
	zw := gzip.NewWriter(w)
	e := encoder{w: zw}
	e.u32(formatVersion)
	e.u32(len(kernels))
	for _, k := range kernels {
		e.kernel(k)
		if e.err != nil {
			return fmt.Errorf("trace: encode kernel %q: %w", k.Name, e.err)
		}
	}
	if e.flush(); e.err != nil {
		return fmt.Errorf("trace: encode: %w", e.err)
	}
	return zw.Close()
}

// encoder buffers a file's bytes and hands them to w a CTA at a time; the
// first error sticks.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *encoder) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// u32 writes a length or count, all of which the format holds in 32 bits.
func (e *encoder) u32(n int) {
	if (n < 0 || n > math.MaxUint32) && e.err == nil {
		e.err = fmt.Errorf("count %d does not fit the format's 32 bits", n)
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(n))
}

func (e *encoder) i64(n int) { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(n)) }

func (e *encoder) kernel(k *Kernel) {
	e.u32(len(k.Name))
	e.buf = append(e.buf, k.Name...)
	e.buf = append(e.buf, byte(k.Kind))
	e.i64(k.Stream)
	e.i64(k.ThreadsPerCTA)
	e.i64(k.RegsPerThread)
	e.i64(k.SharedMem)
	e.u32(len(k.CTAs))
	for i := range k.CTAs {
		cta := &k.CTAs[i]
		e.i64(cta.ID)
		e.u32(len(cta.Warps))
		for j := range cta.Warps {
			w := &cta.Warps[j]
			e.i64(w.ID)
			e.u32(len(w.Insts))
			e.u32(len(w.addrs))
		}
		for j := range cta.Warps {
			for l := range cta.Warps[j].Insts {
				in := &cta.Warps[j].Insts[l]
				owns := byte(0)
				if in.rec {
					owns = 1
				}
				e.buf = append(e.buf, byte(in.Op), in.Dst, in.SrcA, in.SrcB, in.SrcC, byte(in.Class), owns)
				e.buf = binary.LittleEndian.AppendUint32(e.buf, in.Mask)
			}
		}
		for j := range cta.Warps {
			e.buf = append(e.buf, cta.Warps[j].addrs...)
		}
		e.flush()
	}
}

// Load reads kernels written by Save, gives warps that ran the same program
// one shared array of it, checks that every warp's address records tile its
// arena, derives the line tables, which the file does not carry, and
// validates each distinct program once and each warp's streams. What it
// returns is safe to expand (Warp.Addrs); whether it is a well-formed trace
// is still Validate's (or Check's) to say.
func Load(r io.Reader) ([]*Kernel, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: open gzip stream: %w", err)
	}
	defer zr.Close()
	d := decoder{r: bufio.NewReaderSize(zr, 64<<10)}
	version := d.u32()
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode version: %w", d.err)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("trace: format version %#x does not match this build's %#x (traces must be re-collected after ISA or trace-format changes)", version, formatVersion)
	}
	n := d.u32()
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode count: %w", d.err)
	}
	// Every count in the file is attacker-controlled (a corrupt or
	// malicious file): pre-allocations are capped and bulk reads commit
	// memory only as the bytes arrive (decoder.read), so a huge count fails
	// at the stream's end rather than OOM the host up front.
	kernels := make([]*Kernel, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		k, progErrs := d.kernel()
		if d.err != nil {
			return nil, fmt.Errorf("trace: decode kernel %d: %w", i, d.err)
		}
		k.deriveLineTable()
		for c := range k.CTAs {
			for j := range k.CTAs[c].Warps {
				k.CTAs[c].Warps[j].mark(progErrs[0])
				progErrs = progErrs[1:]
			}
		}
		kernels = append(kernels, k)
	}
	return kernels, nil
}

// decoder reads a file's fields; the first error sticks and every later
// read returns zeros.
type decoder struct {
	r       *bufio.Reader
	err     error
	word    [8]byte
	scratch []byte // a CTA's warp headers, then its instructions
	// Where each warp's instructions and address arena end in its CTA's.
	instEnds, addrEnds []int
	prog               []Inst   // the warp being decoded's program
	progs              programs // the kernel's programs
	progErrs           []error  // the verdict on each warp's program, in order
}

// read returns the next n bytes in buf's array, grown as needed. Memory is
// committed a chunk at a time, as the bytes arrive.
func (d *decoder) read(buf []byte, n int) []byte {
	const chunk = 1 << 20
	buf = buf[:0]
	for len(buf) < n && d.err == nil {
		step := min(n-len(buf), chunk)
		buf = slices.Grow(buf, step)[:len(buf)+step]
		d.fill(buf[len(buf)-step:])
	}
	if d.err != nil {
		return buf[:0]
	}
	return buf
}

// fill reads exactly len(p) bytes, or zeroes p and records why not.
func (d *decoder) fill(p []byte) {
	if d.err == nil {
		if _, d.err = io.ReadFull(d.r, p); d.err == io.EOF {
			d.err = io.ErrUnexpectedEOF
		}
	}
	if d.err != nil {
		clear(p)
	}
}

func (d *decoder) u8() byte {
	d.fill(d.word[:1])
	return d.word[0]
}

func (d *decoder) u32() int {
	d.fill(d.word[:4])
	return int(binary.LittleEndian.Uint32(d.word[:]))
}

func (d *decoder) i64() int {
	d.fill(d.word[:8])
	return int(int64(binary.LittleEndian.Uint64(d.word[:])))
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// kernel reads one kernel and returns it with the verdict on each of its
// warps' programs, in order.
func (d *decoder) kernel() (*Kernel, []error) {
	k := &Kernel{}
	k.Name = string(d.read(nil, d.u32()))
	k.Kind = KernelKind(d.u8())
	k.Stream = d.i64()
	k.ThreadsPerCTA = d.i64()
	k.RegsPerThread = d.i64()
	k.SharedMem = d.i64()
	n := d.u32()
	k.CTAs = make([]CTA, 0, min(n, 1<<16))
	d.progs, d.progErrs = programs{}, d.progErrs[:0]
	for i := 0; i < n && d.err == nil; i++ {
		k.CTAs = append(k.CTAs, d.cta())
	}
	return k, d.progErrs
}

// cta reads one CTA into two allocations, its warp headers and one address
// arena each warp's share is cut out of, capacity clipped, plus a copy of
// each program the kernel has not met before.
func (d *decoder) cta() CTA {
	cta := CTA{ID: d.i64()}
	nWarps := d.u32()
	d.scratch = d.read(d.scratch, nWarps*warpHeaderBytes)
	if d.err != nil {
		return cta
	}
	cta.Warps = make([]Warp, nWarps)
	d.instEnds, d.addrEnds = d.instEnds[:0], d.addrEnds[:0]
	insts, arena := 0, 0
	for i := range cta.Warps {
		h := d.scratch[i*warpHeaderBytes:]
		cta.Warps[i].ID = int(int64(binary.LittleEndian.Uint64(h)))
		insts += int(binary.LittleEndian.Uint32(h[8:]))
		arena += int(binary.LittleEndian.Uint32(h[12:]))
		d.instEnds, d.addrEnds = append(d.instEnds, insts), append(d.addrEnds, arena)
	}
	d.scratch = d.read(d.scratch, insts*instBytes)
	addrs := d.read(nil, arena)
	if d.err != nil {
		return cta
	}
	carveAddrArenas(cta.Warps, addrs, d.addrEnds)
	start := 0
	for i, end := range d.instEnds {
		d.prog = d.prog[:0]
		for j := start; j < end; j++ {
			p := d.scratch[j*instBytes : (j+1)*instBytes]
			if p[6] > 1 {
				d.fail("CTA %d: instruction %d has address flag %d", cta.ID, j, p[6])
				return cta
			}
			d.prog = append(d.prog, Inst{Op: isa.Opcode(p[0]), Dst: p[1], SrcA: p[2], SrcB: p[3], SrcC: p[4], Class: MemClass(p[5]),
				rec: p[6] == 1, Mask: binary.LittleEndian.Uint32(p[7:])})
		}
		start = end
		w := &cta.Warps[i]
		var err error
		w.Insts, err = d.progs.intern(d.prog)
		d.progErrs = append(d.progErrs, err)
		if err := w.validateStreams(); err != nil { // the records only: no table yet
			d.fail("CTA %d warp %d: %w", cta.ID, w.ID, err)
			return cta
		}
	}
	return cta
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
