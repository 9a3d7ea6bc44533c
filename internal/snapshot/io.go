package snapshot

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"crisp/internal/robust"
)

// Header is the first line of a snapshot file: plain JSON, so `head -1`
// identifies any snapshot without decoding the body. Field order is
// declaration order, which keeps Magic first in the serialized form.
type Header struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// Schema fingerprints the structs the body was walked from. The body
	// is positional, so a file loads only where Version and Schema both
	// equal the reading build's.
	Schema  string `json:"schema"`
	Cycle   int64  `json:"cycle"`
	Policy  string `json:"policy"`
	Scene   string `json:"scene,omitempty"`
	Compute string `json:"compute,omitempty"`
	// SpecDigest is the canonical job digest (Spec.JobDigest): `head -1`
	// tells which content-addressed result a snapshot belongs to.
	SpecDigest string `json:"spec_digest,omitempty"`
	// BodyLen and BodyFNV integrity-check the binary body that follows:
	// BodyLen bytes of gzip-compressed envelope walk, hashed with FNV-1a-64.
	BodyLen int64  `json:"body_len"`
	BodyFNV uint64 `json:"body_fnv"`
}

// maxBodyLen caps the compressed body a decoder will read, and
// maxDecompressed caps what it will inflate — hostile headers and
// gzip bombs fail cleanly instead of exhausting memory.
const (
	maxBodyLen      = 1 << 31 // 2 GiB compressed
	maxDecompressed = 1 << 33 // 8 GiB inflated
)

func snapErr(msg string, cause error) error {
	return &robust.SimError{Kind: robust.KindSnapshot, Msg: msg, Err: cause}
}

// Encode writes env to w: one JSON header line, then the gzip-compressed
// walk of env (visit.go) the header integrity-checks.
func Encode(w io.Writer, env *Envelope) error {
	var body bytes.Buffer
	// BestSpeed: checkpoints are written every few hundred thousand cycles
	// on the run's critical path, and gzip dominates the save cost. The
	// body is mostly small integers, which compress well at any level.
	zw, _ := gzip.NewWriterLevel(&body, gzip.BestSpeed)
	zw.Write(encodeBody(env))
	if err := zw.Close(); err != nil {
		return snapErr("compressing snapshot body", err)
	}
	h := fnv.New64a()
	h.Write(body.Bytes())
	hdr := Header{
		Magic:      Magic,
		Version:    env.Version,
		Schema:     schema,
		Cycle:      env.State.Arch.Cycle,
		Policy:     env.Spec.Policy,
		Scene:      env.Spec.Scene,
		Compute:    env.Spec.Compute,
		SpecDigest: env.Spec.JobDigest(),
		BodyLen:    int64(body.Len()),
		BodyFNV:    h.Sum64(),
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return snapErr("encoding snapshot header", err)
	}
	hb = append(hb, '\n')
	if _, err := w.Write(hb); err != nil {
		return snapErr("writing snapshot header", err)
	}
	if _, err := w.Write(body.Bytes()); err != nil {
		return snapErr("writing snapshot body", err)
	}
	return nil
}

// readHeader reads the header line and refuses what this build cannot
// load: a file that is not a snapshot, or one another format wrote.
func readHeader(br *bufio.Reader) (*Header, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, snapErr("reading snapshot header", err)
	}
	// Reject non-snapshot files before handing the line to the JSON
	// decoder: the magic field is serialized first by construction.
	if !strings.HasPrefix(line, `{"magic":"`+Magic+`"`) {
		return nil, snapErr("not a CRISP snapshot (bad magic)", nil)
	}
	var hdr Header
	if err := json.Unmarshal([]byte(line), &hdr); err != nil {
		return nil, snapErr("parsing snapshot header", err)
	}
	if hdr.Version != FormatVersion || hdr.Schema != schema {
		return nil, snapErr(fmt.Sprintf("snapshot format version %d (schema %q), this build reads version %d (schema %q): re-checkpoint with this build",
			hdr.Version, hdr.Schema, FormatVersion, schema), nil)
	}
	return &hdr, nil
}

// Decode reads a snapshot from r. Every failure mode — truncation,
// corruption, a foreign version or schema, hostile length fields, input
// that ends early or runs on, even a panic inside the walk — returns a
// KindSnapshot SimError; Decode never panics.
func Decode(r io.Reader) (env *Envelope, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			env, err = nil, snapErr(fmt.Sprintf("decoding snapshot body: %v", rec), nil)
		}
	}()
	br := bufio.NewReader(r)
	hdr, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if hdr.BodyLen < 0 || hdr.BodyLen > maxBodyLen {
		return nil, snapErr(fmt.Sprintf("snapshot body length %d out of range", hdr.BodyLen), nil)
	}
	body := make([]byte, hdr.BodyLen)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, snapErr("snapshot body truncated", err)
	}
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != hdr.BodyFNV {
		return nil, snapErr("snapshot body checksum mismatch (file corrupt)", nil)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, snapErr("snapshot body is not valid gzip", err)
	}
	defer zr.Close()
	e := decodeBody(io.LimitReader(zr, maxDecompressed))
	if e.Version != FormatVersion {
		return nil, snapErr(fmt.Sprintf("snapshot envelope version %d disagrees with header", e.Version), nil)
	}
	return e, nil
}

// LoadFile reads and decodes the snapshot at path.
func LoadFile(path string) (*Envelope, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, snapErr("opening snapshot", err)
	}
	defer f.Close()
	return Decode(f)
}

// PeekHeader reads only the JSON header line of the snapshot at path —
// enough to learn its cycle and spec digest without decoding the body. A
// header Decode would refuse is refused here too.
func PeekHeader(path string) (*Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, snapErr("opening snapshot", err)
	}
	defer f.Close()
	return readHeader(bufio.NewReader(f))
}

// Ext is the snapshot file extension.
const Ext = ".crispsnap"

// fileName is the canonical checkpoint name: zero-padded so lexical order
// is cycle order.
func fileName(cycle int64) string {
	return fmt.Sprintf("ckpt-%016d%s", cycle, Ext)
}

// Store writes checkpoints into a directory with atomic replace and
// bounded retention.
type Store struct {
	// Dir is the checkpoint directory, created on first save.
	Dir string
	// Retain is the number of newest checkpoints to keep; <= 0 means
	// DefaultRetain. The final snapshot written on failure is exempt.
	Retain int
}

// DefaultRetain is the default number of periodic checkpoints kept.
const DefaultRetain = 3

// Save atomically writes env as the checkpoint for its cycle: the file is
// written to a temp name in the same directory and renamed into place, so
// a crash mid-write never leaves a partial file under a checkpoint name.
// After a successful write, checkpoints beyond the retention bound are
// pruned oldest-first. Returns the final path.
func (s *Store) Save(env *Envelope) (string, error) {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return "", snapErr("creating checkpoint directory", err)
	}
	final := filepath.Join(s.Dir, fileName(env.State.Arch.Cycle))
	if err := writeAtomic(final, env); err != nil {
		return "", err
	}
	s.prune()
	return final, nil
}

// SaveFinal writes the failure-time snapshot under a fixed name next to
// the crash dump; it is never pruned by retention.
func (s *Store) SaveFinal(env *Envelope) (string, error) {
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return "", snapErr("creating checkpoint directory", err)
	}
	final := filepath.Join(s.Dir, "final"+Ext)
	if err := writeAtomic(final, env); err != nil {
		return "", err
	}
	return final, nil
}

func writeAtomic(final string, env *Envelope) error {
	return WriteAtomic(final, func(w io.Writer) error { return Encode(w, env) })
}

// WriteAtomic publishes the file at path whole or not at all: write fills
// a temp file in the same directory, which is fsynced before it is
// renamed over path — the rename must never publish a name whose bytes
// are still only in the page cache — and the directory is fsynced after,
// so the rename itself survives a host crash. The one write path of every
// file this program persists.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return snapErr("creating temp file", err)
	}
	name := tmp.Name()
	err = write(tmp)
	if err == nil {
		if serr := tmp.Sync(); serr != nil {
			err = snapErr("syncing temp file", serr)
		}
	}
	if cerr := tmp.Close(); err == nil && cerr != nil {
		err = snapErr("closing temp file", cerr)
	}
	if err == nil {
		if rerr := os.Rename(name, path); rerr != nil {
			err = snapErr("publishing "+path, rerr)
		}
	}
	if err != nil {
		os.Remove(name)
		return err
	}
	SyncDir(dir)
	return nil
}

// SyncDir fsyncs a directory, making recently renamed entries durable.
// Best effort: filesystems without directory fsync (or a racing removal)
// must not fail a write that already succeeded.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// prune removes periodic checkpoints beyond the retention bound,
// oldest-first. Prune failures are ignored: retention is best-effort and
// must never fail a save that already succeeded.
func (s *Store) prune() {
	keep := s.Retain
	if keep <= 0 {
		keep = DefaultRetain
	}
	names := listCheckpoints(s.Dir)
	for _, n := range names[:max(0, len(names)-keep)] {
		os.Remove(filepath.Join(s.Dir, n))
	}
}

// listCheckpoints returns periodic checkpoint file names in dir, sorted
// ascending by cycle (lexical order by construction). final.crispsnap is
// excluded.
func listCheckpoints(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, Ext) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Candidates returns every snapshot path in dirs in resume preference
// order: newest first by header cycle across all of them, final.crispsnap
// participating like any periodic checkpoint (it is normally the newest).
// A file whose header this build cannot load — unreadable, or another
// format's — sorts last: a caller walking the list still visits it (and
// sets it aside) before giving up.
func Candidates(dirs ...string) []string {
	var out []string
	cycle := make(map[string]int64)
	for _, dir := range dirs {
		names := listCheckpoints(dir)
		if _, err := os.Stat(filepath.Join(dir, "final"+Ext)); err == nil {
			names = append(names, "final"+Ext)
		}
		for _, n := range names {
			path := filepath.Join(dir, n)
			cycle[path] = -1
			if hdr, err := PeekHeader(path); err == nil {
				cycle[path] = hdr.Cycle
			}
			out = append(out, path)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return cycle[out[i]] > cycle[out[j]] })
	return out
}

// LoadNewest loads the newest snapshot of job (by its header's SpecDigest;
// "" = any job) that dirs hold, ranked by Candidates, falling back to
// progressively older checkpoints when the newest is corrupt, truncated or
// another job's — the supervised-retry recovery path, one scan over every
// directory a task's attempts checkpointed into. Each file passed over on
// the way is renamed aside to <name>.corrupt (so the next attempt does not
// re-try it) and reported in aside. When no snapshot qualifies, env is nil
// and err carries the last failure (KindSnapshot); the caller falls back
// to a fresh run.
func LoadNewest(job string, dirs ...string) (env *Envelope, aside []string, err error) {
	cands := Candidates(dirs...)
	if len(cands) == 0 {
		return nil, nil, snapErr(fmt.Sprintf("no snapshots in %s", strings.Join(dirs, ", ")), nil)
	}
	for _, path := range cands {
		hdr, lerr := PeekHeader(path)
		if lerr == nil && job != "" && hdr.SpecDigest != job {
			lerr = snapErr(fmt.Sprintf("%s is a snapshot of job %s, not %s", path, hdr.SpecDigest, job), nil)
		}
		if lerr == nil {
			env, lerr = LoadFile(path)
		}
		if lerr == nil {
			return env, aside, nil
		}
		err = lerr
		if renameErr := os.Rename(path, path+".corrupt"); renameErr == nil {
			aside = append(aside, path)
		}
	}
	return nil, aside, err
}

// Resolve turns a -resume argument into a snapshot path: a file path is
// used as-is, a directory resolves to its newest snapshot by header cycle
// (a failed run's final.crispsnap normally, a periodic checkpoint when the
// final one is stale).
func Resolve(arg string) (string, error) {
	info, err := os.Stat(arg)
	if err != nil {
		return "", snapErr("resolving snapshot path", err)
	}
	if !info.IsDir() {
		return arg, nil
	}
	cands := Candidates(arg)
	if len(cands) == 0 {
		return "", snapErr(fmt.Sprintf("no snapshots in %s", arg), nil)
	}
	return cands[0], nil
}
