// Package journal implements the sweep checkpoint journal: a JSON-lines
// file that records every completed case of a study so an interrupted
// sweep (crash, Ctrl-C, power loss) resumes where it stopped instead of
// rerunning hundreds of simulations.
//
// The file is a log followed by a pad: the intact prefix of CRC'd lines,
// then NUL bytes up to the end of the file, which is a multiple of one
// segment (256 KiB). Create writes the header and pads the first segment;
// every Append writes its one line over the pad, where the prefix ends,
// and fsyncs it. Nothing already in the prefix is rewritten, and the
// fsync flushes blocks the file already has: only an Append whose line
// would cross the end of the pad first writes the next segment of NULs,
// and that is the only write that changes the file's size. Integrity
// model:
//
//   - Create replaces the file atomically (tmp + fsync + rename + fsync
//     of the directory), so a crash during Create leaves either no
//     journal or one Open accepts, and a crash after it cannot lose the
//     file.
//   - The first line is a header carrying the schema Version and a
//     configuration hash; Open refuses a journal whose hash differs from
//     the resuming study's, so a stale journal cannot silently splice
//     results from a different configuration into a new study.
//   - Every line carries a CRC of its payload, catching external
//     corruption (truncation, editor mangling, bit rot) and the one thing
//     a crash or a failed write can leave: a fragment of the last line,
//     which no caller was told is durable. Recovery stops at the first
//     damaged line — a last line without its newline counts — and keeps
//     everything before it. A line that starts with NUL is the pad: the
//     end of the log. If everything after it is NUL too the pad is reused;
//     anything else there is damage.
//   - Only the writer removes damage, just before it writes: Open never
//     modifies the file; the first Append after Open found damage, and the
//     one after a failed Append, first truncate the file to the end of the
//     intact prefix (and then pad it again), so no record lands behind
//     damage, out of recovery's reach.
//   - One handle appends to a file at a time; any number may read. Appends
//     write at an offset, not with O_APPEND, so two writers would overwrite
//     each other's lines instead of interleaving them.
//
// The pad needs no schema Version bump. A reader from before it meets the
// pad as a torn last line, so it recovers exactly the intact prefix and
// cuts the pad on its next Append; a file written before it has no pad and
// gets one on its first Append here.
//
// Case payloads are opaque JSON produced by the sweep engine. Go's JSON
// encoding of float64 is round-trip exact, so a case restored from the
// journal is bit-identical to the run that produced it.
package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/schema"
)

// Version is the on-disk schema version, shared with the trace JSONL
// exporter and the qosd v1 API via internal/schema. Bump schema.Version
// when the line layout changes; Open rejects journals written by other
// versions.
const Version = schema.Version

// Sentinel errors callers can test with errors.Is.
var (
	// ErrConfigMismatch marks a journal written by a study with a
	// different configuration hash.
	ErrConfigMismatch = errors.New("journal: config hash mismatch (journal belongs to a different study)")
	// ErrVersion marks a journal written by an unsupported schema
	// version. It wraps schema.ErrVersion, so both
	// errors.Is(err, journal.ErrVersion) and
	// errors.Is(err, schema.ErrVersion) hold.
	ErrVersion = fmt.Errorf("journal: unsupported schema version: %w", schema.ErrVersion)
	// ErrNoHeader marks a journal whose first line is missing or corrupt.
	ErrNoHeader = errors.New("journal: missing or corrupt header")
	// ErrClosed is returned by Append after Close.
	ErrClosed = errors.New("journal: closed")
)

// line is the on-disk representation of one record.
type line struct {
	V      int             `json:"v"`
	Kind   string          `json:"kind"` // "header" | "case"
	Config string          `json:"config,omitempty"`
	Stage  string          `json:"stage,omitempty"`
	Index  int             `json:"index,omitempty"`
	Data   json.RawMessage `json:"data,omitempty"`
	CRC    uint32          `json:"crc"`
}

// payload returns the bytes the line's CRC covers.
func (l line) payload() []byte {
	if l.Kind == "header" {
		return []byte(l.Config)
	}
	return l.Data
}

// Record is one decoded journal line.
type Record struct {
	Header bool   // true for the header line
	Config string // header only: the study's configuration hash
	Stage  string // case only: sweep stage key
	Index  int    // case only: deterministic case index
	Data   json.RawMessage
}

// Decode parses and validates one journal line: JSON shape, schema
// version, field sanity and payload CRC. It is the single entry point for
// untrusted bytes (FuzzJournalDecode fuzzes it).
func Decode(b []byte) (Record, error) {
	var l line
	if err := json.Unmarshal(b, &l); err != nil {
		return Record{}, fmt.Errorf("journal: bad line: %w", err)
	}
	if l.V != Version {
		return Record{}, fmt.Errorf("%w: %d (want %d)", ErrVersion, l.V, Version)
	}
	switch l.Kind {
	case "header":
		if l.Config == "" {
			return Record{}, errors.New("journal: header without config hash")
		}
	case "case":
		if l.Stage == "" || l.Index < 0 || len(l.Data) == 0 {
			return Record{}, errors.New("journal: malformed case line")
		}
	default:
		return Record{}, fmt.Errorf("journal: unknown line kind %q", l.Kind)
	}
	if crc := crc32.ChecksumIEEE(l.payload()); crc != l.CRC {
		return Record{}, fmt.Errorf("journal: CRC mismatch (stored %08x, computed %08x)", l.CRC, crc)
	}
	return Record{
		Header: l.Kind == "header",
		Config: l.Config,
		Stage:  l.Stage,
		Index:  l.Index,
		Data:   l.Data,
	}, nil
}

// encode stamps version and CRC and serializes the line.
func encode(l line) ([]byte, error) {
	l.V = Version
	l.CRC = crc32.ChecksumIEEE(l.payload())
	return json.Marshal(l)
}

// Hash fingerprints a configuration value: SHA-256 over its JSON
// encoding, hex-encoded. Callers hash everything that determines sweep
// results (device config, window, seed, grids) so Open can reject stale
// journals. Struct fields encode in declaration order and maps sort by
// key, so equal values always hash equal.
func Hash(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("journal: hash config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// entryKey addresses one completed case.
type entryKey struct {
	stage string
	index int
}

// maxLine bounds one line; a longer run of bytes is damage, not an allocation.
const maxLine = 16 << 20

// segment is the unit the file grows by. Its size trades how often an
// Append pays for growing the file against what Create writes and Open
// reads (EXPERIMENTS.md, "One round trip, one in-place flush").
const segment = 256 << 10

// zeros is what the pad is written from, so growing allocates nothing.
var zeros [segment]byte

// Journal is an open checkpoint journal. All methods are safe for
// concurrent use; the sweep engine appends from every worker goroutine.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File // write descriptor; nil once closed
	size    int64    // end of the intact prefix: every byte before it is a whole valid line
	end     int64    // end of the pad: every byte in [size, end) is NUL
	cut     bool     // the file holds damage past size (found by Open, left by a failed Append)
	entries map[entryKey]json.RawMessage
}

// Create starts a fresh journal at path, replacing any existing file,
// and durably writes the header, padded to the end of the first segment.
// The file is written beside path and renamed over it, so path never
// holds a partial header.
func Create(path, configHash string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	hl, err := encode(line{Kind: "header", Config: configHash})
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hl = append(hl, '\n')
	if _, err = f.Write(hl); err == nil {
		_, err = f.Write(zeros[:segment-len(hl)%segment])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return nil, err
	}
	return Open(path, configHash)
}

// syncDir fsyncs a directory, which makes a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanLine is bufio.ScanLines that keeps the newline, so Open can count
// the bytes of each line and tell a last line that never got its own. A
// NUL byte ends a token: no line holds one (JSON escapes every control
// character), and a run of them, the pad, comes back as tokens of its
// own, at most one buffer each.
func scanLine(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if len(data) == 0 {
		return 0, nil, nil
	}
	if n := nulRun(data); n > 0 {
		return n, data[:n], nil
	}
	line := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line = data[:i+1]
	}
	if z := bytes.IndexByte(line, 0); z >= 0 {
		line = line[:z] // a torn line running into the pad
	} else if line[len(line)-1] != '\n' && !atEOF {
		return 0, nil, nil
	}
	return len(line), line, nil
}

// nulRun returns the length of b's leading run of NUL bytes.
func nulRun(b []byte) int {
	const chunk = 4 << 10
	n := 0
	for n+chunk <= len(b) && bytes.Equal(b[n:n+chunk], zeros[:chunk]) {
		n += chunk
	}
	for n < len(b) && b[n] == 0 {
		n++
	}
	return n
}

// Open loads an existing journal for resume, verifying the schema version
// and that its header hash matches configHash. A missing file starts a
// fresh journal (resuming a study that never checkpointed is legal).
// Recovery stops at the first damaged line — one that fails Decode, runs
// past maxLine, or is last and lacks its newline — or at the pad;
// everything before it is intact by construction. The pad is read in
// buffer-sized chunks to check that it is all NUL. Open never writes:
// damage stays in the file until the first Append cuts it, so a handle
// that is never appended to leaves the file as it was. The handle holds a
// descriptor until Close.
func Open(path, configHash string) (*Journal, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return Create(path, configHash)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	j := &Journal{path: path, entries: make(map[entryKey]json.RawMessage)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	sc.Split(scanLine)
	var pad int64 // NUL bytes read past the intact prefix
	first := true
scan:
	for sc.Scan() {
		raw := sc.Bytes()
		switch {
		case raw[0] == 0:
			pad += int64(len(raw))
			continue
		case pad > 0 || raw[len(raw)-1] != '\n':
			j.cut = true
			break scan
		}
		b := bytes.TrimSpace(raw)
		if len(b) == 0 {
			j.size += int64(len(raw))
			continue
		}
		rec, derr := Decode(b)
		if derr != nil {
			if first {
				if errors.Is(derr, ErrVersion) {
					return nil, derr
				}
				return nil, fmt.Errorf("%w: %v", ErrNoHeader, derr)
			}
			j.cut = true
			break
		}
		if first {
			if !rec.Header {
				return nil, ErrNoHeader
			}
			if rec.Config != configHash {
				return nil, fmt.Errorf("%w: journal %.12s… vs study %.12s…", ErrConfigMismatch, rec.Config, configHash)
			}
			first = false
		} else if !rec.Header {
			j.entries[entryKey{rec.Stage, rec.Index}] = rec.Data
		}
		j.size += int64(len(raw))
	}
	if err := sc.Err(); err != nil {
		if !errors.Is(err, bufio.ErrTooLong) {
			return nil, err
		}
		j.cut = true
	}
	if first {
		return nil, ErrNoHeader
	}
	j.end = j.size + pad
	if j.f, err = os.OpenFile(path, os.O_WRONLY, 0); err != nil {
		return nil, err
	}
	return j, nil
}

// Append durably records one completed case: v is marshaled to JSON and
// written as one CRC'd line where the intact prefix ends, over the pad,
// by one write and one fsync, before Append returns. Damage past the
// intact prefix (what Open stopped at, a failed Append's fragment) is
// truncated away first; a line that would cross the end of the pad first
// writes the next segment of it. An Append that fails cuts its own
// fragment before returning the error; while that cut cannot be made
// every later Append fails too rather than write where recovery stops.
func (j *Journal) Append(stage string, index int, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal case %s/%d: %w", stage, index, err)
	}
	l, err := encode(line{Kind: "case", Stage: stage, Index: index, Data: data})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrClosed
	}
	if j.cut {
		if err := j.f.Truncate(j.size); err != nil {
			return err
		}
		j.cut, j.end = false, j.size
	}
	l = append(l, '\n')
	err = j.grow(j.size + int64(len(l)))
	if err == nil {
		_, err = j.f.WriteAt(l, j.size)
	}
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.cut, j.end = j.f.Truncate(j.size) != nil, j.size
		return err
	}
	j.size += int64(len(l))
	j.entries[entryKey{stage, index}] = data
	return nil
}

// grow writes pad past the end of the file, a segment boundary at a
// time, until the pad reaches to. It is the only write that changes the
// file's size.
func (j *Journal) grow(to int64) error {
	for j.end < to {
		n := segment - j.end%segment
		if _, err := j.f.WriteAt(zeros[:n], j.end); err != nil {
			return err
		}
		j.end += n
	}
	return nil
}

// Lookup returns the journaled payload for one case.
func (j *Journal) Lookup(stage string, index int) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.entries[entryKey{stage, index}]
	return data, ok
}

// Completed returns every journaled case of a stage, keyed by case index.
func (j *Journal) Completed(stage string) map[int]json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[int]json.RawMessage)
	for k, v := range j.entries {
		if k.stage == stage {
			out[k.index] = v
		}
	}
	return out
}

// Each calls fn for every journaled case of a stage in ascending index
// order — the order a client that numbers its records replays them in —
// and stops at the first error fn returns.
func (j *Journal) Each(stage string, fn func(index int, data json.RawMessage) error) error {
	done := j.Completed(stage)
	idxs := make([]int, 0, len(done))
	for i := range done {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if err := fn(i, done[i]); err != nil {
			return err
		}
	}
	return nil
}

// Len reports the number of journaled cases across all stages.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the journal's descriptor; every Append was already
// fsynced, so the close itself is all that can fail. It is idempotent,
// Append after Close returns ErrClosed, and reads keep working.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
