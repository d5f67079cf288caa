// Package journal implements the daemons' decision log: a JSON-lines file
// that records every /v1 admission decision and release, and every fleet
// node decision and placement, so a restarted daemon (crash, Ctrl-C,
// power loss) rebuilds its state instead of forgetting what it admitted.
// Hash also fingerprints the configurations sweep row files are named by,
// and WriteFile is the atomic replace every file artifact is written with.
//
// The file is a log followed by a pad: the intact prefix of CRC'd lines,
// then NUL bytes up to the end of the file, which is a multiple of one
// segment (256 KiB). Create writes the header and pads the first segment;
// every Write puts its one line over the pad, where the prefix ends, and
// Sync fsyncs every line written since the last one; Append is the two
// together. Nothing already in the prefix is rewritten, and the fsync
// flushes blocks the file already has: only a line that would cross the
// end of the pad first writes the next segment of NULs, and that is the
// only write that changes the file's size. Integrity model:
//
//   - Create replaces the file atomically (tmp + fsync + rename + fsync
//     of the directory), so a crash during Create leaves either no
//     journal or one Open accepts, and a crash after it cannot lose the
//     file.
//   - The first line is a header carrying the schema Version and a
//     configuration hash; Open refuses a journal whose hash differs from
//     the restarting daemon's, so a stale journal cannot silently splice
//     records from a different configuration into a new run.
//   - A line is durable once a Sync (or the Append that wrote it)
//     returns; Synced reports where that prefix ends. A crash may lose
//     any line written after it, or keep a later one while losing (or
//     zeroing) an earlier one: recovery then stops at the earlier one.
//     A caller that acts on an unflushed line must be able to rebuild it.
//   - Every line carries a CRC of its payload, catching external
//     corruption (truncation, editor mangling, bit rot) and the one thing
//     a crash or a failed write can leave: a fragment of the last line,
//     which no caller was told is durable. Recovery stops at the first
//     damaged line — a last line without its newline counts — and keeps
//     everything before it. A line that starts with NUL is the pad: the
//     end of the log. If everything after it is NUL too the pad is reused;
//     anything else there is damage.
//   - Only the writer removes damage, just before it writes: Open never
//     modifies the file; the first Write after Open found damage, and the
//     one after a failed Write or Sync, first truncate the file to the end
//     of the intact prefix (and then pad it again), so no record lands
//     behind damage, out of recovery's reach.
//   - One handle writes to a file at a time; any number may read. Writes
//     go at an offset, not with O_APPEND, so two writers would overwrite
//     each other's lines instead of interleaving them.
//
// A Journal is a log, not a store: a handle keeps offsets into its file,
// never the payloads written through it, so its memory does not grow
// with the file. What Open recovered is handed over once: Each or
// Completed returns a stage's cases and drops them from the handle. A
// case written through a handle is read back only by another Open.
//
// The pad needs no schema Version bump. A reader from before it meets the
// pad as a torn last line, so it recovers exactly the intact prefix and
// cuts the pad on its next Append; a file written before it has no pad and
// gets one on its first Write here.
//
// Case payloads are opaque JSON produced by the caller (a decision, a
// placement). Go's JSON encoding of float64 is round-trip exact, so a
// record restored from the journal is bit-identical to the one written.
//
// The codec passes over a payload once each way: a case line is written
// around json.Marshal's output rather than marshaled again, and read back
// by a fast path that checks its exact layout and CRC and validates the
// payload with compactValid, an allocation-free one-pass reader of the
// JSON grammar as json.Marshal writes it (no whitespace between tokens).
// Every other line, and every payload the validator declines (spaced,
// or nested past maxDepth), goes to the full JSON decoder, so a CRC-valid
// line that is not JSON still ends recovery.
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
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
	// ErrClosed is returned by Write, Sync and Append after Close.
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
// untrusted bytes (FuzzJournalDecode fuzzes it). A case line exactly as
// encodeCase writes it is read in one pass (decodeCase), its payload
// checked by compactValid; every other line goes to decodeFull, which
// decides it as json.Unmarshal reads it. Both return the same Record for
// any line decodeCase accepts.
func Decode(b []byte) (Record, error) {
	if rec, ok := decodeCase(b); ok {
		return rec, nil
	}
	return decodeFull(b)
}

// decodeFull is Decode for any line: it unmarshals the whole line, then
// checks it.
func decodeFull(b []byte) (Record, error) {
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

// The fixed pieces of a case line, in the order encodeCase writes them.
var (
	caseHead  = []byte(`{"v":` + strconv.Itoa(Version) + `,"kind":"case","stage":`)
	caseIndex = []byte(`,"index":`)
	caseData  = []byte(`,"data":`)
	caseCRC   = []byte(`,"crc":`)
)

// decodeCase is Decode's fast path. It accepts only a valid case line in
// encodeCase's exact layout — that prefix, a stage of plain ASCII with no
// escapes, index digits, data running to the last ,"crc": and the crc
// digits closing the line — whose CRC matches and whose data compactValid
// accepts: one JSON value with no whitespace between its tokens, nested at
// most maxDepth deep, as every record the daemons journal is. It reports
// false for anything else, valid or not, and leaves that line to
// decodeFull.
func decodeCase(b []byte) (Record, bool) {
	rest, ok := bytes.CutPrefix(b, caseHead)
	if !ok || len(rest) == 0 || rest[0] != '"' {
		return Record{}, false
	}
	n := 1
	for n < len(rest) && rest[n] != '"' {
		if c := rest[n]; c < 0x20 || c >= 0x80 || c == '\\' {
			return Record{}, false
		}
		n++
	}
	if n == 1 || n == len(rest) {
		return Record{}, false
	}
	stage := rest[1:n]
	rest = rest[n+1:]
	var index uint64
	if r, ok := bytes.CutPrefix(rest, caseIndex); ok {
		if index, n = uintAt(r); n == 0 || index > math.MaxInt {
			return Record{}, false
		}
		rest = r[n:]
	}
	if rest, ok = bytes.CutPrefix(rest, caseData); !ok {
		return Record{}, false
	}
	k := bytes.LastIndex(rest, caseCRC)
	if k <= 0 {
		return Record{}, false
	}
	data, tail := rest[:k], rest[k+len(caseCRC):]
	crc, n := uintAt(tail)
	if n == 0 || crc > math.MaxUint32 || len(tail) != n+1 || tail[n] != '}' ||
		crc32.ChecksumIEEE(data) != uint32(crc) || !compactValid(data) {
		return Record{}, false
	}
	return Record{Stage: string(stage), Index: int(index), Data: append(json.RawMessage(nil), data...)}, true
}

// uintAt parses the JSON integer b starts with — 0, or a non-zero digit
// and at most 18 more, so it fits a uint64 — and returns it with its
// length; n is 0 when b starts with no such integer.
func uintAt(b []byte) (v uint64, n int) {
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		if n == 19 || n == 1 && b[0] == '0' {
			return 0, 0
		}
		v = v*10 + uint64(b[n]-'0')
		n++
	}
	return v, n
}

// encode stamps version and CRC and serializes the line.
func encode(l line) ([]byte, error) {
	l.V = Version
	l.CRC = crc32.ChecksumIEEE(l.payload())
	return json.Marshal(l)
}

// Hash fingerprints a configuration value: SHA-256 over its JSON
// encoding, hex-encoded. Callers hash everything that determines their
// results (device config, window, seed, grids) so Open can reject stale
// journals and sweep row files are named by their configuration. Struct fields encode in declaration order and maps sort by
// key, so equal values always hash equal.
func Hash(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("journal: hash config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// maxLine bounds one line; a longer run of bytes is damage, not an allocation.
const maxLine = 16 << 20

// segment is the unit the file grows by. Its size trades how often an
// Append pays for growing the file against what Create writes and Open
// reads (EXPERIMENTS.md, "One round trip, one in-place flush").
const segment = 256 << 10

// zeros is what the pad is written from, so growing allocates nothing.
var zeros [segment]byte

// Journal is an open journal. All methods are safe for concurrent use.
type Journal struct {
	mu        sync.Mutex
	f         *os.File                           // write descriptor; nil once closed
	size      int64                              // end of the intact prefix: every byte before it is a whole valid line
	synced    int64                              // end of the durable prefix: every line before it was fsynced (or found by Open)
	end       int64                              // end of the pad: every byte in [size, end) is NUL
	cut       bool                               // the file holds damage past size (found by Open, left by a failed Write or Sync)
	recovered map[string]map[int]json.RawMessage // what Open read and no Each or Completed has handed over, by stage
}

// Create starts a fresh journal at path, replacing any existing file,
// and durably writes the header, padded to the end of the first segment.
// It is written with WriteFile, so path never holds a partial header.
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
	hl = append(hl, '\n')
	if err := WriteFile(path, hl, zeros[:segment-len(hl)%segment]); err != nil {
		return nil, err
	}
	return Open(path, configHash)
}

// WriteFile replaces path with parts, written in order, atomically and
// durably: into a temporary file beside it, synced, renamed over it, and
// the directory synced, so a crash leaves the old file or the whole new
// one under path, never an empty or partial one. Journal headers, row
// files, arrival traces and event traces are all written this way.
func WriteFile(path string, parts ...[]byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // a no-op once renamed
	for _, p := range parts {
		if err == nil {
			_, err = f.Write(p)
		}
	}
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	return err
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
// fresh journal (restarting a daemon that never journaled is legal).
// Recovery stops at the first damaged line — one that fails Decode, runs
// past maxLine, or is last and lacks its newline — or at the pad;
// everything before it is intact by construction. The pad is read in
// buffer-sized chunks to check that it is all NUL. Open never writes:
// damage stays in the file until the first Write cuts it, so a handle
// that is never written to leaves the file as it was. The handle holds a
// descriptor until Close, and the recovered cases until Each or Completed
// hands them over.
func Open(path, configHash string) (*Journal, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return Create(path, configHash)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	j := &Journal{recovered: make(map[string]map[int]json.RawMessage)}
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
			if j.recovered[rec.Stage] == nil {
				j.recovered[rec.Stage] = make(map[int]json.RawMessage)
			}
			j.recovered[rec.Stage][rec.Index] = rec.Data
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
	j.synced, j.end = j.size, j.size+pad
	if j.f, err = os.OpenFile(path, os.O_WRONLY, 0); err != nil {
		return nil, err
	}
	return j, nil
}

// Append durably records one completed case: Write, then Sync, under one
// hold of the lock, so the line is on disk before Append returns. Like
// Write, it refuses a case with no stage or a negative index before
// writing anything.
func (j *Journal) Append(stage string, index int, v any) error {
	l, err := encodeCase(stage, index, v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.write(l); err != nil {
		return err
	}
	return j.sync()
}

// Write records one completed case without waiting for the disk: v is
// marshaled to JSON and written as one CRC'd line where the intact prefix
// ends, over the pad, by one write. A case with no stage or a negative
// index, which Decode would refuse and Open would stop at, is an error
// and writes nothing. The line is in the file (another Open reads it)
// but not durable: a crash may lose it until a Sync, or the Append of a
// later line, returns, and Synced does not count it until then. Damage
// past the intact prefix (what Open stopped at, a failed write's
// fragment) is truncated away first; a line that would cross the end of
// the pad first writes the next segment of it. A Write that fails
// cuts its own fragment before returning the error; while that cut cannot
// be made every later Write fails too rather than write where recovery
// stops.
func (j *Journal) Write(stage string, index int, v any) error {
	l, err := encodeCase(stage, index, v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.write(l)
}

// encodeCase marshals one case and encodes its line, newline included:
// byte for byte what encode(line{Kind: "case", ...}) and a newline are,
// written around json.Marshal's output instead of marshaling it again,
// since that output is already compact and HTML-escaped. A case Decode
// would refuse — no stage, a negative index — is an error, not a line.
func encodeCase(stage string, index int, v any) ([]byte, error) {
	if stage == "" || index < 0 {
		return nil, fmt.Errorf("journal: case %q/%d: want a stage and an index >= 0", stage, index)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal case %s/%d: %w", stage, index, err)
	}
	const digits = 20 // the most an index or a crc can take
	b := make([]byte, 0, len(caseHead)+len(stage)+2+len(caseIndex)+digits+len(caseData)+len(data)+len(caseCRC)+digits+len("}\n"))
	b = append(b, caseHead...)
	b = appendString(b, stage)
	if index != 0 {
		b = append(b, caseIndex...)
		b = strconv.AppendInt(b, int64(index), 10)
	}
	b = append(b, caseData...)
	b = append(b, data...)
	b = append(b, caseCRC...)
	b = strconv.AppendUint(b, uint64(crc32.ChecksumIEEE(data)), 10)
	return append(b, "}\n"...), nil
}

// appendString appends s quoted as json.Marshal quotes it: as it is when
// it needs no escape, else by json.Marshal.
func appendString(b []byte, s string) []byte {
	if !schema.PlainString(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// write puts one encoded line where the intact prefix ends (j.mu held).
func (j *Journal) write(l []byte) error {
	if j.f == nil {
		return ErrClosed
	}
	if j.cut {
		if err := j.f.Truncate(j.size); err != nil {
			return err
		}
		j.cut, j.end = false, j.size
	}
	err := j.grow(j.size + int64(len(l)))
	if err == nil {
		_, err = j.f.WriteAt(l, j.size)
	}
	if err != nil {
		j.cut, j.end = j.f.Truncate(j.size) != nil, j.size
		return err
	}
	j.size += int64(len(l))
	return nil
}

// Sync makes every line written since the last Sync durable with one
// fsync. A Sync that fails drops them: it cuts the file back to the
// durable prefix, as a failed Append cuts its own line, and returns the
// error.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrClosed
	}
	return j.sync()
}

// sync is Sync with j.mu held and the descriptor open.
func (j *Journal) sync() error {
	if j.synced == j.size {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		j.cut, j.end = j.f.Truncate(j.synced) != nil, j.synced
		j.size = j.synced
		return err
	}
	j.synced = j.size
	return nil
}

// Synced reports the end of the durable prefix: the file offset before
// which every line was flushed by a Sync or an Append (or was already in
// the file when Open read it). Lines past it are written, not yet durable.
func (j *Journal) Synced() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.synced
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

// Completed hands over every case of a stage that Open recovered, keyed by
// case index, and drops them from the handle: a second call for the same
// stage, or an Each, gets nothing. Cases written through this handle are
// not among them.
func (j *Journal) Completed(stage string) map[int]json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	done := j.recovered[stage]
	delete(j.recovered, stage)
	return done
}

// Each hands over a stage's recovered cases as Completed does, calling fn
// for each in ascending index order — the order a client that numbers its
// records replays them in — and stops at the first error fn returns.
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

// Close flushes what is unflushed, as Sync does, and releases the
// journal's descriptor, returning the first error of the two. It is
// idempotent, Write, Sync and Append after Close return ErrClosed, and
// Each and Completed keep working.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
