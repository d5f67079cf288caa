package stream

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/journal"
	"repro/internal/schema"
)

// Trace is one arrival stream: the (defaulted) spec that produced it
// and its events in time order. The serialized form is JSONL — a
// header line binding the schema version and spec, then one line per
// arrival — and the trace's identity is the SHA-256 over exactly those
// bytes, so a replayed result can name the traffic it was measured
// under the same way journals name their config.
type Trace struct {
	Spec   GenSpec
	Events []Arrival
}

// traceHeader is the first JSONL line.
type traceHeader struct {
	Schema int     `json:"schema"`
	Kind   string  `json:"kind"`
	Spec   GenSpec `json:"spec"`
}

const traceKind = "arrival-trace"

// Encode renders the canonical JSONL bytes.
func (tr *Trace) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(traceHeader{Schema: schema.Version, Kind: traceKind, Spec: tr.Spec}); err != nil {
		return nil, err
	}
	for i := range tr.Events {
		if err := enc.Encode(&tr.Events[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// Hash returns the trace's content hash: hex SHA-256 over Encode().
func (tr *Trace) Hash() (string, error) {
	b, err := tr.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Decode parses a serialized trace, checking the schema version, the
// header kind, the spec's invariants, and event ordering (sequential
// seq, non-decreasing t_us).
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: empty trace", ErrBadSpec)
	}
	var hdr traceHeader
	if err := schema.DecodeStrict(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("%w: bad header: %v", ErrBadSpec, err)
	}
	if err := schema.Check(hdr.Schema); err != nil {
		return nil, err
	}
	if hdr.Kind != traceKind {
		return nil, fmt.Errorf("%w: kind %q, want %q", ErrBadSpec, hdr.Kind, traceKind)
	}
	spec := hdr.Spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tr := &Trace{Spec: spec}
	var lastUs int64
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Arrival
		if err := schema.DecodeStrict(line, &ev); err != nil {
			return nil, fmt.Errorf("%w: event %d: %v", ErrBadSpec, len(tr.Events), err)
		}
		if ev.Seq != len(tr.Events) {
			return nil, fmt.Errorf("%w: event seq %d, want %d", ErrBadSpec, ev.Seq, len(tr.Events))
		}
		if ev.TUs < lastUs {
			return nil, fmt.Errorf("%w: event %d goes back in time (%dus < %dus)", ErrBadSpec, ev.Seq, ev.TUs, lastUs)
		}
		lastUs = ev.TUs
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// WriteFile writes the serialized trace at path, atomically and durably
// (journal.WriteFile), so a crash leaves the old file or the whole new
// trace, never an empty or partial one under path.
func (tr *Trace) WriteFile(path string) error {
	b, err := tr.Encode()
	if err != nil {
		return err
	}
	return journal.WriteFile(path, b)
}

// ReadFile reads and decodes a trace file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("stream: %s: %w", path, err)
	}
	return tr, nil
}
