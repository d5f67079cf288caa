// Package schema pins the single on-disk/on-wire schema version shared
// by every serialized artifact the system produces: the decision
// journal's header (internal/journal), the JSONL trace export's header
// line (internal/trace), and the `/v1` API responses of the qosd
// admission daemon (internal/server). One constant means one bump
// changes them together, and every decoder can reject artifacts written
// by a different release with an errors.Is-able sentinel instead of
// silently misparsing them.
package schema

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Version is the current schema version. Bump it when any serialized
// layout changes: journal line shape, trace JSONL line shape, or the v1
// API response envelope.
//
// v2 replaced the ad-hoc admission status fields with the first-class
// Verdict object (decision/tier/confidence/model_version/evidence_ref)
// shared by the /v1 API, SSE payloads and the decision journal; the v1
// `admitted` boolean was kept for one release as a compatibility mirror
// of `decision`.
//
// v3 removed that deprecated `admitted` mirror (read `decision`),
// introduced the typed Goal union (bare-number fractions, {"ipc":..},
// {"deadline":{..}}) shared by v1 request decoding and the sweep spec,
// and added the fleet /v2 API (fractional-GPU requests, placements,
// node views) plus the fleet placement journal — all stamped with this
// version (see README "v1 → v2 job API migration").
const Version = 3

// ErrVersion marks an artifact written under a different schema version.
// The journal, trace and server decoders all wrap it, so callers can
// test any of their errors with errors.Is(err, schema.ErrVersion).
var ErrVersion = errors.New("schema: version mismatch")

// Check returns nil when got matches Version and otherwise an error
// wrapping ErrVersion that names both sides.
func Check(got int) error {
	if got == Version {
		return nil
	}
	return fmt.Errorf("%w: artifact v%d, this build speaks v%d", ErrVersion, got, Version)
}

// DecodeStrict unmarshals one JSON value into v, rejecting unknown
// fields and trailing garbage. It is the shared decode discipline for
// schema-versioned payloads (qosd submission bodies, arrival traces, the
// goal union's object forms), so a writer speaking a newer layout fails
// loudly at the boundary instead of having its extra fields silently
// dropped.
func DecodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("schema: trailing data after JSON value")
	}
	return nil
}

// PlainString reports whether json.Marshal writes s as it is between
// quotes: no control character, quote, backslash, HTML-escaped <, > or
// &, and no byte outside ASCII. Encoders that append JSON by hand fall
// back to json.Marshal for any other string.
func PlainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}
