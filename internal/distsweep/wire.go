package distsweep

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/schema"
)

// Wire types for the coordinator/worker protocol. Every response carries
// the shared schema version (internal/schema) like the qosd API, and
// every case payload carries a CRC32 so a corrupted delivery is rejected
// at decode time instead of poisoning the journal — the same checksum
// discipline the journal itself applies per line.
//
// DecodeLease and DecodeReport are the strict entry points for bytes
// that crossed a process boundary; both are fuzzed (FuzzLeaseDecode).

// Wire limits: bounds enforced by the strict decoders so a malformed or
// hostile payload cannot make the coordinator allocate absurd state.
const (
	// MaxWireCases bounds cases per report request.
	MaxWireCases = 4096
	// MaxWireBytes bounds one case payload's size.
	MaxWireBytes = 1 << 20
)

// Lease grants a worker a contiguous half-open case range [Start, End).
// The worker must heartbeat before TTLMs elapses or the coordinator
// reclaims the unfinished indices.
type Lease struct {
	ID    string `json:"id"`
	Start int    `json:"start"`
	End   int    `json:"end"`
	TTLMs int64  `json:"ttl_ms"`
}

// Valid checks lease invariants shared by both sides.
func (l Lease) Valid() error {
	if l.ID == "" {
		return fmt.Errorf("distsweep: lease has no id")
	}
	if l.Start < 0 || l.End <= l.Start {
		return fmt.Errorf("distsweep: lease range [%d,%d) invalid", l.Start, l.End)
	}
	if l.TTLMs <= 0 {
		return fmt.Errorf("distsweep: lease ttl %dms invalid", l.TTLMs)
	}
	return nil
}

// SpecResponse is the body of GET /v1/spec.
type SpecResponse struct {
	Schema int    `json:"schema"`
	Spec   Spec   `json:"spec"`
	Stage  string `json:"stage"` // journal stage key, informational
}

// LeaseRequest is the body of POST /v1/leases.
type LeaseRequest struct {
	Schema int    `json:"schema"`
	Worker string `json:"worker"`
	// MaxCases caps the granted range (0 means coordinator default).
	MaxCases int `json:"max_cases,omitempty"`
}

// LeaseResponse is the body of POST /v1/leases. Lease is nil when no
// work is available; Done distinguishes "sweep complete, go home" from
// "all remaining cases are leased out, poll again".
type LeaseResponse struct {
	Schema    int    `json:"schema"`
	Done      bool   `json:"done"`
	Remaining int    `json:"remaining"`
	Lease     *Lease `json:"lease,omitempty"`
}

// HeartbeatResponse is the body of POST /v1/leases/{id}/heartbeat.
// Expired tells the worker its lease was reclaimed (it may finish and
// report anyway — delivery is idempotent — but should not count on the
// range being exclusively its own).
type HeartbeatResponse struct {
	Schema  int  `json:"schema"`
	Expired bool `json:"expired"`
	Done    bool `json:"done"`
}

// CaseResult is one completed case: the journal-ready payload (the JSON
// of an exp.PairCase/exp.TrioCase) and its CRC32.
type CaseResult struct {
	Index int             `json:"index"`
	Data  json.RawMessage `json:"data"`
	CRC   uint32          `json:"crc"`
}

// Checksum computes the CRC the wire carries for a payload.
func Checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Seal stamps the CRC over Data. Workers call it once per case.
func (c *CaseResult) Seal() { c.CRC = Checksum(c.Data) }

// CaseFailure reports a case the worker could not complete (after its
// own retry budget), so the coordinator can count attempts and
// eventually fail the case permanently instead of re-leasing forever.
type CaseFailure struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// ReportRequest is the body of POST /v1/leases/{id}/results. A report
// may carry any subset of the lease's cases (workers stream in chunks),
// and may arrive after the lease expired — the coordinator dedupes by
// index.
type ReportRequest struct {
	Schema int           `json:"schema"`
	Worker string        `json:"worker"`
	Lease  string        `json:"lease"`
	Cases  []CaseResult  `json:"cases,omitempty"`
	Failed []CaseFailure `json:"failed,omitempty"`
}

// ReportResponse is the body of POST /v1/leases/{id}/results.
type ReportResponse struct {
	Schema int `json:"schema"`
	// Accepted counts cases newly committed to the journal.
	Accepted int `json:"accepted"`
	// Duplicates counts cases already committed (idempotent re-delivery).
	Duplicates int `json:"duplicates"`
	// Orphaned is true when the lease was unknown or expired; the cases
	// were still merged (delivery is idempotent), the flag is advisory.
	Orphaned bool `json:"orphaned,omitempty"`
	Done     bool `json:"done"`
}

// StateResponse is the body of GET /v1/state — coordinator progress for
// operators and tests.
type StateResponse struct {
	Schema    int   `json:"schema"`
	Total     int   `json:"total"`
	Committed int   `json:"committed"`
	Failed    int   `json:"failed"`
	Leased    int   `json:"leased"`
	Free      int   `json:"free"`
	Workers   int   `json:"workers"`
	Expired   int64 `json:"leases_expired"`
	Orphans   int64 `json:"orphan_reports"`
	Done      bool  `json:"done"`
}

// DecodeLease strictly decodes a LeaseResponse received by a worker:
// unknown fields rejected, schema checked, lease invariants enforced.
func DecodeLease(b []byte) (LeaseResponse, error) {
	var lr LeaseResponse
	if err := schema.DecodeStrict(b, &lr); err != nil {
		return LeaseResponse{}, fmt.Errorf("distsweep: lease: %w", err)
	}
	if err := schema.Check(lr.Schema); err != nil {
		return LeaseResponse{}, err
	}
	if lr.Remaining < 0 {
		return LeaseResponse{}, fmt.Errorf("distsweep: lease: negative remaining %d", lr.Remaining)
	}
	if lr.Lease != nil {
		if err := lr.Lease.Valid(); err != nil {
			return LeaseResponse{}, err
		}
	}
	return lr, nil
}

// DecodeReport strictly decodes a ReportRequest received by the
// coordinator: schema checked, bounds enforced, every case CRC verified.
// It is the single entry point for worker-supplied result bytes.
func DecodeReport(b []byte) (ReportRequest, error) {
	var rr ReportRequest
	if err := schema.DecodeStrict(b, &rr); err != nil {
		return ReportRequest{}, fmt.Errorf("distsweep: report: %w", err)
	}
	if err := schema.Check(rr.Schema); err != nil {
		return ReportRequest{}, err
	}
	if rr.Lease == "" {
		return ReportRequest{}, fmt.Errorf("distsweep: report has no lease id")
	}
	if len(rr.Cases) > MaxWireCases {
		return ReportRequest{}, fmt.Errorf("distsweep: report carries %d cases (max %d)", len(rr.Cases), MaxWireCases)
	}
	if len(rr.Failed) > MaxWireCases {
		return ReportRequest{}, fmt.Errorf("distsweep: report carries %d failures (max %d)", len(rr.Failed), MaxWireCases)
	}
	for i, c := range rr.Cases {
		if c.Index < 0 {
			return ReportRequest{}, fmt.Errorf("distsweep: report case %d: negative index %d", i, c.Index)
		}
		if len(c.Data) == 0 {
			return ReportRequest{}, fmt.Errorf("distsweep: report case %d (index %d): empty payload", i, c.Index)
		}
		if len(c.Data) > MaxWireBytes {
			return ReportRequest{}, fmt.Errorf("distsweep: report case %d (index %d): payload %d bytes (max %d)", i, c.Index, len(c.Data), MaxWireBytes)
		}
		if got := Checksum(c.Data); got != c.CRC {
			return ReportRequest{}, fmt.Errorf("distsweep: report case %d (index %d): CRC mismatch (stored %08x, computed %08x)", i, c.Index, c.CRC, got)
		}
	}
	for i, f := range rr.Failed {
		if f.Index < 0 {
			return ReportRequest{}, fmt.Errorf("distsweep: report failure %d: negative index %d", i, f.Index)
		}
	}
	return rr, nil
}
