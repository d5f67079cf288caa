package distsweep

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/schema"
)

func TestDecodeLeaseRejects(t *testing.T) {
	good := LeaseResponse{Schema: schema.Version, Remaining: 3,
		Lease: &Lease{ID: "L1", Start: 0, End: 3, TTLMs: 1000}}
	b, _ := json.Marshal(good)
	if _, err := DecodeLease(b); err != nil {
		t.Fatalf("valid lease rejected: %v", err)
	}
	cases := map[string]string{
		"wrong schema":   `{"schema":99,"done":false,"remaining":0}`,
		"unknown field":  `{"schema":2,"done":false,"remaining":0,"bogus":1}`,
		"trailing data":  `{"schema":2,"done":false,"remaining":0}{}`,
		"empty id":       `{"schema":2,"remaining":1,"lease":{"id":"","start":0,"end":1,"ttl_ms":5}}`,
		"inverted range": `{"schema":2,"remaining":1,"lease":{"id":"L","start":3,"end":1,"ttl_ms":5}}`,
		"zero ttl":       `{"schema":2,"remaining":1,"lease":{"id":"L","start":0,"end":1,"ttl_ms":0}}`,
		"negative rem":   `{"schema":2,"remaining":-1}`,
		"not json":       `nope`,
	}
	for name, in := range cases {
		if _, err := DecodeLease([]byte(in)); err == nil {
			t.Errorf("%s: DecodeLease accepted %s", name, in)
		}
	}
}

func TestDecodeReportVerifiesCRC(t *testing.T) {
	cr := CaseResult{Index: 0, Data: json.RawMessage(`{"x":1}`)}
	cr.Seal()
	rr := ReportRequest{Schema: schema.Version, Worker: "w", Lease: "L1", Cases: []CaseResult{cr}}
	b, _ := json.Marshal(rr)
	if _, err := DecodeReport(b); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	// Flip one payload byte: the CRC must catch it.
	corrupt := strings.Replace(string(b), `{\"x\":1}`, `{\"x\":2}`, 1)
	if corrupt == string(b) {
		// Payload is embedded unescaped when RawMessage marshals inline.
		corrupt = strings.Replace(string(b), `{"x":1}`, `{"x":2}`, 1)
	}
	if corrupt == string(b) {
		t.Fatal("test bug: corruption did not apply")
	}
	if _, err := DecodeReport([]byte(corrupt)); err == nil {
		t.Fatal("corrupted payload passed CRC verification")
	}
	// Missing lease id.
	rr.Lease = ""
	b2, _ := json.Marshal(rr)
	if _, err := DecodeReport(b2); err == nil {
		t.Fatal("report without lease id accepted")
	}
}

// FuzzLeaseDecode hardens both strict wire decoders, mirroring
// FuzzJournalDecode: arbitrary bytes must never panic, and every
// accepted value must survive a marshal -> decode round trip intact.
func FuzzLeaseDecode(f *testing.F) {
	lease := LeaseResponse{Schema: schema.Version, Remaining: 5,
		Lease: &Lease{ID: "L7", Start: 8, End: 16, TTLMs: 10_000}}
	if b, err := json.Marshal(lease); err == nil {
		f.Add(b)
	}
	cr := CaseResult{Index: 2, Data: json.RawMessage(`{"Pair":{"QoS":"sgemm","NonQoS":"lbm"},"Goal":0.5}`)}
	cr.Seal()
	if b, err := json.Marshal(ReportRequest{Schema: schema.Version, Worker: "w0", Lease: "L7",
		Cases: []CaseResult{cr}, Failed: []CaseFailure{{Index: 3, Error: "boom"}}}); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"schema":2,"done":true,"remaining":0}`))
	f.Add([]byte(`{"schema":1,"done":false}`))
	f.Add([]byte(`{"schema":2,"lease":{"id":"L","start":0,"end":-1,"ttl_ms":1}}`))
	f.Add([]byte(`{"schema":2,"worker":"w","lease":"L","cases":[{"index":0,"data":{},"crc":0}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, b []byte) {
		if lr, err := DecodeLease(b); err == nil {
			enc, err := json.Marshal(lr)
			if err != nil {
				t.Fatalf("accepted lease failed to re-encode: %v", err)
			}
			lr2, err := DecodeLease(enc)
			if err != nil {
				t.Fatalf("re-encoded lease failed to decode: %v", err)
			}
			if lr2.Done != lr.Done || lr2.Remaining != lr.Remaining ||
				(lr2.Lease == nil) != (lr.Lease == nil) {
				t.Fatalf("lease round trip changed fields: %+v -> %+v", lr, lr2)
			}
			if lr.Lease != nil && *lr2.Lease != *lr.Lease {
				t.Fatalf("lease round trip changed lease: %+v -> %+v", *lr.Lease, *lr2.Lease)
			}
		}
		if rr, err := DecodeReport(b); err == nil {
			enc, err := json.Marshal(rr)
			if err != nil {
				t.Fatalf("accepted report failed to re-encode: %v", err)
			}
			rr2, err := DecodeReport(enc)
			if err != nil {
				t.Fatalf("re-encoded report failed to decode: %v", err)
			}
			if rr2.Lease != rr.Lease || rr2.Worker != rr.Worker ||
				len(rr2.Cases) != len(rr.Cases) || len(rr2.Failed) != len(rr.Failed) {
				t.Fatalf("report round trip changed fields: %+v -> %+v", rr, rr2)
			}
			for i := range rr.Cases {
				if rr2.Cases[i].Index != rr.Cases[i].Index || rr2.Cases[i].CRC != rr.Cases[i].CRC {
					t.Fatalf("report round trip changed case %d", i)
				}
			}
		}
	})
}
