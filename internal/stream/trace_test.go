package stream

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schema"
)

func TestStreamTraceRoundTrip(t *testing.T) {
	tr, err := Generate(specFor(ProcessBursty))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spec, tr.Spec) {
		t.Errorf("spec did not round-trip:\n got %+v\nwant %+v", got.Spec, tr.Spec)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Error("events did not round-trip")
	}
	// Re-encoding the decoded trace yields identical bytes and hash.
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("decode/encode is not byte-stable")
	}
	h1, _ := tr.Hash()
	h2, _ := got.Hash()
	if h1 != h2 {
		t.Errorf("hash changed across round trip: %s vs %s", h1, h2)
	}
}

func TestStreamTraceFileRoundTrip(t *testing.T) {
	tr, err := Generate(specFor(ProcessPoisson))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("got %d events, want %d", len(got.Events), len(tr.Events))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind")
	}
}

func TestStreamTraceDecodeErrors(t *testing.T) {
	tr, err := Generate(GenSpec{
		Process: ProcessPoisson, RatePerSec: 500, DurationMs: 100, Seed: 7,
		Tenants: []TenantSpec{{Name: "a", Weight: 1, Workload: "sgemm"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(good), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace too short for surgery: %d lines", len(lines))
	}

	cases := []struct {
		name string
		mut  func([]string) string
		want string
	}{
		{"empty", func([]string) string { return "" }, "empty trace"},
		{"wrong kind", func(ls []string) string {
			ls[0] = strings.Replace(ls[0], traceKind, "journal", 1)
			return strings.Join(ls, "\n")
		}, "kind"},
		{"future schema", func(ls []string) string {
			ls[0] = strings.Replace(ls[0], `"schema":3`, `"schema":99`, 1)
			return strings.Join(ls, "\n")
		}, "schema"},
		{"unknown field", func(ls []string) string {
			ls[1] = strings.Replace(ls[1], `"seq"`, `"sneq"`, 1)
			return strings.Join(ls, "\n")
		}, "unknown field"},
		{"seq gap", func(ls []string) string {
			return strings.Join(append(ls[:2], ls[3:]...), "\n")
		}, "seq"},
		{"time reversal", func(ls []string) string {
			ls[1], ls[2] = ls[2], ls[1]
			return strings.Join(ls, "\n")
		}, ""},
	}
	for _, tc := range cases {
		ls := append([]string(nil), lines...)
		_, err := Decode(strings.NewReader(tc.mut(ls)))
		if err == nil {
			t.Errorf("%s: Decode accepted a corrupted trace", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestStreamTraceHashMovesWithContent(t *testing.T) {
	tr, err := Generate(specFor(ProcessPoisson))
	if err != nil {
		t.Fatal(err)
	}
	h1, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	tr.Events[0].Tenant = "mallory"
	h2, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("hash did not change when an event changed")
	}
	if len(h1) != 64 {
		t.Errorf("hash %q is not hex sha-256", h1)
	}
}

// FuzzTraceDecode hardens the arrival-trace decoder, which reads files
// handed to `stream -mode replay`: Decode never panics, a rejection is
// a spec, schema-version or line-length error, and an accepted trace
// has sequential seqs in time order and re-encodes to bytes that decode
// back to the same bytes.
func FuzzTraceDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_bursty.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(golden), "\n")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])                                   // cut mid-line
	f.Add([]byte(lines[0]))                                         // header only
	f.Add([]byte(lines[0] + lines[2] + lines[1]))                   // events out of order
	f.Add([]byte(lines[0] + strings.Replace(lines[1], ":", "", 1))) // garbled event
	f.Add([]byte(strings.Replace(lines[0], "bursty", "bursts", 1) + lines[1]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Decode(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrBadSpec) && !errors.Is(err, schema.ErrVersion) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("rejection %q is not a spec, version or line-length error", err)
			}
			return
		}
		for i, ev := range tr.Events {
			if ev.Seq != i || (i > 0 && ev.TUs < tr.Events[i-1].TUs) {
				t.Fatalf("accepted event %d: seq %d at %dus after %+v", i, ev.Seq, ev.TUs, tr.Events[:i])
			}
		}
		enc, err := tr.Encode()
		if err != nil {
			t.Fatalf("accepted trace does not encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("accepted trace re-encodes to bytes Decode refuses: %v\n%s", err, enc)
		}
		if enc2, _ := again.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("decode/encode is not byte-stable:\n%s\n%s", enc, enc2)
		}
	})
}
