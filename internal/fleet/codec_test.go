package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/journal"
	"repro/internal/schema"
)

// journalData returns the payload of every case line of the journal at
// path, in file order.
func journalData(tb testing.TB, path string) [][]byte {
	tb.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i] // the pad
	}
	var out [][]byte
	for _, l := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		rec, err := journal.Decode(l)
		if err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
		if !rec.Header {
			out = append(out, rec.Data)
		}
	}
	return out
}

// generatedRecords returns the node and placement records of a
// generated fleet journal directory.
func generatedRecords(tb testing.TB) (nodeRecs, placeRecs [][]byte) {
	tb.Helper()
	dir := tb.TempDir()
	genJournals(tb, dir, 120)
	paths, err := filepath.Glob(filepath.Join(dir, "node-*.jnl"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no node journals in %s (%v)", dir, err)
	}
	for _, p := range paths {
		nodeRecs = append(nodeRecs, journalData(tb, p)...)
	}
	return nodeRecs, journalData(tb, filepath.Join(dir, "placements.jnl"))
}

// fastAgrees checks one record: read decodes it on the fast path (ok)
// or declines it, and what it decodes equals what json.Unmarshal makes
// of the same bytes, which must accept them.
func fastAgrees[T any](t *testing.T, raw []byte, read func(*schema.Cursor) T) (ok bool) {
	t.Helper()
	c := schema.NewCursor(raw)
	got := read(&c)
	if !c.Done() {
		return false
	}
	var want T
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("fast path read %s, which json.Unmarshal refuses: %v", raw, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path read %s as\n%+v\njson.Unmarshal as\n%+v", raw, got, want)
	}
	return true
}

// TestFastPathReadsEveryRecord: every record of a generated fleet
// journal directory is read by the fast path, to what json.Unmarshal
// reads. A record the fast path declined would still recover, by the
// fallback, so only this test notices a layout the fast path lost.
func TestFastPathReadsEveryRecord(t *testing.T) {
	nodeRecs, placeRecs := generatedRecords(t)
	verdicts, kinds := 0, map[string]int{}
	for _, raw := range nodeRecs {
		if !fastAgrees(t, raw, readNodeDecision) {
			t.Fatalf("fast path declined node record %s", raw)
		}
		if bytes.Contains(raw, []byte(`"verdict":`)) {
			verdicts++
		}
	}
	for _, raw := range placeRecs {
		if !fastAgrees(t, raw, readPlacement) {
			t.Fatalf("fast path declined placement record %s", raw)
		}
		p, _ := schema.Decode(raw, readPlacement)
		kinds[p.Kind]++
	}
	if verdicts == 0 || verdicts == len(nodeRecs) || kinds[KindPlace] == 0 || kinds[KindReject] == 0 || kinds[KindRelease] == 0 {
		t.Fatalf("generated journals lack a record form: %d of %d node records with a verdict, placements by kind %v", verdicts, len(nodeRecs), kinds)
	}
}

// fuzzRecord is the fast-path property FuzzNodeDecision and
// FuzzPlacementRecord hold read to: on any bytes it declines, or it
// equals json.Unmarshal, which accepts them.
func fuzzRecord[T any](f *testing.F, seeds [][]byte, read func(*schema.Cursor) T) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) { fastAgrees(t, raw, read) })
}

// FuzzNodeDecision holds the node record fast path to json.Unmarshal,
// seeded with a generated node journal's records.
func FuzzNodeDecision(f *testing.F) {
	nodeRecs, _ := generatedRecords(f)
	fuzzRecord(f, append(nodeRecs, []byte(`{"job_id":"a","mix":[],"candidate":{"job_id":"a","workload":"w"}}`)), readNodeDecision)
}

// FuzzPlacementRecord holds the placement record fast path to
// json.Unmarshal, seeded with a generated placement journal's records.
func FuzzPlacementRecord(f *testing.F) {
	_, placeRecs := generatedRecords(f)
	fuzzRecord(f, append(placeRecs,
		[]byte(`{"index":1,"kind":"fail","job_id":"vjob-000001","job_seq":1}`),
		[]byte(`{"index":2,"kind":"place","job_id":"j","job_seq":2,"request":{"workload":"w","goal":{"ipc":2.5}},"shares":{"sm":0.5,"mem":0.5}}`),
		[]byte(`{"index":2,"kind":"place","job_id":"j","job_seq":2,"request":{"workload":"w","goal":{"periodic":{"instrs":5,"period_s":0.1}}},"shares":{"sm":1e-7,"mem":-0}}`),
	), readPlacement)
}
