package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

// recordedLines returns the lines of every journal under testdata: a qosd
// /v1 job log and the node and placement journals of a two-node fleet, as
// an earlier build of qosd wrote them (pad stripped).
func recordedLines(tb testing.TB) map[string][][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.jnl"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no recorded journals under testdata (%v)", err)
	}
	out := make(map[string][][]byte)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[p] = bytes.SplitAfter(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	}
	return out
}

// TestEncodeCaseReencodesRecordedJournals: every case line of the
// recorded journals goes through Decode's fast path, and encodeCase
// writes it again byte for byte from what Decode returned.
func TestEncodeCaseReencodesRecordedJournals(t *testing.T) {
	cases := 0
	for path, lines := range recordedLines(t) {
		for i, l := range lines[1:] {
			b := bytes.TrimSuffix(l, []byte("\n"))
			rec, ok := decodeCase(b)
			if !ok {
				t.Fatalf("%s line %d: not read by the fast path: %s", path, i+2, b)
			}
			got, err := encodeCase(rec.Stage, rec.Index, rec.Data)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(b, '\n'); !bytes.Equal(got, want) {
				t.Fatalf("%s line %d re-encodes differently:\ngot:  %s\nwant: %s", path, i+2, got, want)
			}
			cases++
		}
	}
	if cases < 20 {
		t.Fatalf("only %d recorded case lines", cases)
	}
}

// TestWriteRefusesUnreadableCase: a case Decode would refuse — no stage,
// a negative index — is refused by Write and Append before anything
// reaches the file, so the next Open does not stop at it and drop every
// record after it.
func TestWriteRefusesUnreadableCase(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 2; i++ {
		if err := j.Append("s", i, fakeCase{N: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		stage string
		index int
	}{{"", 2}, {"s", -1}} {
		if err := j.Write(c.stage, c.index, fakeCase{}); err == nil {
			t.Fatalf("Write(%q, %d) wrote a line Decode refuses", c.stage, c.index)
		}
		if err := j.Append(c.stage, c.index, fakeCase{}); err == nil {
			t.Fatalf("Append(%q, %d) wrote a line Decode refuses", c.stage, c.index)
		}
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) || j.Synced() != int64(len(splitPad(t, before))) {
		t.Fatalf("a refused case changed the file or the handle (%v)", err)
	}
	if err := j.Append("s", 2, fakeCase{N: 2}); err != nil {
		t.Fatal(err)
	}
	got := recoveredFrom(t, path)
	for i := 0; i < 3; i++ {
		if _, ok := got[entryKey{"s", i}]; !ok {
			t.Fatalf("a fresh Open lost case s/%d: recovered %v", i, got)
		}
	}
}

// FuzzEncodeCase: for any stage, index and JSON value, encodeCase writes
// exactly what encoding the line struct would, newline included, or
// refuses a case Decode would refuse; and Decode reads back what it wrote.
func FuzzEncodeCase(f *testing.F) {
	f.Add("pairs/rollover", 3, []byte(`{"x":1.5}`))
	f.Add("jobs", 0, []byte(` [1, "<a&b>", null] `))
	f.Add("naïve \"stage\"\n", 1<<40, []byte(`"\u2028"`))
	f.Add("", 1, []byte(`{}`))
	f.Add("s", -1, []byte(`0`))
	for _, lines := range recordedLines(f) {
		rec, err := Decode(bytes.TrimSpace(lines[len(lines)-1]))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec.Stage, rec.Index, []byte(rec.Data))
	}
	f.Fuzz(func(t *testing.T, stage string, index int, data []byte) {
		if !json.Valid(data) {
			return
		}
		got, err := encodeCase(stage, index, json.RawMessage(data))
		if stage == "" || index < 0 {
			if err == nil {
				t.Fatalf("encodeCase(%q, %d) wrote %s, a line Decode refuses", stage, index, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("encodeCase(%q, %d, %s): %v", stage, index, data, err)
		}
		m, err := json.Marshal(json.RawMessage(data))
		if err != nil {
			t.Fatal(err)
		}
		want, err := encode(line{Kind: "case", Stage: stage, Index: index, Data: m})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("encodeCase differs from encode:\ngot:  %q\nwant: %q", got, want)
		}
		rec, err := Decode(bytes.TrimSuffix(got, []byte("\n")))
		if err != nil {
			t.Fatalf("Decode refuses what encodeCase wrote: %v\n%s", err, got)
		}
		if utf8.ValidString(stage) && rec.Stage != stage || rec.Index != index || !bytes.Equal(rec.Data, m) {
			t.Fatalf("Decode read %+v back from %s", rec, got)
		}
	})
}

// checkFastPath fails t unless decodeFull reads b exactly as decodeCase
// did.
func checkFastPath(t *testing.T, b []byte, fast Record) {
	t.Helper()
	full, err := decodeFull(b)
	if err != nil {
		t.Fatalf("the fast path accepted a line the full decoder refuses (%v): %q", err, b)
	}
	if full.Header || fast.Header || full.Config != fast.Config || full.Stage != fast.Stage ||
		full.Index != fast.Index || !bytes.Equal(full.Data, fast.Data) {
		t.Fatalf("decoders disagree on %q:\nfast: %+v\nfull: %+v", b, fast, full)
	}
}

// fastPathSeeds are lines near the fast path's edges: canonical ones it
// reads, and ones a byte away from them that it leaves to the full
// decoder — the last a CRC-forged payload that is not JSON.
func fastPathSeeds() (fast, slow []string) {
	crcOf := func(data string) string {
		l, _ := encodeCase("s", 7, json.RawMessage(data))
		return strings.TrimSuffix(string(l), "\n")
	}
	canon := crcOf(`{"a":"x,\"crc\":5"}`)
	fast = []string{
		canon,
		crcOf(`null`),
		crcOf(`" ,\"crc\":1}"`),
		crcOf(`{"x":1,"crc":5}`),
		strings.Replace(canon, `"index":7`, `"index":0`, 1),
	}
	slow = []string{
		strings.Replace(canon, `"index":7`, `"index":07`, 1),
		strings.Replace(canon, `"data":`, `"data": `, 1),
		strings.Replace(canon, `"stage":"s"`, `"stage":"\u0073"`, 1),
		strings.Replace(canon, `"stage":"s"`, `"stage":"é"`, 1),
		strings.Replace(canon, `,"crc":`, `,"crc":0`, 1),
		canon + " ",
		strings.Replace(canon, `"kind":"case",`, `"kind":"case","kind":"case",`, 1),
		`{"v":3,"kind":"case","stage":"s","index":18446744073709551615,"data":1,"crc":2212294583}`,
		`{"v":3,"kind":"case","stage":"s","data":1,"crc":2212294583,"crc":2212294583}`,
		`{"v":3,"kind":"case","stage":"s","data":1 ,"crc":2212294583}`,
		`{"v":3,"kind":"case","stage":"s","data":,"crc":0}`,
		`{"v":3,"kind":"case","stage":"","data":1,"crc":2212294583}`,
		fmt.Sprintf(`{"v":3,"kind":"case","stage":"s","data":{"a":,"crc":%d}`, crc32.ChecksumIEEE([]byte(`{"a":`))),
	}
	return fast, slow
}

// TestFastPathAgrees: on every recorded line and every edge seed, a line
// the fast path accepts reads the same through the full decoder, and the
// canonical seeds do take the fast path.
func TestFastPathAgrees(t *testing.T) {
	for _, lines := range recordedLines(t) {
		for _, l := range lines {
			b := bytes.TrimSuffix(l, []byte("\n"))
			if rec, ok := decodeCase(b); ok {
				checkFastPath(t, b, rec)
			}
		}
	}
	fast, slow := fastPathSeeds()
	for _, c := range []struct {
		seeds []string
		fast  bool
	}{{fast, true}, {slow, false}} {
		for _, s := range c.seeds {
			rec, ok := decodeCase([]byte(s))
			if ok {
				checkFastPath(t, []byte(s), rec)
			}
			if ok != c.fast {
				t.Fatalf("fast path took %s: %v, want %v", s, ok, c.fast)
			}
		}
	}
}
