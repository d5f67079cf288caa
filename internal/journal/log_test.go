package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestLiteralFileBytes pins the on-disk format to literal bytes: what a
// fixed Create + three Appends must leave in the file, byte for byte.
// Journals outlive the binary that wrote them, so a change to the write
// path has to keep producing exactly this file (or bump schema.Version).
func TestLiteralFileBytes(t *testing.T) {
	const want = `{"v":3,"kind":"header","config":"cfg-literal","crc":686382238}
{"v":3,"kind":"case","stage":"pairs/rollover","data":{"Name":"sgemm+lbm","IPC":123.456789012345,"N":42},"crc":2149456558}
{"v":3,"kind":"case","stage":"pairs/rollover","index":2,"data":{"Name":"mri-q+sad","IPC":0.30000000000000004,"N":-7},"crc":2559274740}
{"v":3,"kind":"case","stage":"trios/spart","data":{"ok":true,"reach":[0.5,0.95]},"crc":3005807998}
`
	path := tmpJournal(t)
	j, err := Create(path, "cfg-literal")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		stage string
		index int
		v     any
	}{
		{"pairs/rollover", 0, fakeCase{Name: "sgemm+lbm", IPC: 123.456789012345, N: 42}},
		{"pairs/rollover", 2, fakeCase{Name: "mri-q+sad", IPC: 0.30000000000000004, N: -7}},
		{"trios/spart", 0, map[string]any{"reach": []float64{0.5, 0.95}, "ok": true}},
	} {
		if err := j.Append(a.stage, a.index, a.v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("file bytes changed:\n got %s\nwant %s", got, want)
	}
	// The literal must also be a journal Open accepts in full.
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, "cfg-literal")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
}

// fixtureRecord is one case line of the crash fixture.
type fixtureRecord struct {
	stage string
	index int
	v     fakeCase
}

// fixtureRecords is the crash fixture's content: two stages, and index 1
// of stage "a" journaled twice (a retried case; the later line wins).
var fixtureRecords = []fixtureRecord{
	{"a", 0, fakeCase{Name: "a0", N: 10}},
	{"a", 1, fakeCase{Name: "a1-first", N: 11}},
	{"b", 0, fakeCase{Name: "b0", IPC: 0.25}},
	{"a", 1, fakeCase{Name: "a1-retried", N: 12}},
	{"b", 4, fakeCase{Name: "b4", IPC: 1.5}},
	{"a", 2, fakeCase{Name: "a2", N: 13}},
}

// crashFixture returns the bytes of a journal holding fixtureRecords and
// the offset just past each line's newline (ends[0] is the header's).
func crashFixture(tb testing.TB) (file []byte, ends []int) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "fixture.journal")
	j, err := Create(path, "cfg")
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range fixtureRecords {
		if err := j.Append(r.stage, r.index, r.v); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	file, err = os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	for i, c := range file {
		if c == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != len(fixtureRecords)+1 || ends[len(ends)-1] != len(file) {
		tb.Fatalf("fixture has %d lines over %d bytes, want %d whole lines", len(ends), len(file), len(fixtureRecords)+1)
	}
	return file, ends
}

// flipPayloadByte returns a copy of file with one bit flipped inside the
// CRC-covered payload of the line that starts at offset lineStart.
func flipPayloadByte(file []byte, lineStart int) []byte {
	out := append([]byte(nil), file...)
	out[lineStart+bytes.Index(file[lineStart:], []byte(`"Name":"`))+len(`"Name":"`)] ^= 0x01
	return out
}

// wantEntries is what recovery must hold after the first n fixture
// records (later duplicates overwrite earlier ones, as in the journal).
func wantEntries(tb testing.TB, n int) map[entryKey]string {
	tb.Helper()
	want := make(map[entryKey]string)
	for _, r := range fixtureRecords[:n] {
		b, err := json.Marshal(r.v)
		if err != nil {
			tb.Fatal(err)
		}
		want[entryKey{r.stage, r.index}] = string(b)
	}
	return want
}

// checkEntries compares a journal's recovered state, across all stages,
// with want.
func checkEntries(t *testing.T, what string, j *Journal, want map[entryKey]string) {
	t.Helper()
	if j.Len() != len(want) {
		t.Fatalf("%s: recovered %d cases, want %d", what, j.Len(), len(want))
	}
	for k, w := range want {
		if got, ok := j.Lookup(k.stage, k.index); !ok || string(got) != w {
			t.Fatalf("%s: case %s/%d = %q (present %v), want %q", what, k.stage, k.index, got, ok, w)
		}
	}
}

// TestCrashAtEveryByte cuts the fixture journal after every byte from the
// end of the header to the full file — every state a crash during an
// Append can leave — plus damage in the middle and an over-long line.
// Each time: Open recovers exactly the records whose line and newline
// survive, one more Append succeeds, and a second Open sees old + new in
// a file whose every line decodes.
func TestCrashAtEveryByte(t *testing.T) {
	file, ends := crashFixture(t)
	type damaged struct {
		name   string
		file   []byte
		intact int // leading fixture records that survive
	}
	var rows []damaged
	for n := ends[0]; n <= len(file); n++ {
		intact := 0
		for intact < len(fixtureRecords) && ends[intact+1] <= n {
			intact++
		}
		rows = append(rows, damaged{fmt.Sprintf("cut at byte %d", n), file[:n], intact})
	}
	rows = append(rows, damaged{"byte flipped in record 3", flipPayloadByte(file, ends[2]), 2})
	overlong := append([]byte(nil), file[:ends[2]]...)
	overlong = append(overlong, bytes.Repeat([]byte{'x'}, maxLine+1)...)
	overlong = append(append(overlong, '\n'), file[ends[2]:]...)
	rows = append(rows, damaged{"over-long line after record 2", overlong, 2})

	dir := t.TempDir()
	for i, row := range rows {
		path := filepath.Join(dir, fmt.Sprintf("%d.journal", i))
		if err := os.WriteFile(path, row.file, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, "cfg")
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		want := wantEntries(t, row.intact)
		checkEntries(t, row.name, j, want)

		extra := fakeCase{Name: "after-crash", N: int64(i)}
		if err := j.Append("c", 7, extra); err != nil {
			t.Fatalf("%s: append after recovery: %v", row.name, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(extra)
		want[entryKey{"c", 7}] = string(b)
		r, err := Open(path, "cfg")
		if err != nil {
			t.Fatalf("%s: reopen: %v", row.name, err)
		}
		checkEntries(t, row.name+", reopened", r, want)
		r.Close()

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 || raw[len(raw)-1] != '\n' {
			t.Fatalf("%s: file does not end in a newline after the append", row.name)
		}
		lines := bytes.Split(raw[:len(raw)-1], []byte{'\n'})
		if len(lines) != 1+row.intact+1 {
			t.Fatalf("%s: %d lines after the append, want header + %d + 1", row.name, len(lines), row.intact)
		}
		for k, l := range lines {
			if _, err := Decode(l); err != nil {
				t.Fatalf("%s: line %d left damaged after the append: %v", row.name, k+1, err)
			}
		}
	}
}

// TestLogShape pins the write path's shape by what the file system shows,
// not by time: Append adds exactly one line to the end of the same file
// and touches nothing before it; Create leaves no temp file; Open never
// writes, even over a torn tail.
func TestLogShape(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp")); len(tmps) != 0 {
		t.Fatalf("Create left %v behind", tmps)
	}
	first, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		c := fakeCase{Name: fmt.Sprintf("case-%d", i), IPC: float64(i) / 7, N: int64(i)}
		data, _ := json.Marshal(c)
		l, err := encode(line{Kind: "case", Stage: "s", Index: i, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append("s", i, c); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, st) {
			t.Fatalf("append %d replaced the file (rename) instead of extending it", i)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before)+len(l)+1 {
			t.Fatalf("append %d grew the file by %d bytes, want len(line)+1 = %d", i, len(after)-len(before), len(l)+1)
		}
		if !bytes.Equal(after[:len(before)], before) {
			t.Fatalf("append %d changed bytes before the end of the file", i)
		}
		if !bytes.Equal(after[len(before):], append(l, '\n')) {
			t.Fatalf("append %d wrote %q, want the encoded line", i, after[len(before):])
		}
		before = after
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":3,"kind":"case","stage":"s","index":500,"da`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	tornBytes, _ := os.ReadFile(path)
	r, err := Open(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 500 {
		t.Fatalf("Len = %d over a torn tail, want 500", r.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if now, _ := os.ReadFile(path); st.Size() != torn.Size() || !st.ModTime().Equal(torn.ModTime()) || !bytes.Equal(now, tornBytes) {
		t.Fatalf("Open + Close without an Append modified the file (size %d -> %d, mtime %v -> %v)",
			torn.Size(), st.Size(), torn.ModTime(), st.ModTime())
	}
}

// TestFailedAppendKeepsFailing takes the descriptor away behind the
// journal's back: the Append fails and its fragment cannot be cut, so
// every later Append must fail too rather than write where recovery
// cannot reach. Everything journaled before the failure is recovered.
func TestFailedAppendKeepsFailing(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append("s", i, fakeCase{N: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.f.Close()
	for i := 3; i < 6; i++ {
		if err := j.Append("s", i, fakeCase{N: int64(i)}); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("Append %d on a dead descriptor: %v, want os.ErrClosed", i, err)
		}
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d: a failed Append must not count as journaled", j.Len())
	}
	j.Close() // the descriptor is already gone; Close may say so
	if err := j.Append("s", 5, fakeCase{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	r, err := Open(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Completed("s")
	if len(got) != 3 {
		t.Fatalf("recovered %d cases, want the 3 journaled before the failure", len(got))
	}
	for i := 0; i < 3; i++ {
		if _, ok := got[i]; !ok {
			t.Fatalf("case %d lost", i)
		}
	}
}

// TestEachAscendingIndex: Each visits one stage in index order whatever
// order the cases were journaled in, and stops at fn's first error.
func TestEachAscendingIndex(t *testing.T) {
	j, err := Create(tmpJournal(t), "cfg")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, i := range []int{5, 1, 9, 3} {
		if err := j.Append("s", i, fakeCase{N: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append("other", 0, fakeCase{}); err != nil {
		t.Fatal(err)
	}
	var seen []int
	err = j.Each("s", func(i int, raw json.RawMessage) error {
		var c fakeCase
		if err := json.Unmarshal(raw, &c); err != nil || c.N != int64(i) {
			t.Fatalf("case %d carries %s (%v)", i, raw, err)
		}
		seen = append(seen, i)
		return nil
	})
	if err != nil || fmt.Sprint(seen) != "[1 3 5 9]" {
		t.Fatalf("Each visited %v (err %v), want [1 3 5 9]", seen, err)
	}
	stop := errors.New("stop")
	n := 0
	if err := j.Each("s", func(int, json.RawMessage) error { n++; return stop }); !errors.Is(err, stop) || n != 1 {
		t.Fatalf("Each returned %v after %d calls, want the callback's error after 1", err, n)
	}
}

// FuzzJournalOpen hardens recovery: the fuzzer supplies everything after
// a valid header (and, for the header checks, the whole file). Open must
// never panic, never hand back a journal under a foreign hash or version,
// and Open -> Append -> Open must recover the appended record plus
// everything the first Open saw.
func FuzzJournalOpen(f *testing.F) {
	file, ends := crashFixture(f)
	for _, e := range ends[1:] {
		for _, n := range []int{e - 1, e, e + 1} {
			if n <= len(file) {
				f.Add(file[ends[0]:n])
			}
		}
	}
	f.Add(flipPayloadByte(file, ends[2])[ends[0]:])
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte(`{"v":99,"kind":"header","config":"cfg","crc":0}` + "\n"))
	header := file[:ends[0]]
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		bare := filepath.Join(dir, "bare.journal")
		if err := os.WriteFile(bare, tail, 0o644); err != nil {
			t.Fatal(err)
		}
		if j, err := Open(bare, "cfg"); err == nil {
			j.Close()
			first, _, _ := bytes.Cut(bytes.TrimSpace(tail), []byte{'\n'})
			if rec, derr := Decode(bytes.TrimSpace(first)); derr != nil || !rec.Header || rec.Config != "cfg" {
				t.Fatalf("Open accepted a file whose first line is %q (%v)", first, derr)
			}
		}

		path := filepath.Join(dir, "fuzz.journal")
		if err := os.WriteFile(path, append(append([]byte(nil), header...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		if j, err := Open(path, "other-cfg"); !errors.Is(err, ErrConfigMismatch) {
			if err == nil {
				j.Close()
			}
			t.Fatalf("Open under a foreign hash: %v, want ErrConfigMismatch", err)
		}
		j, err := Open(path, "cfg")
		if err != nil {
			t.Fatalf("valid header + arbitrary tail must open: %v", err)
		}
		want := make(map[entryKey]string, len(j.entries)+1)
		for k, v := range j.entries {
			want[k] = string(v)
		}
		if err := j.Append("fuzz/appended", 0, fakeCase{Name: "new"}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		j.Close()
		want[entryKey{"fuzz/appended", 0}] = `{"Name":"new","IPC":0,"N":0}`
		r, err := Open(path, "cfg")
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		checkEntries(t, "after append", r, want)
	})
}
