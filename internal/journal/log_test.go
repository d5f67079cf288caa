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

// splitPad returns a journal file's log, the bytes before its first NUL,
// after checking that everything from there on is NUL.
func splitPad(tb testing.TB, file []byte) []byte {
	tb.Helper()
	n := bytes.IndexByte(file, 0)
	if n < 0 {
		return file
	}
	if z := bytes.Count(file[n:], []byte{0}); z != len(file)-n {
		tb.Fatalf("%d bytes of the pad are not NUL", len(file)-n-z)
	}
	return file[:n]
}

// TestLiteralFileBytes pins the on-disk format to literal bytes: what a
// fixed Create + three Appends must leave in the file, byte for byte,
// ahead of the pad, which runs to the end of the first segment. Journals
// outlive the binary that wrote them, so a change to the write path has
// to keep producing exactly these lines (or bump schema.Version).
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
	if log := splitPad(t, got); string(log) != want {
		t.Fatalf("file bytes changed:\n got %s\nwant %s", log, want)
	}
	if len(got) != segment {
		t.Fatalf("file is %d bytes, want the lines padded with NUL to one segment (%d)", len(got), segment)
	}
	// The padded file, and the literal alone (a journal written before
	// the pad), are journals Open accepts in full.
	for _, file := range []string{string(got), want} {
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path, "cfg-literal")
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 3 {
			t.Fatalf("Len = %d over a %d-byte file, want 3", r.Len(), len(file))
		}
		r.Close()
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

// crashFixture returns the bytes of a journal holding fixtureRecords, pad
// included, and the offset just past each line's newline (ends[0] is the
// header's; the last one is where the pad starts).
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
	log := splitPad(tb, file)
	for i, c := range log {
		if c == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != len(fixtureRecords)+1 || ends[len(ends)-1] != len(log) {
		tb.Fatalf("fixture has %d lines over %d bytes, want %d whole lines", len(ends), len(log), len(fixtureRecords)+1)
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

// TestCrashAtEveryByte damages the fixture journal every way a crash
// during an Append can, and some ways only outside hands can:
//   - a write torn after every byte from the end of the header to the end
//     of the log, NULs after it (the pad it was writing over);
//   - the same cuts with no pad at all, as a journal written before the
//     pad would be, ending at a line or inside one;
//   - a record whose last sector reached the disk and first did not (NULs,
//     then the rest of the line and its newline);
//   - whole lines zeroed with intact lines after them (nothing past a NUL
//     is log), non-NUL garbage past the pad, a file cut inside its pad, a
//     flipped payload byte and an over-long line.
//
// Each time: Open recovers exactly the records whose line and newline
// survive, one more Append succeeds, and a second Open sees old + new in
// a file whose every line decodes and whose pad is all NUL.
func TestCrashAtEveryByte(t *testing.T) {
	file, ends := crashFixture(t)
	logEnd := ends[len(ends)-1]
	type damaged struct {
		name   string
		file   []byte
		intact int // leading fixture records that survive
	}
	var rows []damaged
	for n := ends[0]; n <= logEnd; n++ {
		intact := 0
		for intact < len(fixtureRecords) && ends[intact+1] <= n {
			intact++
		}
		torn := append(append([]byte(nil), file[:n]...), make([]byte, len(file)-n)...)
		rows = append(rows,
			damaged{fmt.Sprintf("torn at byte %d, NULs after", n), torn, intact},
			damaged{fmt.Sprintf("unpadded, cut at byte %d", n), file[:n], intact})
	}
	last := ends[len(ends)-2]
	firstSectorLost := append([]byte(nil), file...)
	copy(firstSectorLost[last:], make([]byte, (logEnd-last)/2))
	linesZeroed := append([]byte(nil), file...)
	copy(linesZeroed[ends[2]:ends[4]], make([]byte, ends[4]-ends[2]))
	garbage := append(append([]byte(nil), file...), "garbage\n"...)
	overlong := append([]byte(nil), file[:ends[2]]...)
	overlong = append(overlong, bytes.Repeat([]byte{'x'}, maxLine+1)...)
	overlong = append(append(overlong, '\n'), file[ends[2]:]...)
	rows = append(rows,
		damaged{"last record without its first half", firstSectorLost, len(fixtureRecords) - 1},
		damaged{"records 3 and 4 zeroed, whole lines after them", linesZeroed, 2},
		damaged{"garbage past the pad", garbage, len(fixtureRecords)},
		damaged{"file shorter than its last segment", file[:(logEnd+len(file))/2], len(fixtureRecords)},
		damaged{"pre-pad file", file[:logEnd], len(fixtureRecords)},
		damaged{"byte flipped in record 3", flipPayloadByte(file, ends[2]), 2},
		damaged{"over-long line after record 2", overlong, 2})

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
		os.Remove(path)
		log := splitPad(t, raw)
		if len(log) == 0 || log[len(log)-1] != '\n' {
			t.Fatalf("%s: log does not end in a newline after the append", row.name)
		}
		lines := bytes.Split(log[:len(log)-1], []byte{'\n'})
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
// not by time: Create writes one segment and leaves no temp file; an
// Append changes only the bytes of its own line, where the log ends, in
// the same file, and the file grows only by whole segments; Open never
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
	if len(before) != segment {
		t.Fatalf("Create wrote %d bytes, want one segment (%d)", len(before), segment)
	}
	size, grew := len(splitPad(t, before)), 0
	// 100 cases of ≈ 6 KiB cross a segment boundary twice.
	for i := 0; i < 100; i++ {
		c := fakeCase{Name: fmt.Sprintf("case-%d-%s", i, bytes.Repeat([]byte{'x'}, 6<<10)), IPC: float64(i) / 7, N: int64(i)}
		data, _ := json.Marshal(c)
		l, err := encode(line{Kind: "case", Stage: "s", Index: i, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		l = append(l, '\n')
		if err := j.Append("s", i, c); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, st) {
			t.Fatalf("append %d replaced the file (rename) instead of writing into it", i)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if d := len(after) - len(before); d != 0 {
			if d < 0 || d%segment != 0 {
				t.Fatalf("append %d changed the file's size by %d bytes, want whole segments of %d", i, d, segment)
			}
			grew++
		}
		if !bytes.Equal(after[:size], before[:size]) {
			t.Fatalf("append %d changed bytes before the end of the log", i)
		}
		if !bytes.Equal(after[size:size+len(l)], l) {
			t.Fatalf("append %d wrote %q, want the encoded line", i, after[size:size+len(l)])
		}
		if log := splitPad(t, after); len(log) != size+len(l) {
			t.Fatalf("append %d left a %d-byte log, want %d", i, len(log), size+len(l))
		}
		size, before = size+len(l), after
	}
	if grew != 2 {
		t.Fatalf("the file grew %d times over %d bytes of log, want 2", grew, size)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(`{"v":3,"kind":"case","stage":"s","index":100,"da`), int64(size)); err != nil {
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
	if r.Len() != 100 {
		t.Fatalf("Len = %d over a torn tail, want 100", r.Len())
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
	logEnd := ends[len(ends)-1]
	for _, e := range ends[1:] {
		for _, n := range []int{e - 1, e, e + 1} {
			f.Add(file[ends[0]:n])
		}
	}
	f.Add(flipPayloadByte(file, ends[2])[ends[0]:logEnd])
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte(`{"v":99,"kind":"header","config":"cfg","crc":0}` + "\n"))
	// Runs of NUL: a clean pad, a pad longer than Open's compare chunk, a
	// write torn into the pad, a line whose head is NUL, garbage past the
	// pad.
	nuls := func(n int) string { return string(make([]byte, n)) }
	log := string(file[ends[0]:logEnd])
	f.Add([]byte(log + nuls(100)))
	f.Add([]byte(log + nuls(4<<10+7)))
	f.Add([]byte(log[:len(log)-9] + nuls(50)))
	f.Add([]byte(log[:ends[3]-ends[0]] + nuls(40) + log[ends[3]-ends[0]+40:]))
	f.Add([]byte(log + nuls(64) + "garbage\n"))
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
