package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type fakeCase struct {
	Name string
	IPC  float64
	N    int64
}

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.journal")
}

func TestCreateAppendReopen(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]fakeCase{
		0: {Name: "sgemm+lbm", IPC: 123.456789012345, N: 42},
		3: {Name: "mri-q+sad", IPC: 0.1 + 0.2, N: -7}, // exercises float round-trip
	}
	for i, c := range want {
		if err := j.Append("pairs/rollover", i, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append("trios/spart", 0, fakeCase{Name: "other-stage"}); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("pairs/rollover", 9, fakeCase{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}

	r, err := Open(path, "cfg-a")
	if err != nil {
		t.Fatal(err)
	}
	got := r.Completed("pairs/rollover")
	if len(got) != len(want) {
		t.Fatalf("recovered %d cases, want %d", len(got), len(want))
	}
	for i, w := range want {
		var c fakeCase
		if err := json.Unmarshal(got[i], &c); err != nil {
			t.Fatal(err)
		}
		if c != w {
			t.Fatalf("case %d = %+v, want %+v (must be bit-identical)", i, c, w)
		}
	}
	if _, ok := r.Lookup("trios/spart", 0); !ok {
		t.Fatal("lost the other stage's entry")
	}
	if _, ok := r.Lookup("pairs/rollover", 99); ok {
		t.Fatal("found a case that was never journaled")
	}
}

func TestOpenMissingFileCreates(t *testing.T) {
	path := tmpJournal(t)
	j, err := Open(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("Len = %d", j.Len())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("header not written: %v", err)
	}
}

func TestOpenConfigMismatch(t *testing.T) {
	path := tmpJournal(t)
	if _, err := Create(path, "cfg-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "cfg-b"); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("err = %v, want ErrConfigMismatch", err)
	}
}

func TestOpenRejectsForeignVersion(t *testing.T) {
	path := tmpJournal(t)
	hl, err := encode(line{Kind: "header", Config: "cfg"})
	if err != nil {
		t.Fatal(err)
	}
	future := bytes.Replace(hl, []byte(fmt.Sprintf(`"v":%d`, Version)), []byte(`"v":99`), 1)
	if err := os.WriteFile(path, append(future, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "cfg"); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestOpenRejectsHeaderless(t *testing.T) {
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "cfg"); !errors.Is(err, ErrNoHeader) {
		t.Fatalf("garbage file: err = %v, want ErrNoHeader", err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, "cfg"); !errors.Is(err, ErrNoHeader) {
		t.Fatalf("empty file: err = %v, want ErrNoHeader", err)
	}
}

// TestOpenDropsTornTail simulates a crash that tore the last line, whose
// last bytes never left the pad: the intact prefix must survive, the torn
// line must be dropped.
func TestOpenDropsTornTail(t *testing.T) {
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
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := len(splitPad(t, raw))
	copy(raw[end-15:end], make([]byte, 15)) // cut into the final line
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	got := r.Completed("s")
	if len(got) != 2 {
		t.Fatalf("recovered %d cases, want 2 (torn tail dropped)", len(got))
	}
	for _, i := range []int{0, 1} {
		if _, ok := got[i]; !ok {
			t.Fatalf("case %d lost", i)
		}
	}
}

// TestOpenStopsAtCorruptLine flips payload bytes mid-file: the CRC must
// catch it and recovery must keep only the prefix.
func TestOpenStopsAtCorruptLine(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append("s", i, fakeCase{Name: fmt.Sprintf("case-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	lines[2] = strings.Replace(lines[2], "case-1", "case-X", 1) // corrupt line for index 1
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	got := r.Completed("s")
	if len(got) != 1 {
		t.Fatalf("recovered %d cases, want 1 (corruption stops recovery)", len(got))
	}
	if _, ok := got[0]; !ok {
		t.Fatal("intact prefix case 0 lost")
	}
}

// TestAppendAfterRecoveryCompactsDamage checks a resumed journal rewrites
// itself cleanly: after recovering past damage, the next Append leaves a
// fully valid file.
func TestAppendAfterRecoveryCompactsDamage(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("s", 0, fakeCase{N: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"kind":"case","torn...`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append("s", 1, fakeCase{N: 2}); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 {
		t.Fatalf("after compaction Len = %d, want 2", r2.Len())
	}
}

func TestConcurrentAppend(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := j.Append("s", i, fakeCase{N: int64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	r, err := Open(path, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != n {
		t.Fatalf("recovered %d cases, want %d", r.Len(), n)
	}
}

func TestHashStable(t *testing.T) {
	type cfg struct {
		A int
		B string
		C []float64
	}
	a, err := Hash(cfg{1, "x", []float64{0.5, 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Hash(cfg{1, "x", []float64{0.5, 0.95}})
	if a != b {
		t.Fatal("equal values hashed differently")
	}
	c, _ := Hash(cfg{2, "x", []float64{0.5, 0.95}})
	if a == c {
		t.Fatal("different values collided (suspicious)")
	}
	if len(a) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(a))
	}
	if _, err := Hash(func() {}); err == nil {
		t.Fatal("unmarshalable value must error")
	}
}

// FuzzJournalDecode hardens the line parser: Decode must never panic on
// arbitrary bytes, and every accepted line must survive a re-encode ->
// re-decode round trip with its fields intact.
func FuzzJournalDecode(f *testing.F) {
	if hl, err := encode(line{Kind: "header", Config: "abcdef"}); err == nil {
		f.Add(hl)
	}
	if cl, err := encode(line{Kind: "case", Stage: "pairs/rollover", Index: 3, Data: json.RawMessage(`{"x":1.5}`)}); err == nil {
		f.Add(cl)
	}
	f.Add([]byte(`{"v":1,"kind":"case","stage":"s","index":0,"data":{},"crc":0}`))
	f.Add([]byte(`{"v":99,"kind":"header","config":"x","crc":0}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := Decode(b)
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		kind := "case"
		if rec.Header {
			kind = "header"
		}
		enc, err := encode(line{Kind: kind, Config: rec.Config, Stage: rec.Stage, Index: rec.Index, Data: rec.Data})
		if err != nil {
			t.Fatalf("accepted line failed to re-encode: %v", err)
		}
		rec2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded line failed to decode: %v", err)
		}
		if rec2.Header != rec.Header || rec2.Config != rec.Config ||
			rec2.Stage != rec.Stage || rec2.Index != rec.Index {
			t.Fatalf("round trip changed fields: %+v -> %+v", rec, rec2)
		}
		if len(rec.Data) > 0 {
			var a, b bytes.Buffer
			if json.Compact(&a, rec.Data) == nil && json.Compact(&b, rec2.Data) == nil &&
				a.String() != b.String() {
				t.Fatalf("round trip changed payload: %s -> %s", a.String(), b.String())
			}
		}
	})
}
