package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/workloads"
)

// journalCaseLines counts the case records in a journal file, so a case
// appended twice is visible even though Journal.Len deduplicates.
func journalCaseLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexByte(data, 0); i >= 0 {
		data = data[:i] // the NUL pad ends the log
	}
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := journal.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Header {
			n++
		}
	}
	return n
}

// epochSweep declares the study's Rollover pair grid at one quota epoch
// length, on a derived runner.
func epochSweep(st Study, l int64) Sweep {
	cfg := st.Runner.GPUConfig()
	cfg.EpochLength = l
	return Sweep{Name: fmt.Sprintf("epoch-%d", l), Scheme: core.SchemeRollover,
		Session: []core.Option{core.WithGPU(cfg)}}
}

// byStage indexes Collect's rows by sweep name.
func byStage(rows []SweepRow) map[string]SweepRow {
	m := map[string]SweepRow{}
	for _, row := range rows {
		m[row.Stage] = row
	}
	return m
}

// TestCollectDeduplicatesAgainstJournal runs two overlapping sweep lists
// through one journal. The first Collect simulates and appends every
// unique case exactly once: a repeated sweep, the same grid under another
// name and a derived runner whose options change nothing are all reused.
// The second Collect, in a fresh runner over the reopened journal,
// simulates nothing and returns identical cases.
func TestCollectDeduplicatesAgainstJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	study := func(j *journal.Journal) Study {
		return Study{
			Runner: testRunner(t, 2, WithFaultPolicy(FaultPolicy{Journal: j})),
			Pairs:  faultPairs[:2],
			Trios:  []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}},
			Goals:  []float64{0.4, 0.7},
			Goals2: []float64{0.3},
		}
	}
	first := []Sweep{pairsOf(core.SchemeRollover), historyOff, triosOf(core.SchemeSpart, 2)}
	second := []Sweep{
		pairsOf(core.SchemeRollover),
		{Name: "rollover-again", Scheme: core.SchemeRollover},
		historyOff,
		triosOf(core.SchemeSpart, 2),
	}
	const unique = 4 + 4 + 1 // Rollover pairs, history-off pairs, 2-QoS trio

	path := filepath.Join(t.TempDir(), "study.journal")
	j, err := journal.Create(path, "collect-test")
	if err != nil {
		t.Fatal(err)
	}
	st := study(j)
	second = append(second, epochSweep(st, st.Runner.GPUConfig().EpochLength)) // the base config again
	rows, err := st.Collect(context.Background(), append(first, second...))
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	ran, reused := 0, 0
	for _, row := range rows {
		ran += row.Cases
		if row.Reused != "" {
			reused++
		}
	}
	if len(rows) != len(first)+len(second) || ran != unique || reused != len(second) {
		t.Fatalf("first run: %d rows, %d cases simulated, %d reused; want %d, %d, %d",
			len(rows), ran, reused, len(first)+len(second), unique, len(second))
	}
	if n := journalCaseLines(t, path); n != unique {
		t.Fatalf("journal holds %d case lines, want each of %d unique cases once", n, unique)
	}
	first1 := byStage(rows)
	if got, want := first1["rollover-again"].Pairs, first1["Rollover"].Pairs; len(got) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatal("a reused sweep's cases differ from the sweep it reused")
	}

	j2, err := journal.Open(path, "collect-test")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rows, err = study(j2).Collect(context.Background(), append(second, first...))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Cases != 0 {
			t.Fatalf("resumed run simulated %d cases for %s", row.Cases, row.Stage)
		}
	}
	if n := journalCaseLines(t, path); n != unique {
		t.Fatalf("resumed run appended to the journal: %d case lines, want %d", n, unique)
	}
	for name, row := range byStage(rows) {
		if !reflect.DeepEqual(row.Pairs, first1[name].Pairs) || !reflect.DeepEqual(row.Trios, first1[name].Trios) {
			t.Fatalf("%s: resumed cases differ from the first run's", name)
		}
	}
}

// TestCollectRefusesBeforeSimulating checks that every sweep is resolved
// before any runs: a bad declaration late in the list fails the call with
// no sweep run, whether it is an invalid derived option, an empty grid or
// an unknown number of QoS kernels.
func TestCollectRefusesBeforeSimulating(t *testing.T) {
	st := Study{Runner: testRunner(t, 1), Pairs: faultPairs, Goals: []float64{0.5}}
	tooLong := epochSweep(st, st.Runner.Window()) // the window covers one epoch only
	for name, tc := range map[string]struct {
		bad  Sweep
		want string
	}{
		"invalid option": {tooLong, "two epochs"},
		"empty grid":     {triosOf(core.SchemeSpart, 1), "empty case grid"},
		"bad nQoS":       {Sweep{Name: "trios3", Scheme: core.SchemeSpart, NQoS: 3}, "nQoS must be"},
	} {
		rows, err := st.Collect(context.Background(), []Sweep{pairsOf(core.SchemeRollover), tc.bad})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", name, err, tc.want)
		}
		if len(rows) != 0 {
			t.Errorf("%s: %d sweeps ran before the refusal", name, len(rows))
		}
	}
}

// TestAblationsFitTheStudy covers the two studies the ablations used to
// reject only after every other sweep had run: a window too short for
// the longest epochs, and a subsample without an M+M pair.
func TestAblationsFitTheStudy(t *testing.T) {
	r, err := NewRunner(1, WithSessionOptions(core.WithWindow(30_000)))
	if err != nil {
		t.Fatal(err)
	}
	st := ReducedStudy(r, 30) // no M+M pair among its three
	var names []string
	for _, sw := range epochSweeps(st) {
		names = append(names, sw.Name)
	}
	if want := []string{"epoch-5000", "epoch-10000"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("epoch sweeps at a 30k window = %v, want %v", names, want)
	}
	mm, borrowed := staticPairs(st)
	if !borrowed || len(mm) != 1 {
		t.Fatalf("static pairs = %v (borrowed %v), want the first M+M pair of the full set", mm, borrowed)
	}
	if cls, _ := workloads.PairClass(mm[0].QoS, mm[0].NonQoS); cls != "M+M" {
		t.Fatalf("borrowed pair %v is %s", mm[0], cls)
	}
	for _, sw := range staticSweeps(st) {
		if !reflect.DeepEqual(sw.Pairs, mm) {
			t.Fatalf("%s sweeps %v, want the borrowed pair only", sw.Name, sw.Pairs)
		}
	}
}
