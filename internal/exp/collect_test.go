package exp

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// epochSweep declares the study's Rollover pair grid at one quota epoch
// length, on a derived runner.
func epochSweep(st Study, l int64) Sweep {
	cfg := st.Runner.Session().GPUConfig()
	cfg.EpochLength = l
	return Sweep{Name: fmt.Sprintf("epoch-%d", l), Scheme: core.SchemeRollover,
		Session: []core.Option{core.WithGPU(cfg)}}
}

// simulated counts the cases a row's sweep simulated this run (0 for a
// reused or read sweep).
func simulated(row SweepRow) int {
	if row.Report == nil {
		return 0
	}
	return row.Report.Total
}

// byStage indexes Collect's rows by sweep name.
func byStage(rows []SweepRow) map[string]SweepRow {
	m := map[string]SweepRow{}
	for _, row := range rows {
		m[row.Stage] = row
	}
	return m
}

// TestCollectDeduplicatesAgainstRows runs two overlapping sweep lists
// over one row store. The first Collect simulates every unique case
// exactly once and writes one file per unique stage: a repeated sweep,
// the same grid under another name and a derived runner whose options
// change nothing are all reused. The second Collect, in a fresh study
// over the same directory and under a canceled context, simulates nothing
// and returns the same cases.
func TestCollectDeduplicatesAgainstRows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	dir := t.TempDir()
	study := func() Study {
		return Study{
			Runner: testRunner(t, 2),
			Pairs:  faultPairs[:2],
			Trios:  []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}},
			Goals:  []float64{0.4, 0.7},
			Goals2: []float64{0.3},
			Rows:   dir,
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

	st := study()
	second = append(second, epochSweep(st, st.Runner.Session().GPUConfig().EpochLength)) // the base config again
	rows, err := st.Collect(context.Background(), append(first, second...))
	if err != nil {
		t.Fatal(err)
	}
	ran, reused := 0, 0
	for _, row := range rows {
		ran += simulated(row)
		if row.Reused != "" {
			reused++
		}
	}
	if len(rows) != len(first)+len(second) || ran != unique || reused != len(second) {
		t.Fatalf("first run: %d rows, %d cases simulated, %d reused; want %d, %d, %d",
			len(rows), ran, reused, len(first)+len(second), unique, len(second))
	}
	if files, _ := os.ReadDir(dir); len(files) != len(first) {
		t.Fatalf("row store holds %d files, want one per unique stage, %d", len(files), len(first))
	}
	first1 := byStage(rows)
	if got, want := first1["rollover-again"].Cases, first1["Rollover"].Cases; len(got) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatal("a reused sweep's cases differ from the sweep it reused")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err = study().Collect(canceled, append(second, first...))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if n := simulated(row); n != 0 {
			t.Fatalf("second run simulated %d cases for %s", n, row.Stage)
		}
	}
	for name, row := range byStage(rows) {
		want := trimmed(first1[name])
		if !reflect.DeepEqual(row.Cases, want.Cases) {
			t.Fatalf("%s: cases read back differ from the first run's", name)
		}
	}
}

// TestCollectRefusesBeforeSimulating checks that every sweep is resolved
// before any runs: a bad declaration late in the list fails the call with
// no sweep run, whether it is an invalid derived option, an empty grid or
// an unknown number of QoS kernels.
func TestCollectRefusesBeforeSimulating(t *testing.T) {
	st := Study{Runner: testRunner(t, 1), Pairs: faultPairs, Goals: []float64{0.5}}
	tooLong := epochSweep(st, st.Runner.Session().Window()) // the window covers one epoch only
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
	st := NewStudy(r, 30) // no M+M pair among its three
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
