package repro_test

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workloads"
)

// subsampled are the experiments whose rows are committed as the
// subsample-6 study rather than the full grid (EXPERIMENTS.md). They are
// the ones `make rows-check` does not re-simulate (committedIDs in
// internal/exp, which TestCommittedIDsAreTheFullGrid pins to the rows),
// so TestOptionSweepsGolden simulates them instead.
var subsampled = []string{"fig12", "fig13", "ablate-static", "ablate-preempt", "ablate-epoch", "ablate-nqinit"}

// TestFiguresGolden pins every table of the experiment registry, Table 1
// and the 56-SM figures included, as reduced from the committed rows in
// results/full. It simulates nothing: the sweeps are collected under a
// canceled context, so a sweep whose rows are not committed fails it —
// which is also how it notices a changed sweep declaration, such as an
// ablation's session option, since the option is hashed into the stage
// key. Each table is a pure reduction, so a change to a reducer or to a
// table's layout fails here. A change to simulated results fails `make
// rows-check`, TestSchedResultsPinned or TestOptionSweepsGolden instead;
// the committed study is re-run then (EXPERIMENTS.md), and this golden
// follows it. Regenerate (only for an intended change to the rows, a
// reducer or a layout) with `go test -run '^TestFiguresGolden$'
// -update-golden .`.
func TestFiguresGolden(t *testing.T) {
	var got strings.Builder
	for _, e := range exp.Experiments() {
		subsample := 1
		if slices.Contains(subsampled, e.ID) {
			subsample = 6
		}
		_, tables, _ := committedRows(t, subsample, e.ID)
		if len(tables[0].Rows) == 0 {
			t.Errorf("%s: empty table", e.ID)
		}
		got.WriteString(tables[0].String())
		got.WriteByte('\n')
	}
	checkGolden(t, filepath.Join("testdata", "figures.golden"), []byte(got.String()))
}

// TestOptionSweepsGolden simulates the subsampled experiments — the
// 56-SM figures and the ablations whose sweeps set a session option
// (static adjustment off, free preemption, the epoch length, the non-QoS
// initial IPC) — on one micro study and pins their tables: one pair per
// class (C+C, C+M, M+M), one trio, two goals per goal axis and a
// 30k-cycle window, which covers only two of the epoch ablation's four
// lengths, so its skip note is pinned too. A simulator change that
// ignores or misreads one of those options fails here, which neither
// rows-check nor TestFiguresGolden would see. Regenerate (only for an
// intended change to results or table layout) with
// `go test -run '^TestOptionSweepsGolden$' -update-golden .`.
func TestOptionSweepsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	r, err := exp.NewRunner(0, exp.WithSessionOptions(core.WithWindow(30_000)))
	if err != nil {
		t.Fatal(err)
	}
	st := exp.Study{
		Runner: r,
		Pairs: []workloads.Pair{
			{QoS: "sgemm", NonQoS: "mri-q"}, // C+C
			{QoS: "sgemm", NonQoS: "lbm"},   // C+M
			{QoS: "lbm", NonQoS: "spmv"},    // M+M
		},
		Trios:  []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}},
		Goals:  []float64{0.5, 0.8},
		Goals2: []float64{0.3, 0.5},
	}
	var exps []exp.Experiment
	for _, e := range exp.Experiments() {
		if slices.Contains(subsampled, e.ID) {
			exps = append(exps, e)
		}
	}
	tables, _, err := st.Tables(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for i, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", exps[i].ID)
		}
		got.WriteString(tbl.String())
		got.WriteByte('\n')
	}
	checkGolden(t, filepath.Join("testdata", "option_sweeps.golden"), []byte(got.String()))
}
