package repro_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workloads"
)

// TestFiguresGolden pins every experiment of the registry, Table 1 and
// the 56-SM figures included, on one micro study: one pair per class
// (C+C, C+M, M+M), one trio, two goals per goal axis and a 30k-cycle
// window, which covers only two of the epoch ablation's four lengths,
// so its skip note is pinned too. Every sweep is collected in one pass
// and each table is a pure reduction, so the concatenated text is the
// whole reproduction pipeline end to end. The pass writes each sweep's
// rows to a row store; a second study reads them back under a canceled
// context, so any case it tried to simulate would fail it, and its tables
// must be the same bytes: a table reduced from rows is the table reduced
// from the simulated cases. Regenerate (only for an intended change to
// results or table layout) with
// `go test -run '^TestFiguresGolden$' -update-golden .`.
func TestFiguresGolden(t *testing.T) {
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
		Rows:   t.TempDir(),
	}
	got := figuresText(context.Background(), t, st)
	checkGolden(t, filepath.Join("testdata", "figures.golden"), got)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if fromRows := figuresText(canceled, t, st); !bytes.Equal(fromRows, got) {
		t.Fatal("the tables reduced from the written rows differ from the tables reduced from the simulated cases")
	}
}

// figuresText collects every experiment of the registry on st and
// returns the concatenated tables.
func figuresText(ctx context.Context, t *testing.T, st exp.Study) []byte {
	t.Helper()
	exps := exp.Experiments()
	tables, _, err := st.Tables(ctx, exps)
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
	return []byte(got.String())
}
