package repro_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workloads"
)

// TestFiguresGolden pins every table of the experiment registry, Table 1
// and the 56-SM figures included, to its copy in EXPERIMENTS.md: the
// fenced text block that opens with the table's "== … ==" title line
// must be byte-equal to the table as reduced from the committed rows in
// results/full, and every such block must be a registry table's, once.
// It simulates nothing: each experiment is collected at the stride the
// registry declares, under a canceled context, so a sweep whose rows are
// not committed there fails it — which is also how it notices a wrong
// stride or a changed sweep declaration, such as an ablation's session
// option, since the option is hashed into the stage key. Each table is a
// pure reduction, so a change to a reducer or to a table's layout fails
// here. A change to simulated results fails `make rows-check`,
// TestSchedResultsPinned or TestOptionSweepsGolden instead; the committed
// study is re-run then, and the doc's tables follow it. Rewrite the
// blocks in place (only for an intended change to the rows, a reducer or
// a layout) with `go test -run '^TestFiguresGolden$' -update-golden .`.
func TestFiguresGolden(t *testing.T) {
	var ids []string
	for _, e := range exp.Experiments() {
		ids = append(ids, e.ID)
	}
	_, tables, _ := committedRows(t, ids...)
	reduced := map[string]string{} // title line -> table
	for i, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", ids[i])
		}
		title, _, _ := strings.Cut(tbl.String(), "\n")
		reduced[title] = tbl.String()
	}
	const path = "EXPERIMENTS.md"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	var updated strings.Builder
	last, copies := 0, map[string]int{}
	for _, b := range tableBlocks(doc) {
		body := doc[b[0]:b[1]]
		title, _, _ := strings.Cut(body, "\n")
		line := strings.Count(doc[:b[0]], "\n") + 1
		want, ok := reduced[title]
		copies[title]++
		switch {
		case !ok:
			t.Errorf("%s:%d: %q is the title of no registry table", path, line, title)
		case *updateGolden:
			updated.WriteString(doc[last:b[0]] + want)
			last = b[1]
		case body != want:
			read, rows := strings.Split(body, "\n"), strings.Split(want, "\n")
			i := 0
			for i < len(read)-1 && i < len(rows)-1 && read[i] == rows[i] {
				i++
			}
			t.Errorf("%s:%d: the doc reads\n\t%q\nthe committed rows reduce to\n\t%q", path, line+i, read[i], rows[i])
		}
	}
	for i, tbl := range tables {
		if title, _, _ := strings.Cut(tbl.String(), "\n"); copies[title] != 1 {
			t.Errorf("%s: %s holds %d copies of %q, want one", ids[i], path, copies[title], title)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(updated.String()+doc[last:]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// tableBlocks returns the byte ranges of doc's fenced text blocks whose
// first line is a table title ("== … =="), each range the block's body
// between its fences.
func tableBlocks(doc string) [][2]int {
	const opening, closing = "```text\n", "\n```"
	var blocks [][2]int
	for off := 0; ; {
		i := strings.Index(doc[off:], opening)
		if i < 0 {
			return blocks
		}
		start := off + i + len(opening)
		n := strings.Index(doc[start-1:], closing)
		if n < 0 {
			return blocks
		}
		end := start + n // the body keeps its last newline
		if title, _, _ := strings.Cut(doc[start:end], "\n"); strings.HasPrefix(title, "== ") && strings.HasSuffix(title, " ==") {
			blocks = append(blocks, [2]int{start, end})
		}
		off = end
	}
}

// TestOptionSweepsGolden simulates the experiments committed at a stride
// above 1 — the 56-SM figures and the ablations whose sweeps set a
// session option (static adjustment off, free preemption, the epoch
// length, the non-QoS initial IPC) — on one micro study and pins their
// tables: one pair per class (C+C, C+M, M+M), one trio, two goals per
// goal axis and a 30k-cycle window, which covers only two of the epoch
// ablation's four lengths, so its skip note is pinned too. A simulator
// change that ignores or misreads one of those options fails here in
// tier-1, in seconds; `make rows-check` samples their committed stages
// too. Regenerate (only for an
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
		if e.Stride > 1 {
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
