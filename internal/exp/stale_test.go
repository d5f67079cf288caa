package exp

import (
	"context"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

var stale = flag.Bool("stale", false, "re-simulate a sample of the committed rows in results/full and require byte-equal rows")

// staleSample picks the cases of a committed stage to re-simulate, fixed
// by the stage's position s: one pair from each of nStrata class strata
// (C+C, C+M, M+C, M+M: the first nStrata non-empty ones from position s
// on), or three trios, each at a goal that moves with s and the stratum.
func staleSample(g Grid, s, nStrata int) []int {
	goal := func(j int) int { return (s*3 + j*7 + 1) % len(g.Goals) }
	var todo []int
	if g.NQoS != 0 {
		for j := 0; j < 3; j++ {
			todo = append(todo, (s*11+j*20)%len(g.Trios)*len(g.Goals)+goal(j))
		}
		slices.Sort(todo)
		return todo
	}
	strata := map[string][]int{}
	for n, p := range g.Pairs {
		q, _ := workloads.ByName(p.QoS)
		nq, _ := workloads.ByName(p.NonQoS)
		key := q.Class.String() + "+" + nq.Class.String()
		strata[key] = append(strata[key], n)
	}
	keys := []string{"C+C", "C+M", "M+C", "M+M"}
	for k := 0; k < len(keys) && len(todo) < nStrata; k++ {
		j := (s + k) % len(keys)
		if members := strata[keys[j]]; len(members) > 0 {
			todo = append(todo, members[(s*7)%len(members)]*len(g.Goals)+goal(j))
		}
	}
	slices.Sort(todo)
	return todo
}

// TestCommittedRowsAreCurrent is the staleness gate over results/full:
// it walks every experiment of the registry at the stride its rows are
// committed at, re-simulates a fixed class-stratified sample of each
// committed stage through Runner.Run's case subset and requires the rows
// to be byte-equal to the committed ones. A change to the simulator that
// moves a result fails it, including one to an option only the
// subsample-6 stages set; such a change re-runs the committed study
// (EXPERIMENTS.md gives the commands). It runs only with -stale (make
// rows-check).
func TestCommittedRowsAreCurrent(t *testing.T) {
	if !*stale {
		t.Skip("re-simulates committed rows; run with -stale (make rows-check)")
	}
	r, err := NewRunner(0, WithSessionOptions(core.WithGPU(config.Base()), core.WithWindow(CommittedWindow)))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStudy(r, 1)
	seen, checked := map[string]bool{}, 0
	for _, e := range Experiments() {
		at := st.at(e)
		for _, sw := range e.Sweeps(at) {
			p, err := at.plan(sw)
			if err != nil {
				t.Fatal(err)
			}
			if seen[p.key] {
				continue
			}
			// Four class strata of a full-grid stage, one of a sparser
			// one: the 56-SM cases cost most. Stages run as parallel
			// subtests, so single-case stages keep both cores busy.
			todo := staleSample(p.grid, len(seen), max(1, 4/e.Stride))
			t.Run(p.Name, func(t *testing.T) { t.Parallel(); checkRows(t, p, todo) })
			seen[p.key], checked = true, checked+len(todo)
		}
	}
	if len(seen) != 23 || checked != 52 {
		t.Fatalf("checked %d rows of %d stages, want 52 of 23", checked, len(seen))
	}
}

// checkRows re-simulates cases todo of a planned stage and requires each
// row to be byte-equal to its committed row.
func checkRows(t *testing.T, p plannedSweep, todo []int) {
	t.Helper()
	path := rowFile("../../results/full", p.key)
	data, err := os.ReadFile(path)
	if err == nil {
		_, err = p.grid.decodeRows(path, data, p.Scheme)
	}
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	committed := strings.Split(string(data), "\n") // the header, then case i at i+1
	got := make([]Case, p.grid.Len())
	_, err = p.runner.Run(context.Background(), p.grid, p.Scheme, todo, func(i int, res *core.Result, ce *CaseError) error {
		if ce != nil {
			return ce
		}
		got[i] = p.grid.Case(i, res)
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	for k, row := range p.grid.CSVRows(got) {
		i := todo[k]
		if line := strings.Join(row, ","); line != committed[i+1] {
			t.Errorf("%s:%d (%s): committed\n\t%s\nsimulates to\n\t%s", path, i+2, p.grid.Describe(i), committed[i+1], line)
		}
	}
}
