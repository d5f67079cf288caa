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

// committedIDs are the experiments whose every sweep results/full holds
// at the full grid (TestCommittedIDsAreTheFullGrid). The others are
// committed as the subsample-6 study, which the root TestFiguresGolden
// reads and TestOptionSweepsGolden simulates on a micro study.
var committedIDs = []string{"fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8a", "fig8b", "fig8c",
	"fig9", "fig10", "fig11", "fig14", "ablate-history"}

// TestCommittedIDsAreTheFullGrid pins committedIDs to results/full: an
// experiment is on it exactly when every sweep it declares is committed
// there at the full grid, so rows-check cannot silently skip one.
func TestCommittedIDsAreTheFullGrid(t *testing.T) {
	r, err := NewRunner(1, WithSessionOptions(core.WithGPU(config.Base()), core.WithWindow(CommittedWindow)))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStudy(r, 1)
	for _, e := range Experiments() {
		sweeps := e.Sweeps(st)
		if len(sweeps) == 0 {
			continue // table1 simulates nothing
		}
		full := true
		for _, sw := range sweeps {
			p, err := st.plan(sw)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(rowFile("../../results/full", p.key)); err != nil {
				full = false
			}
		}
		if listed := slices.Contains(committedIDs, e.ID); full != listed {
			t.Errorf("%s: every sweep committed at the full grid = %v, on committedIDs = %v", e.ID, full, listed)
		}
	}
}

// staleSample picks the cases of a committed stage to re-simulate, fixed
// by the stage's position s: one pair per QoS+non-QoS class stratum (C+C,
// C+M, M+C, M+M), or three trios, each at a goal that moves with s and
// the stratum.
func staleSample(g Grid, s int) []int {
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
	for j, key := range []string{"C+C", "C+M", "M+C", "M+M"} {
		if members := strata[key]; len(members) > 0 {
			todo = append(todo, members[(s*7)%len(members)]*len(g.Goals)+goal(j))
		}
	}
	slices.Sort(todo)
	return todo
}

// TestCommittedRowsAreCurrent is the staleness gate over results/full:
// it re-simulates a fixed class-stratified sample of each committed
// full-grid stage (40 cases over the 11 stages) through Runner.Run's case
// subset and requires the rows to be byte-equal to the committed ones. A
// change to the simulator that moves a result fails it; such a change
// re-runs the committed study (EXPERIMENTS.md gives the commands). It
// runs only with -stale (make rows-check): about half a minute of
// simulation on two cores.
func TestCommittedRowsAreCurrent(t *testing.T) {
	if !*stale {
		t.Skip("re-simulates committed rows; run with -stale (make rows-check)")
	}
	r, err := NewRunner(0, WithSessionOptions(core.WithGPU(config.Base()), core.WithWindow(CommittedWindow)))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStudy(r, 1)
	var sweeps []Sweep
	for _, e := range Experiments() {
		if slices.Contains(committedIDs, e.ID) {
			sweeps = append(sweeps, e.Sweeps(st)...)
		}
	}
	seen, checked := map[string]bool{}, 0
	for _, sw := range sweeps {
		p, err := st.plan(sw)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.key] {
			continue
		}
		seen[p.key] = true
		path := rowFile("../../results/full", p.key)
		data, err := os.ReadFile(path)
		if err == nil {
			_, err = p.grid.decodeRows(path, data, p.Scheme)
		}
		if err != nil {
			t.Fatalf("%s: %v", sw.Name, err)
		}
		committed := strings.Split(string(data), "\n") // the header, then case i at i+1
		todo := staleSample(p.grid, len(seen)-1)
		got := p.grid.Cases()
		_, err = p.runner.Run(context.Background(), p.grid, p.Scheme, todo, func(i int, res *core.Result, ce *CaseError) error {
			if ce != nil {
				return ce
			}
			got.set(i, p.grid.Case(i, p.Scheme, res))
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", sw.Name, err)
		}
		for k, row := range p.grid.CSVRows(got) {
			i := todo[k]
			if line := strings.Join(row, ","); line != committed[i+1] {
				t.Errorf("%s:%d (%s): committed\n\t%s\nsimulates to\n\t%s", path, i+2, p.grid.Describe(i), committed[i+1], line)
			}
			checked++
		}
	}
	if len(seen) != 11 || checked != 40 {
		t.Fatalf("checked %d rows of %d stages, want 40 of 11", checked, len(seen))
	}
}
