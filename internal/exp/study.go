package exp

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/workloads"
)

// Study configures how much of the full evaluation the experiments
// reduce. The paper's full study is 90 pairs x 10 goals (900 cases per
// scheme) and 60 trios x 10 goals; NewStudy subsamples the pairs and
// trios. All sweeps execute on the Runner's worker pool.
type Study struct {
	Runner *Runner
	Pairs  []workloads.Pair
	Trios  []workloads.Trio
	Goals  []float64 // pair/1-QoS-trio goal sweep
	Goals2 []float64 // 2-QoS-trio goal sweep
	// Rows is the row store (rows.go): a sweep whose stage file is there
	// is read instead of simulated, and one that simulates to the end is
	// written there. Empty means simulate every sweep and write nothing.
	Rows string
	// Progress receives sweep progress events for long runs (may be nil).
	Progress ProgressFunc
	stride   int // NewStudy's k; 0 for a study whose pairs are spelled out
}

// NewStudy returns the paper's evaluation on every k-th pair and trio
// (k <= 1: all of them) at every goal, thinned per experiment by at.
func NewStudy(r *Runner, k int) Study {
	k = max(k, 1)
	return Study{
		Runner: r,
		Pairs:  every(workloads.Pairs(), k),
		Trios:  every(workloads.Trios(), k),
		Goals:  Goals(),
		Goals2: TwoQoSGoals(),
		stride: k,
	}
}

// at is the study e is collected at: every max(k, e.Stride)-th pair and
// trio of a NewStudy(r, k) study, any other study as it is.
func (st Study) at(e Experiment) Study {
	if st.stride > 0 && e.Stride > st.stride {
		st.stride, st.Pairs, st.Trios = e.Stride, every(workloads.Pairs(), e.Stride), every(workloads.Trios(), e.Stride)
	}
	return st
}

func every[T any](in []T, k int) []T {
	var out []T
	for i := 0; i < len(in); i += k {
		out = append(out, in[i])
	}
	return out
}

// Sweep declares one case grid an experiment reduces: the study's pairs
// (or an explicit pair list) at its goals, or its trios with one or two
// QoS kernels, under one scheme, on the study's runner or on one derived
// from it with extra session options.
type Sweep struct {
	// Name labels the sweep's progress and its row.
	Name   string
	Scheme core.Scheme
	// NQoS is 0 for a pair sweep, or 1 or 2 for a trio sweep with that
	// many QoS kernels (2 sweeps the study's Goals2).
	NQoS int
	// Pairs replaces the study's pair list when non-nil.
	Pairs []workloads.Pair
	// Session lists extra session options: non-empty means the sweep runs
	// on a runner derived with Runner.With.
	Session []core.Option
	// study, when set, is the study the sweep is planned on (Tables).
	study *Study
}

// pairsOf declares the study's pair grid under one scheme.
func pairsOf(sc core.Scheme) Sweep { return Sweep{Name: sc.String(), Scheme: sc} }

// triosOf declares the study's trio grid with nQoS QoS kernels.
func triosOf(sc core.Scheme, nQoS int) Sweep {
	return Sweep{Name: fmt.Sprintf("trios%d/%s", nQoS, sc), Scheme: sc, NQoS: nQoS}
}

// scale56Of declares the study's pair grid on the 56-SM device (Figures
// 12 and 13).
func scale56Of(sc core.Scheme) Sweep {
	return Sweep{Name: "scale56/" + sc.String(), Scheme: sc, Session: []core.Option{core.WithGPU(config.Scale56())}}
}

// SweepRow is one declared sweep of a Collect call: its cases and how
// they were obtained.
type SweepRow struct {
	// Stage is the sweep's declared name and, when its study takes every
	// k-th pair and trio for a k above 1, that stride: "Rollover" for the
	// full grid, "Rollover (stride 6)" for every sixth pair.
	Stage string
	// Reused names the earlier sweep of the same Collect with the same
	// stage key, whose cases this one shares; empty otherwise.
	Reused string
	// File is the row file the cases were read from (Report nil) or
	// written to; empty when reused or without a row store.
	File string
	// Report is the fault report of the sweep that simulated; nil when
	// reused or read.
	Report *SweepReport
	Pairs  []PairCase // a pair sweep's cases
	Trios  []TrioCase // a trio sweep's cases
}

// plannedSweep is a declared sweep resolved to its runner, case grid,
// stage key and stage label.
type plannedSweep struct {
	Sweep
	runner *Runner
	grid   Grid
	key    string
	stage  string // SweepRow.Stage
}

// plan resolves one declared sweep: it checks the grid, builds the
// derived runner and derives the sweep's stage key.
func (st Study) plan(sw Sweep) (p plannedSweep, err error) {
	if sw.study != nil {
		st = *sw.study
	}
	p = plannedSweep{Sweep: sw, runner: st.Runner, grid: Grid{Pairs: sw.Pairs, Goals: st.Goals}, stage: sw.Name}
	if st.stride > 1 {
		p.stage = fmt.Sprintf("%s (stride %d)", sw.Name, st.stride)
	}
	if p.grid.Pairs == nil {
		p.grid.Pairs = st.Pairs
	}
	if sw.NQoS != 0 {
		p.grid = Grid{Trios: st.Trios, Goals: st.Goals, NQoS: sw.NQoS}
	}
	if sw.NQoS == 2 {
		p.grid.Goals = st.Goals2
	}
	if err := p.grid.Check(); err != nil {
		return p, err
	}
	if len(sw.Session) > 0 {
		if p.runner, err = st.Runner.With(sw.Session...); err != nil {
			return p, err
		}
	}
	p.key, err = p.runner.stageKey(p.grid, sw.Scheme)
	return p, err
}

// Collect runs the declared sweeps in three phases. It resolves every
// sweep first (derived runners, grids, stage keys), so an invalid option
// or an empty grid fails before any case simulates. It then deduplicates
// by stage key, which hashes the session configuration and the grid, so
// two sweeps share a key only when their cases are identical. Last, it
// obtains each unique sweep once: from its row file when the study's row
// store has one, else by simulating it (and writing the file). It
// returns one row per declared sweep, in order; on error, the rows of
// every sweep that finished before it.
func (st Study) Collect(ctx context.Context, sweeps []Sweep) ([]SweepRow, error) {
	plans := make([]plannedSweep, len(sweeps))
	for i, sw := range sweeps {
		p, err := st.plan(sw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sw.Name, err)
		}
		plans[i] = p
	}
	var rows []SweepRow
	done := map[string]SweepRow{} // stage key -> the row that obtained it
	for _, p := range plans {
		if first, ok := done[p.key]; ok {
			rows = append(rows, SweepRow{Stage: p.stage, Reused: first.Stage, Pairs: first.Pairs, Trios: first.Trios})
			continue
		}
		row, err := st.obtain(ctx, p)
		if row.Report != nil || row.File != "" { // read, or simulated to the end
			rows = append(rows, row)
		}
		if err != nil {
			return rows, fmt.Errorf("%s: %w", p.stage, err)
		}
		done[p.key] = row
	}
	return rows, nil
}

// obtain reads one planned sweep from the row store, or simulates it and
// writes its file once every case has completed.
func (st Study) obtain(ctx context.Context, p plannedSweep) (SweepRow, error) {
	row := SweepRow{Stage: p.stage}
	var path string
	if st.Rows != "" {
		path = rowFile(st.Rows, p.key)
		cases, found, err := readRows(path, p.grid, p.Scheme)
		if found && err == nil {
			row.File, row.Pairs, row.Trios = path, cases.Pairs, cases.Trios
		}
		if found || err != nil {
			return row, err
		}
	}
	progress := st.Progress
	if progress != nil { // relabel the sweep's events with its stage label
		progress = func(e Progress) { e.Stage = p.stage; st.Progress(e) }
	}
	cases, rep, err := p.runner.Sweep(ctx, p.grid, p.Scheme, progress)
	row.Report, row.Pairs, row.Trios = rep, cases.Pairs, cases.Trios
	if err == nil && path != "" {
		if err = writeRows(path, p.grid, cases); err == nil {
			row.File = path
		}
	}
	return row, err
}

// Reducer turns the rows of an experiment's declared sweeps, in
// declaration order, into its table; it simulates nothing.
type Reducer func(Study, []SweepRow) (*Table, error)

// Experiment is one reproduced table or figure: the sweeps it needs and a
// pure reduction of their cases into its table.
type Experiment struct {
	ID     string
	Stride int // rows committed in results/full at every Stride-th pair and trio
	// Sweeps declares the case grids the table reduces.
	Sweeps func(Study) []Sweep
	Table  Reducer
}

// Experiments returns every table, figure and ablation of the evaluation
// in the order cmd/qossim prints them.
func Experiments() []Experiment {
	spartRollover := fixed(pairsOf(core.SchemeSpart), pairsOf(core.SchemeRollover))
	rolloverTime := fixed(pairsOf(core.SchemeRollover), pairsOf(core.SchemeRolloverTime))
	trios := func(nQoS int) func(Study) []Sweep {
		return fixed(triosOf(core.SchemeSpart, nQoS), triosOf(core.SchemeRollover, nQoS))
	}
	scale56 := fixed(scale56Of(core.SchemeSpart), scale56Of(core.SchemeRollover))
	var nqInit []Sweep
	for _, init := range nonQoSInits {
		nqInit = append(nqInit, Sweep{Name: fmt.Sprintf("init-%.0f", init), Scheme: core.SchemeRollover,
			Session: []core.Option{core.WithQoSOptions(qos.Options{NonQoSInitIPC: init})}})
	}
	return []Experiment{
		{"table1", 1, fixed(), func(Study, []SweepRow) (*Table, error) { return Table1(config.Base()), nil }},
		{"fig5", 1, fixed(pairsOf(core.SchemeNaiveHistory)), Fig5},
		{"fig6a", 1, fixed(pairsOf(core.SchemeSpart), pairsOf(core.SchemeNaive), pairsOf(core.SchemeElastic),
			pairsOf(core.SchemeRollover)), Fig6a},
		{"fig6b", 1, trios(1), Fig6b},
		{"fig6c", 1, trios(2), Fig6c},
		{"fig7", 1, spartRollover, Fig7},
		{"fig8a", 1, spartRollover, Fig8a},
		{"fig8b", 1, trios(1), Fig8b},
		{"fig8c", 1, trios(2), Fig8c},
		{"fig9", 1, spartRollover, Fig9},
		{"fig10", 1, rolloverTime, Fig10},
		{"fig11", 1, rolloverTime, Fig11},
		{"fig12", 6, scale56, Fig12},
		{"fig13", 6, scale56, Fig13},
		{"fig14", 1, spartRollover, Fig14},
		{"ablate-history", 1, fixed(pairsOf(core.SchemeRollover), historyOff), AblateHistory},
		{"ablate-static", 6, staticSweeps, AblateStatic},
		{"ablate-preempt", 6, preemptSweeps, AblatePreemption},
		{"ablate-epoch", 6, epochSweeps, AblateEpochLength},
		{"ablate-nqinit", 6, fixed(nqInit...), AblateNonQoSInit},
	}
}

// fixed declares sweeps that do not depend on the study.
func fixed(sweeps ...Sweep) func(Study) []Sweep {
	return func(Study) []Sweep { return sweeps }
}

// Tables collects every sweep the experiments declare, each experiment at
// its study (at), in one Collect and reduces each experiment's rows to
// its table, in order.
func (st Study) Tables(ctx context.Context, exps []Experiment) ([]*Table, []SweepRow, error) {
	var sweeps []Sweep
	studies, counts := make([]Study, len(exps)), make([]int, len(exps))
	for i, e := range exps {
		studies[i] = st.at(e)
		for _, sw := range e.Sweeps(studies[i]) {
			sw.study = &studies[i]
			sweeps, counts[i] = append(sweeps, sw), counts[i]+1
		}
	}
	rows, err := st.Collect(ctx, sweeps)
	if err != nil {
		return nil, rows, err
	}
	tables, rest := make([]*Table, len(exps)), rows
	for i, e := range exps {
		if tables[i], err = e.Table(studies[i], rest[:counts[i]]); err != nil {
			return nil, rows, fmt.Errorf("%s: %w", e.ID, err)
		}
		rest = rest[counts[i]:]
	}
	return tables, rows, nil
}
