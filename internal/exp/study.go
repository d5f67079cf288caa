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
// scheme) and 60 trios x 10 goals; Reduced trims both axes for quick
// runs. All sweeps execute on the Runner's worker pool.
type Study struct {
	Runner *Runner
	Pairs  []workloads.Pair
	Trios  []workloads.Trio
	Goals  []float64 // pair/1-QoS-trio goal sweep
	Goals2 []float64 // 2-QoS-trio goal sweep
	// Progress receives sweep progress events for long runs (may be nil).
	Progress ProgressFunc
}

// FullStudy returns the paper's complete evaluation configuration.
func FullStudy(r *Runner) Study {
	return Study{
		Runner: r,
		Pairs:  workloads.Pairs(),
		Trios:  workloads.Trios(),
		Goals:  Goals(),
		Goals2: TwoQoSGoals(),
	}
}

// ReducedStudy returns a subsampled configuration sized for quick runs:
// every k-th pair/trio and every other goal.
func ReducedStudy(r *Runner, k int) Study {
	if k < 1 {
		k = 1
	}
	st := FullStudy(r)
	st.Pairs = every(st.Pairs, k)
	st.Trios = every(st.Trios, k)
	st.Goals = every(st.Goals, 2)
	st.Goals2 = every(st.Goals2, 2)
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
// they were obtained. Stage is the sweep's name; Cases counts the cases
// simulated for it this run (journal-restored cases excluded).
type SweepRow struct {
	SweepMetrics
	// Reused names the earlier sweep of the same Collect with the same
	// journal stage key, whose cases this one shares; empty if it ran.
	Reused string
	// Report is the fault report of the sweep that ran; nil when Reused.
	Report *SweepReport
	Pairs  []PairCase // a pair sweep's cases
	Trios  []TrioCase // a trio sweep's cases
}

// plannedSweep is a declared sweep resolved to its runner, case grid and
// journal stage key.
type plannedSweep struct {
	Sweep
	runner *Runner
	grid   Grid
	key    string
}

// plan resolves one declared sweep: it checks the grid, builds the
// derived runner and derives the stage key the sweep will journal under.
func (st Study) plan(sw Sweep) (p plannedSweep, err error) {
	p = plannedSweep{Sweep: sw, runner: st.Runner, grid: Grid{Pairs: sw.Pairs, Goals: st.Goals}}
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
// runs each unique sweep once. It returns one row per declared sweep, in
// order; on error, the rows of every sweep that finished before it.
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
	ran := map[string]SweepRow{} // stage key -> the row that ran it
	for _, p := range plans {
		if first, ok := ran[p.key]; ok {
			rows = append(rows, SweepRow{SweepMetrics: SweepMetrics{Stage: p.Name},
				Reused: first.Stage, Pairs: first.Pairs, Trios: first.Trios})
			continue
		}
		progress := st.Progress
		if progress != nil { // relabel the sweep's events with its declared name
			progress = func(e Progress) { e.Stage = p.Name; st.Progress(e) }
		}
		n := len(p.runner.Reports())
		cases, err := p.runner.Sweep(ctx, p.grid, p.Scheme, progress)
		row := SweepRow{Pairs: cases.Pairs, Trios: cases.Trios}
		if reps := p.runner.Reports(); len(reps) > n { // the sweep ran to the end
			row.SweepMetrics, row.Report = p.runner.Metrics()[n], reps[n]
			row.Stage = p.Name
			rows = append(rows, row)
		}
		if err != nil {
			return rows, fmt.Errorf("%s: %w", p.Name, err)
		}
		ran[p.key] = row
	}
	return rows, nil
}

// Reducer turns the rows of an experiment's declared sweeps, in
// declaration order, into its table; it simulates nothing.
type Reducer func(Study, []SweepRow) (*Table, error)

// Experiment is one reproduced table or figure: the sweeps it needs and a
// pure reduction of their cases into its table.
type Experiment struct {
	ID string
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
		{"table1", fixed(), func(Study, []SweepRow) (*Table, error) { return Table1(config.Base()), nil }},
		{"fig5", fixed(pairsOf(core.SchemeNaiveHistory)), Fig5},
		{"fig6a", fixed(pairsOf(core.SchemeSpart), pairsOf(core.SchemeNaive), pairsOf(core.SchemeElastic),
			pairsOf(core.SchemeRollover)), Fig6a},
		{"fig6b", trios(1), Fig6b},
		{"fig6c", trios(2), Fig6c},
		{"fig7", spartRollover, Fig7},
		{"fig8a", spartRollover, Fig8a},
		{"fig8b", trios(1), Fig8b},
		{"fig8c", trios(2), Fig8c},
		{"fig9", spartRollover, Fig9},
		{"fig10", rolloverTime, Fig10},
		{"fig11", rolloverTime, Fig11},
		{"fig12", scale56, Fig12},
		{"fig13", scale56, Fig13},
		{"fig14", spartRollover, Fig14},
		{"ablate-history", fixed(pairsOf(core.SchemeRollover), historyOff), AblateHistory},
		{"ablate-static", staticSweeps, AblateStatic},
		{"ablate-preempt", preemptSweeps, AblatePreemption},
		{"ablate-epoch", epochSweeps, AblateEpochLength},
		{"ablate-nqinit", fixed(nqInit...), AblateNonQoSInit},
	}
}

// fixed declares sweeps that do not depend on the study.
func fixed(sweeps ...Sweep) func(Study) []Sweep {
	return func(Study) []Sweep { return sweeps }
}

// Tables collects every sweep the experiments declare in one Collect and
// reduces each experiment's rows to its table, in order.
func (st Study) Tables(ctx context.Context, exps []Experiment) ([]*Table, []SweepRow, error) {
	var sweeps []Sweep
	counts := make([]int, len(exps))
	for i, e := range exps {
		declared := e.Sweeps(st)
		sweeps, counts[i] = append(sweeps, declared...), len(declared)
	}
	rows, err := st.Collect(ctx, sweeps)
	if err != nil {
		return nil, rows, err
	}
	tables, rest := make([]*Table, len(exps)), rows
	for i, e := range exps {
		if tables[i], err = e.Table(st, rest[:counts[i]]); err != nil {
			return nil, rows, fmt.Errorf("%s: %w", e.ID, err)
		}
		rest = rest[counts[i]:]
	}
	return tables, rows, nil
}
