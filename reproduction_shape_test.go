package repro_test

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
)

// committedRows collects the sweeps of the experiments named by ids from
// the committed rows in results/full, each experiment at the stride the
// registry declares, under a canceled context so that any sweep missing
// there fails instead of simulating. It returns the full-grid study, the
// experiments' tables and their sweeps' rows in declaration order.
func committedRows(t *testing.T, ids ...string) (exp.Study, []*exp.Table, []exp.SweepRow) {
	t.Helper()
	r, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithGPU(config.Base()), core.WithWindow(exp.CommittedWindow)))
	if err != nil {
		t.Fatal(err)
	}
	st := exp.NewStudy(r, 1)
	st.Rows = filepath.Join("results", "full")
	var exps []exp.Experiment
	for _, e := range exp.Experiments() {
		if slices.Contains(ids, e.ID) {
			exps = append(exps, e)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tables, rows, err := st.Tables(ctx, exps)
	if err != nil {
		t.Fatalf("%v: not committed in results/full", err)
	}
	for _, row := range rows {
		if row.Report != nil {
			t.Fatalf("%s was simulated", row.Stage)
		}
	}
	return st, tables, rows
}

// TestCommittedRowsKeepEveryStride asks for a full-grid experiment and a
// stride-6 one that both declare the Rollover pair sweep: the two stages
// keep their own rows under their own labels, 900 and 150 cases, and a
// stride-6 sweep that reuses one names that stage.
func TestCommittedRowsKeepEveryStride(t *testing.T) {
	_, _, rows := committedRows(t, "fig6a", "ablate-static", "ablate-preempt")
	by := map[string]exp.SweepRow{}
	for _, row := range rows {
		by[row.Stage] = row
	}
	for stage, want := range map[string]int{"Rollover": 900, "Rollover (stride 6)": 150} {
		if got := len(by[stage].Cases); got != want {
			t.Errorf("stage %q has %d cases, want %d", stage, got, want)
		}
	}
	if r := by["Rollover (stride 6)"]; r.Reused != "Rollover (stride 6)" {
		t.Errorf("the second stride-6 Rollover sweep reused %q", r.Reused)
	}
}

// knownNo names, by figure and claim, the scoreboard rows where the
// committed rows do not order things as the paper does, since our Spart
// is stronger than the paper's and the quota margin (DESIGN.md §6.3)
// helps Naive+History too; gates names the rows that hold the orderings
// the paper draws from its figures. A row that flips either way fails
// TestReproductionShape until these lists and the golden scoreboard in
// EXPERIMENTS.md change together.
var (
	knownNo = []string{"5 Naive+History cases that miss, most of them", "7 C+C QoSreach, the lower of both schemes",
		"7 M+M QoSreach, Rollover over Spart", "8a non-QoS tput, Rollover over Spart", "8b non-QoS tput, Rollover over Spart",
		"8b non-QoS tput at the top goal, Rollover over Spart", "8c non-QoS tput, Rollover over Spart",
		"13 non-QoS tput at 56 SMs, Rollover over Spart", "4.8a non-QoS tput lost to preemption"}
	gates = []string{"5 Naive+History misses within 5%, most of them", "all QoSreach falls with the goal on all 11 full-grid sweeps",
		"6a Rollover QoSreach, above Spart's", "6b QoSreach, Rollover over Spart",
		"6c Spart QoSreach at the top goal, none or below Rollover's", "9 Rollover overshoot, below Spart's",
		"4.8b QoSreach, history on over off, at no goal below"}
)

// TestReproductionShape is the reproduction's shape gate, asserted on the
// scoreboard's rows (exp.Claims) as reduced from the committed rows (900
// pair cases per scheme, 600 per trio study, 300 K-cycle window) without
// simulating anything. The gates read yes: most Naive+History misses
// within 5%, reach falling as the goal rises on every full-grid sweep,
// Rollover ahead of Spart in Figs 6a and 6b, Spart at 0 or below Rollover
// at Fig 6c's top dual goal, Rollover overshooting less than Spart (Fig
// 9), history on at or above off at every goal and above it overall
// (4.8b). Where a claim does not reproduce, the test holds the relation
// that was measured.
func TestReproductionShape(t *testing.T) {
	st, _, rows := committedRows(t, "scoreboard")
	by := map[string]exp.Claim{}
	for _, c := range exp.Claims(st, rows) {
		by[c.Figure+" "+c.Text] = c
		if c.Holds == "no" && !slices.Contains(knownNo, c.Figure+" "+c.Text) {
			t.Errorf("%s %s: holds no", c.Figure, c.Text)
		}
	}
	for want, keys := range map[string][]string{"no": knownNo, "yes": gates} {
		for _, key := range keys {
			if c, ok := by[key]; c.Holds != want {
				t.Errorf("%s: holds %q (row found: %v), want %s", key, c.Holds, ok, want)
			}
		}
	}

	// Figure 5: Naive+History misses far fewer cases than the paper's, so
	// "far fewer reached than Rollover" is gated as measured: at least 15
	// points of reach below Rollover (60.2% against 80.8%).
	if nh, ro := 100-by["5 Naive+History cases that miss, most of them"].Ours, by["6a Rollover QoSreach, above Spart's"].Ours; !(nh < ro-15) {
		t.Errorf("Fig 5: Naive+History reach %.1f%%, Rollover %.1f%%; want 15 points below", nh, ro)
	}

	// Figures 10/11: time multiplexing costs the non-QoS kernel at least
	// 1.3x its throughput under Rollover, at similar reach: within 10
	// points (measured: 1.67x, 6.1 points).
	tput, gap := by["11 non-QoS tput, Rollover over Rollover-Time"], by["10 QoSreach gap, Rollover-Time to Rollover (points)"]
	if !(tput.Ours >= 1.3) || !(gap.Ours <= 10) {
		t.Errorf("Figs 10/11: non-QoS throughput %.2fx at a reach gap of %.1f points; want >= 1.3x within 10 points", tput.Ours, gap.Ours)
	}
}
