package exp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

func TestGoalsSweep(t *testing.T) {
	g := Goals()
	if len(g) != 10 {
		t.Fatalf("%d goals, want 10 (50%%..95%% step 5%%)", len(g))
	}
	if math.Abs(g[0]-0.50) > 1e-9 || math.Abs(g[9]-0.95) > 1e-9 {
		t.Fatalf("goal sweep endpoints %v..%v", g[0], g[9])
	}
	g2 := TwoQoSGoals()
	if len(g2) != 10 || math.Abs(g2[0]-0.25) > 1e-9 || math.Abs(g2[9]-0.70) > 1e-9 {
		t.Fatalf("two-QoS sweep wrong: %v", g2)
	}
}

func fakeCase(goal float64, ratio, nq float64) Case {
	reached := ratio >= 1
	return Case{
		Goal: goal,
		Res: &core.Result{
			AllReached: reached,
			Kernels: []core.KernelResult{
				{Name: "sgemm", IsQoS: true, GoalIPC: 100, IPC: ratio * 100,
					GoalRatio: ratio, Reached: reached},
				{Name: "lbm", NormThroughput: nq},
			},
		},
	}
}

func TestPairReducers(t *testing.T) {
	cases := []Case{
		fakeCase(0.5, 1.02, 0.6),
		fakeCase(0.5, 0.97, 0.4),
		fakeCase(0.9, 1.01, 0.2),
		fakeCase(0.9, 1.03, 0.3),
	}
	goals := []float64{0.5, 0.9}
	reach := ReachByGoal(cases, goals)
	if reach[0.5] != 0.5 || reach[0.9] != 1.0 {
		t.Fatalf("reach = %v", reach)
	}
	tput := NonQoSThroughputByGoal(cases, goals)
	if tput[0.5] != 0.6 { // only the successful case counts
		t.Fatalf("tput[0.5] = %v", tput[0.5])
	}
	if math.Abs(tput[0.9]-0.25) > 1e-9 {
		t.Fatalf("tput[0.9] = %v", tput[0.9])
	}
	over := PairOvershootByGoal(cases, goals)
	if math.Abs(over[0.9]-1.02) > 1e-9 {
		t.Fatalf("overshoot[0.9] = %v", over[0.9])
	}
	if got := AvgReach(cases); got != 0.75 {
		t.Fatalf("avg reach = %v", got)
	}
}

// TestScoreboardDirectionFlips hands the scoreboard tiny hand-made pair
// sweeps, one where Rollover's cases reach and Spart's miss and one the
// other way round: the Fig 6a direction row must read yes, then no.
func TestScoreboardDirectionFlips(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStudy(r, 1)
	reach, miss := []Case{fakeCase(0.5, 1.01, 0.3)}, []Case{fakeCase(0.5, 0.9, 0)}
	for _, tc := range []struct {
		want            string
		spart, rollover []Case
	}{{"yes", miss, reach}, {"no", reach, miss}} {
		by := map[string][]Case{"Spart": tc.spart, "Rollover": tc.rollover}
		var rows []SweepRow
		for _, sw := range scoreboardSweeps(st) {
			rows = append(rows, SweepRow{Cases: by[sw.Name]})
		}
		if c := Claims(st, rows)[5]; c.Text != "Rollover QoSreach, above Spart's" || c.Holds != tc.want {
			t.Errorf("Spart reach %v, Rollover %v: %q holds %q, want %q",
				AvgReach(tc.spart), AvgReach(tc.rollover), c.Text, c.Holds, tc.want)
		}
	}
}

func TestMissBuckets(t *testing.T) {
	cases := []Case{
		fakeCase(0.5, 1.013, 0),  // success, overshoot 1.3%
		fakeCase(0.5, 0.995, 0),  // 0-1%
		fakeCase(0.5, 0.96, 0),   // 1-5%
		fakeCase(0.5, 0.92, 0),   // 5-10%
		fakeCase(0.5, 0.85, 0),   // 10-20%
		fakeCase(0.5, 0.50, 0),   // 20+%
		fakeCase(0.5, 0.9899, 0), // boundary: 1.01% → bucket 1-5%
	}
	b := Misses(cases)
	if b.Total != 7 || b.Successes != 1 || b.Failures != 6 {
		t.Fatalf("counts: %+v", b)
	}
	want := [5]int{1, 2, 1, 1, 1}
	if b.Counts != want {
		t.Fatalf("buckets = %v, want %v", b.Counts, want)
	}
	if math.Abs(b.MeanOvershoot-0.013) > 1e-9 {
		t.Fatalf("mean overshoot = %v", b.MeanOvershoot)
	}
}

func TestReachByQoSKernel(t *testing.T) {
	cases := []Case{
		fakeCase(0.5, 1.02, 0),
		fakeCase(0.7, 0.9, 0),
	}
	if perK := ReachByQoSKernel(cases); perK["sgemm"] != 0.5 {
		t.Fatalf("per-kernel reach = %v", perK)
	}
	if perC := AvgReach(ofClass(cases, "C+M")); perC != 0.5 {
		t.Fatalf("C+M reach = %v", perC)
	}
}

// TestReducersPickKernelsByRole feeds the pair reducers each case in
// both launch orders: the QoS kernel is the one IsQoS marks, not the
// first, so the buckets, overshoot, per-kernel reach and class agree.
func TestReducersPickKernelsByRole(t *testing.T) {
	var cases, swapped []Case
	for _, c := range []Case{fakeCase(0.5, 1.02, 0.6), fakeCase(0.5, 0.97, 0.4), fakeCase(0.9, 0.7, 0.2)} {
		c.Res.Kernels[0].Name = "infer" // an open-world class: PairClass is then ordered
		cases = append(cases, c)
		s := *c.Res
		s.Kernels = []core.KernelResult{c.Res.Kernels[1], c.Res.Kernels[0]}
		swapped = append(swapped, Case{Goal: c.Goal, Res: &s})
	}
	goals := []float64{0.5, 0.9}
	cls, err := workloads.PairClass("infer", "lbm")
	if err != nil {
		t.Fatal(err)
	}
	if got := Misses(cases); got.Counts != [5]int{0, 1, 0, 0, 1} || got != Misses(swapped) {
		t.Errorf("buckets %+v in launch order, %+v swapped", got, Misses(swapped))
	}
	if got := PairOvershootByGoal(cases, goals); got[0.5] != 1.02 || !reflect.DeepEqual(got, PairOvershootByGoal(swapped, goals)) {
		t.Errorf("overshoot %v in launch order, %v swapped", got, PairOvershootByGoal(swapped, goals))
	}
	if got := ReachByQoSKernel(cases); got["infer"] != 1.0/3 || !reflect.DeepEqual(got, ReachByQoSKernel(swapped)) {
		t.Errorf("per-kernel reach %v in launch order, %v swapped", got, ReachByQoSKernel(swapped))
	}
	if got := ofClass(cases, cls); len(got) != 3 || len(ofClass(swapped, cls)) != 3 {
		t.Errorf("class %s holds %d cases in launch order, %d swapped", cls, len(got), len(ofClass(swapped, cls)))
	}
}

func TestStudyReduction(t *testing.T) {
	r, err := NewRunner(1, WithSessionOptions(core.WithWindow(40_000)))
	if err != nil {
		t.Fatal(err)
	}
	full := NewStudy(r, 1)
	if len(full.Pairs) != 90 || len(full.Trios) != 60 || len(full.Goals) != 10 || len(full.Goals2) != 10 {
		t.Fatalf("full study %d pairs / %d trios / %d+%d goals", len(full.Pairs), len(full.Trios), len(full.Goals), len(full.Goals2))
	}
	red := NewStudy(r, 10)
	if len(red.Pairs) != 9 || len(red.Trios) != 6 {
		t.Fatalf("every 10th: %d pairs / %d trios, want 9 / 6", len(red.Pairs), len(red.Trios))
	}
	if !reflect.DeepEqual(red.Goals, full.Goals) || !reflect.DeepEqual(red.Goals2, full.Goals2) {
		t.Fatal("a subsampled study must keep every goal")
	}
	if red.Pairs[1] != full.Pairs[10] {
		t.Fatalf("second subsampled pair %v, want the full grid's 11th %v", red.Pairs[1], full.Pairs[10])
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note"},
	}
	out := tbl.String()
	if out == "" || len(out) < 20 {
		t.Fatal("table did not render")
	}
	if got := Table1(config.Base()).String(); got == "" {
		t.Fatal("Table 1 did not render")
	}
}

// TestPairSweepSmoke runs a tiny real sweep end to end.
func TestPairSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := config.Base()
	cfg.NumSMs = 4
	s, err := core.NewSession(core.WithGPU(cfg), core.WithWindow(30_000))
	if err != nil {
		t.Fatal(err)
	}
	pairs := []workloads.Pair{{QoS: "sgemm", NonQoS: "lbm"}}
	goals := []float64{0.4}
	cases, err := PairSweep(context.Background(), s, pairs, goals, core.SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 1 {
		t.Fatalf("%d cases", len(cases))
	}
	if cases[0].Res.Kernels[0].Name != "sgemm" || cases[0].Res.Kernels[1].Name != "lbm" {
		t.Fatal("case kernels mislabeled")
	}
}

// TestTrioSweepSmoke runs one trio end to end with 2 QoS kernels.
func TestTrioSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := config.Base()
	cfg.NumSMs = 4
	s, _ := core.NewSession(core.WithGPU(cfg), core.WithWindow(30_000))
	trios := []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}}
	cases, err := TrioSweep(context.Background(), s, trios, []float64{0.25}, 2, core.SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}
	if k := cases[0].Res.Kernels; !k[0].IsQoS || !k[1].IsQoS || k[2].IsQoS {
		t.Fatal("2-QoS trio carries its goal on the wrong kernels")
	}
	if _, err := TrioSweep(context.Background(), s, trios, []float64{0.25}, 3, core.SchemeRollover); err == nil {
		t.Fatal("accepted nQoS=3")
	}
}
