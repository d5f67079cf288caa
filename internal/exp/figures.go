package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
)

// Table is one reproduced figure or table, ready to print.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Table1 reports the simulation parameters (paper Table 1).
func Table1(cfg config.GPU) *Table {
	t := &Table{ID: "Table 1", Title: "Simulation parameters",
		Header: []string{"Parameter", "Value"}}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("Core Freq.", fmt.Sprintf("%dMHz", cfg.CoreClockMHz))
	add("Mem. Freq.", fmt.Sprintf("%dMHz", cfg.MemClockMHz))
	add("# of SMs", fmt.Sprint(cfg.NumSMs))
	add("# of MC", fmt.Sprint(cfg.NumMemControllers))
	add("Sched. Policy", "GTO")
	add("Registers", fmt.Sprintf("%dKB", cfg.RegFileBytes>>10))
	add("Shared Memory", fmt.Sprintf("%dKB", cfg.SharedMemBytes>>10))
	add("Threads", fmt.Sprint(cfg.MaxThreadsPerSM))
	add("TB Limit", fmt.Sprint(cfg.MaxTBsPerSM))
	add("Warp Scheduler", fmt.Sprint(cfg.WarpSchedulers))
	return t
}

func pct(v float64) string       { return fmt.Sprintf("%.1f%%", 100*v) }
func num(v float64) string       { return fmt.Sprintf("%.3f", v) }
func goalLabel(g float64) string { return fmt.Sprintf("%.0f%%", 100*g) }

// reachTable adds one QoSreach column per pair sweep to t: a row per
// goal, then the average over all cases.
func reachTable(t *Table, goals []float64, cols []SweepRow) *Table {
	for _, g := range goals {
		row := []string{goalLabel(g)}
		for _, col := range cols {
			row = append(row, pct(ReachByGoal(col.Pairs, []float64{g})[g]))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVG"}
	for _, col := range cols {
		avg = append(avg, pct(AvgReach(col.Pairs)))
	}
	t.Rows = append(t.Rows, avg)
	return t
}

// tputTable adds one non-QoS throughput column per pair sweep to t: a
// row per goal, then the mean over goals. It returns each column's sum.
func tputTable(t *Table, goals []float64, cols []SweepRow) []float64 {
	byGoal := make([]map[float64]float64, len(cols))
	for i, col := range cols {
		byGoal[i] = PairNonQoSThroughputByGoal(col.Pairs, goals)
	}
	sums := make([]float64, len(cols))
	for _, g := range goals {
		row := []string{goalLabel(g)}
		for i, m := range byGoal {
			row = append(row, num(m[g]))
			sums[i] += m[g]
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVG"}
	for _, s := range sums {
		avg = append(avg, num(s/float64(len(goals))))
	}
	t.Rows = append(t.Rows, avg)
	return sums
}

// reachFig is a figure of one QoSreach column per declared sweep.
func reachFig(id, title string, header []string, note string) Reducer {
	return func(st Study, cs []SweepRow) (*Table, error) {
		return reachTable(&Table{ID: id, Title: title, Header: header, Notes: []string{note}}, st.Goals, cs), nil
	}
}

// tputFig is a figure of one non-QoS throughput column per declared sweep.
func tputFig(id, title string, header []string, note string) Reducer {
	return func(st Study, cs []SweepRow) (*Table, error) {
		t := &Table{ID: id, Title: title, Header: header, Notes: []string{note}}
		tputTable(t, st.Goals, cs)
		return t, nil
	}
}

// meanPositive averages m over the goals where it is positive; n counts
// them.
func meanPositive(m map[float64]float64, goals []float64) (mean float64, n int) {
	var sum float64
	for _, g := range goals {
		if m[g] > 0 {
			sum += m[g]
			n++
		}
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return mean, n
}

// Fig5 reproduces Figure 5: the Naive+History miss-distance histogram.
func Fig5(_ Study, cs []SweepRow) (*Table, error) {
	b := Misses(cs[0].Pairs)
	labels := BucketLabels()
	t := &Table{ID: "Figure 5", Title: "Cases where Naive+History misses the IPC goal, by miss distance",
		Header: []string{"Bucket", "Cases"}}
	for i, l := range labels {
		t.Rows = append(t.Rows, []string{l, fmt.Sprint(b.Counts[i])})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("total cases %d, failures %d, successes %d", b.Total, b.Failures, b.Successes),
		fmt.Sprintf("successful cases overshoot by %.1f%% on average (paper: 1.3%%)", 100*b.MeanOvershoot),
		"paper: >700 of 900 cases miss, most within 5% of the goal")
	return t, nil
}

var (
	spartRolloverHd = []string{"Goal", "Spart", "Rollover"}
	rolloverTimeHd  = []string{"Goal", "Rollover", "Rollover-Time"}
)

// Fig6a reproduces Figure 6a: pair QoSreach for Spart/Naive/Elastic/Rollover.
var Fig6a = reachFig("Figure 6a", "QoSreach vs QoS goal, two-kernel pairs",
	[]string{"Goal", "Spart", "Naive", "Elastic", "Rollover"},
	"paper averages: Naive 20.6%, Spart 78.8%, Rollover 88.4% (Rollover +12.2% over Spart)")

// trioFig is the Figure 6b/6c (reach) or 8b/8c (throughput) trio study,
// Spart against Rollover with nQoS QoS kernels.
func trioFig(nQoS int, throughput bool, id, title, paperNote string) Reducer {
	return func(st Study, cs []SweepRow) (*Table, error) {
		goals, prefix := st.Goals, ""
		if nQoS == 2 {
			goals, prefix = st.Goals2, "2x"
		}
		reduce, format := ReachByGoal[TrioCase], pct
		if throughput {
			reduce, format = TrioNonQoSThroughputByGoal, num
		}
		t := &Table{ID: id, Title: title, Header: spartRolloverHd, Notes: []string{paperNote}}
		sp, ro := reduce(cs[0].Trios, goals), reduce(cs[1].Trios, goals)
		var sum [2]float64
		for _, g := range goals {
			t.Rows = append(t.Rows, []string{prefix + goalLabel(g), format(sp[g]), format(ro[g])})
			sum[0] += sp[g]
			sum[1] += ro[g]
		}
		if n := float64(len(goals)); n > 0 {
			t.Rows = append(t.Rows, []string{"AVG", format(sum[0] / n), format(sum[1] / n)})
		}
		return t, nil
	}
}

// Fig6b reproduces Figure 6b: trio QoSreach, one QoS kernel.
var Fig6b = trioFig(1, false, "Figure 6b", "QoSreach vs goal, trios with one QoS kernel",
	"paper: Rollover reaches QoS goals 18.8% more often than Spart")

// Fig6c reproduces Figure 6c: trio QoSreach, two QoS kernels.
var Fig6c = trioFig(2, false, "Figure 6c", "QoSreach vs goal, trios with two QoS kernels",
	"paper: Rollover +43.8% over Spart; Spart reaches no goal at (70%,70%)")

// Fig7 reproduces Figure 7: QoSreach per QoS benchmark and class.
func Fig7(_ Study, cs []SweepRow) (*Table, error) {
	var perK, perC [2]map[string]float64 // Spart, Rollover
	for i := range perK {
		var err error
		if perK[i], perC[i], err = ReachByQoSKernel(cs[i].Pairs); err != nil {
			return nil, err
		}
	}
	t := &Table{ID: "Figure 7", Title: "QoSreach per QoS kernel, two-kernel sharing",
		Header: []string{"QoS kernel", "Spart", "Rollover"}}
	var names []string
	for name := range perK[1] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Rows = append(t.Rows, []string{name, pct(perK[0][name]), pct(perK[1][name])})
	}
	for _, cls := range []string{"C+M", "C+C", "M+M"} {
		if _, ok := perC[1][cls]; ok {
			t.Rows = append(t.Rows, []string{cls, pct(perC[0][cls]), pct(perC[1][cls])})
		}
	}
	t.Notes = append(t.Notes,
		"paper: C+C pairs meet goals in all cases for both schemes; Spart trails Rollover on M+M (no bandwidth control); histo is hard for both")
	return t, nil
}

// Fig8a reproduces Figure 8a: non-QoS normalized throughput, pairs.
var Fig8a = tputFig("Figure 8a", "Non-QoS kernel throughput normalized to isolated, pairs", spartRolloverHd,
	"paper: Rollover averages 15.9% higher than Spart; both fall as the goal rises")

// Fig8b reproduces Figure 8b: non-QoS throughput, trios with one QoS kernel.
var Fig8b = trioFig(1, true, "Figure 8b", "Non-QoS throughput normalized to isolated, trios (1 QoS)",
	"paper: Rollover +19.9% over Spart; largest gain 75.5% at the 95% goal")

// Fig8c reproduces Figure 8c: non-QoS throughput, trios with two QoS kernels.
var Fig8c = trioFig(2, true, "Figure 8c", "Non-QoS throughput normalized to isolated, trios (2 QoS)",
	"paper: Rollover +20.5% over Spart; >10x in the three highest goal categories")

// Fig9 reproduces Figure 9: QoS kernel throughput normalized to its goal.
func Fig9(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Figure 9", Title: "QoS kernel throughput normalized to its goal (overshoot)",
		Header: spartRolloverHd}
	sp, ro := PairOvershootByGoal(cs[0].Pairs, st.Goals), PairOvershootByGoal(cs[1].Pairs, st.Goals)
	for _, g := range st.Goals {
		t.Rows = append(t.Rows, []string{goalLabel(g), num(sp[g]), num(ro[g])})
	}
	avg := []string{"AVG", "-", "-"}
	for i, m := range []map[float64]float64{sp, ro} {
		if mean, n := meanPositive(m, st.Goals); n > 0 {
			avg[i+1] = num(mean)
		}
	}
	t.Rows = append(t.Rows, avg)
	t.Notes = append(t.Notes, "paper: Spart exceeds goals by 11.6% on average, Rollover by only 2.8%")
	return t, nil
}

// Fig10 reproduces Figure 10: QoSreach, Rollover vs Rollover-Time.
var Fig10 = reachFig("Figure 10", "QoSreach: Rollover vs time-multiplexed Rollover", rolloverTimeHd,
	"paper: the two differ by only ~3% on average")

// Fig11 reproduces Figure 11: non-QoS throughput, Rollover vs Rollover-Time.
func Fig11(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Figure 11", Title: "Non-QoS throughput: Rollover vs time-multiplexed Rollover",
		Header: rolloverTimeHd}
	s := tputTable(t, st.Goals, cs)
	if s[1] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("measured degradation: %.2fx (paper: 1.47x)", s[0]/s[1]))
	}
	return t, nil
}

// Fig12 reproduces Figure 12: QoSreach with 56 SMs (config.Scale56).
var Fig12 = reachFig("Figure 12", "QoSreach vs goal, 56 SMs", spartRolloverHd,
	"paper: more SMs help Spart (finer spatial granularity) but it stays 4.76% behind Rollover")

// Fig13 reproduces Figure 13: non-QoS throughput with 56 SMs.
var Fig13 = tputFig("Figure 13", "Non-QoS throughput, 56 SMs", spartRolloverHd,
	"paper: Rollover improves non-QoS throughput by 30.65% on average at 56 SMs")

// Fig14 reproduces Figure 14: instructions-per-watt improvement of
// Rollover over Spart, per goal, over cases both schemes satisfied.
func Fig14(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Figure 14", Title: "Instructions-per-watt improvement of Rollover over Spart",
		Header: []string{"Goal", "Improvement"}}
	sp, ro := InstrPerWattByGoal(cs[0].Pairs, st.Goals), InstrPerWattByGoal(cs[1].Pairs, st.Goals)
	var sum float64
	var n int
	for _, g := range st.Goals {
		if sp[g] <= 0 || ro[g] <= 0 {
			t.Rows = append(t.Rows, []string{goalLabel(g), "-"})
			continue
		}
		imp := ro[g]/sp[g] - 1
		sum += imp
		n++
		t.Rows = append(t.Rows, []string{goalLabel(g), pct(imp)})
	}
	if n > 0 {
		t.Rows = append(t.Rows, []string{"AVG", pct(sum / float64(n))})
	}
	t.Notes = append(t.Notes, "paper: +9.3% on average from better utilization")
	return t, nil
}
