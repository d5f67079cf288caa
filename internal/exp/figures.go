package exp

import (
	"fmt"
	"maps"
	"slices"
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
			row = append(row, pct(ReachByGoal(col.Cases, []float64{g})[g]))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"AVG"}
	for _, col := range cols {
		avg = append(avg, pct(AvgReach(col.Cases)))
	}
	t.Rows = append(t.Rows, avg)
	return t
}

// tputTable adds one non-QoS throughput column per pair sweep to t: a
// row per goal, then, if avg, the mean over goals.
func tputTable(t *Table, goals []float64, cols []SweepRow, avg bool) {
	for _, g := range goals {
		row := []string{goalLabel(g)}
		for _, col := range cols {
			row = append(row, num(tput(col.Cases, []float64{g})))
		}
		t.Rows = append(t.Rows, row)
	}
	if avg {
		row := []string{"AVG"}
		for _, col := range cols {
			row = append(row, num(tput(col.Cases, goals)/float64(len(goals))))
		}
		t.Rows = append(t.Rows, row)
	}
}

// reachFig is a figure of one QoSreach column per declared sweep.
func reachFig(id, title string, header []string) Reducer {
	return func(st Study, cs []SweepRow) (*Table, error) {
		return reachTable(&Table{ID: id, Title: title, Header: header}, st.Goals, cs), nil
	}
}

// tputFig is a figure of one non-QoS throughput column per declared sweep.
func tputFig(id, title string, header []string) Reducer {
	return func(st Study, cs []SweepRow) (*Table, error) {
		t := &Table{ID: id, Title: title, Header: header}
		tputTable(t, st.Goals, cs, true)
		return t, nil
	}
}

// sum adds m up over goals.
func sum(m map[float64]float64, goals []float64) (s float64) {
	for _, g := range goals {
		s += m[g]
	}
	return s
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
	b := Misses(cs[0].Cases)
	labels := BucketLabels()
	t := &Table{ID: "Figure 5", Title: "Cases where Naive+History misses the IPC goal, by miss distance",
		Header: []string{"Bucket", "Cases"}}
	for i, l := range labels {
		t.Rows = append(t.Rows, []string{l, fmt.Sprint(b.Counts[i])})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("total cases %d, failures %d, successes %d", b.Total, b.Failures, b.Successes),
		fmt.Sprintf("successful cases overshoot by %.1f%% on average", 100*b.MeanOvershoot))
	return t, nil
}

var (
	spartRolloverHd = []string{"Goal", "Spart", "Rollover"}
	rolloverTimeHd  = []string{"Goal", "Rollover", "Rollover-Time"}
)

// Fig6a reproduces Figure 6a: pair QoSreach for Spart/Naive/Elastic/Rollover.
var Fig6a = reachFig("Figure 6a", "QoSreach vs QoS goal, two-kernel pairs",
	[]string{"Goal", "Spart", "Naive", "Elastic", "Rollover"})

// trioFig is the Figure 6b/6c (reach) or 8b/8c (throughput) trio study,
// Spart against Rollover with nQoS QoS kernels.
func trioFig(nQoS int, throughput bool, id, title string) Reducer {
	return func(st Study, cs []SweepRow) (*Table, error) {
		goals, prefix := st.Goals, ""
		if nQoS == 2 {
			goals, prefix = st.Goals2, "2x"
		}
		reduce, format := ReachByGoal, pct
		if throughput {
			reduce, format = NonQoSThroughputByGoal, num
		}
		t := &Table{ID: id, Title: title, Header: spartRolloverHd}
		sp, ro := reduce(cs[0].Cases, goals), reduce(cs[1].Cases, goals)
		for _, g := range goals {
			t.Rows = append(t.Rows, []string{prefix + goalLabel(g), format(sp[g]), format(ro[g])})
		}
		if n := float64(len(goals)); n > 0 {
			t.Rows = append(t.Rows, []string{"AVG", format(sum(sp, goals) / n), format(sum(ro, goals) / n)})
		}
		return t, nil
	}
}

// Fig6b reproduces Figure 6b: trio QoSreach, one QoS kernel.
var Fig6b = trioFig(1, false, "Figure 6b", "QoSreach vs goal, trios with one QoS kernel")

// Fig6c reproduces Figure 6c: trio QoSreach, two QoS kernels.
var Fig6c = trioFig(2, false, "Figure 6c", "QoSreach vs goal, trios with two QoS kernels")

// Fig7 reproduces Figure 7: QoSreach per QoS benchmark and class.
func Fig7(_ Study, cs []SweepRow) (*Table, error) {
	sp, ro := ReachByQoSKernel(cs[0].Cases), ReachByQoSKernel(cs[1].Cases)
	t := &Table{ID: "Figure 7", Title: "QoSreach per QoS kernel, two-kernel sharing",
		Header: []string{"QoS kernel", "Spart", "Rollover"}}
	for _, name := range slices.Sorted(maps.Keys(ro)) {
		t.Rows = append(t.Rows, []string{name, pct(sp[name]), pct(ro[name])})
	}
	for _, cls := range []string{"C+M", "C+C", "M+M"} {
		if roC := ofClass(cs[1].Cases, cls); len(roC) > 0 {
			t.Rows = append(t.Rows, []string{cls, pct(AvgReach(ofClass(cs[0].Cases, cls))), pct(AvgReach(roC))})
		}
	}
	return t, nil
}

// Fig8a reproduces Figure 8a: non-QoS normalized throughput, pairs.
var Fig8a = tputFig("Figure 8a", "Non-QoS kernel throughput normalized to isolated, pairs", spartRolloverHd)

// Fig8b reproduces Figure 8b: non-QoS throughput, trios with one QoS kernel.
var Fig8b = trioFig(1, true, "Figure 8b", "Non-QoS throughput normalized to isolated, trios (1 QoS)")

// Fig8c reproduces Figure 8c: non-QoS throughput, trios with two QoS kernels.
var Fig8c = trioFig(2, true, "Figure 8c", "Non-QoS throughput normalized to isolated, trios (2 QoS)")

// Fig9 reproduces Figure 9: QoS kernel throughput normalized to its goal.
func Fig9(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Figure 9", Title: "QoS kernel throughput normalized to its goal (overshoot)",
		Header: spartRolloverHd}
	sp, ro := PairOvershootByGoal(cs[0].Cases, st.Goals), PairOvershootByGoal(cs[1].Cases, st.Goals)
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
	return t, nil
}

// Fig10 reproduces Figure 10: QoSreach, Rollover vs Rollover-Time.
var Fig10 = reachFig("Figure 10", "QoSreach: Rollover vs time-multiplexed Rollover", rolloverTimeHd)

// Fig11 reproduces Figure 11: non-QoS throughput, Rollover vs Rollover-Time.
var Fig11 = tputFig("Figure 11", "Non-QoS throughput: Rollover vs time-multiplexed Rollover", rolloverTimeHd)

// Fig12 reproduces Figure 12: QoSreach with 56 SMs (config.Scale56).
var Fig12 = reachFig("Figure 12", "QoSreach vs goal, 56 SMs", spartRolloverHd)

// Fig13 reproduces Figure 13: non-QoS throughput with 56 SMs.
var Fig13 = tputFig("Figure 13", "Non-QoS throughput, 56 SMs", spartRolloverHd)

// Fig14 reproduces Figure 14: instructions-per-watt improvement of
// Rollover over Spart, per goal, over cases both schemes satisfied.
func Fig14(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Figure 14", Title: "Instructions-per-watt improvement of Rollover over Spart",
		Header: []string{"Goal", "Improvement"}}
	gain, mean := ipwGain(st.Goals, cs[0].Cases, cs[1].Cases)
	for _, g := range st.Goals {
		cell := "-"
		if v, ok := gain[g]; ok {
			cell = pct(v)
		}
		t.Rows = append(t.Rows, []string{goalLabel(g), cell})
	}
	if len(gain) > 0 {
		t.Rows = append(t.Rows, []string{"AVG", pct(mean)})
	}
	return t, nil
}

// ipwGain returns Rollover's instructions-per-watt gain over Spart at
// each goal where both have successes, and its mean over those goals.
func ipwGain(goals []float64, sp, ro []Case) (gain map[float64]float64, mean float64) {
	spW, roW := InstrPerWattByGoal(sp, goals), InstrPerWattByGoal(ro, goals)
	gain = map[float64]float64{}
	var sum float64
	for _, g := range goals {
		if spW[g] > 0 && roW[g] > 0 {
			gain[g] = roW[g]/spW[g] - 1
			sum += gain[g]
		}
	}
	return gain, sum / float64(len(gain))
}
