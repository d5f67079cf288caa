package exp

import (
	"fmt"
	"math"
	"slices"
	"strconv"
)

// A Claim is one number the paper's Section 4 states, beside ours as
// reduced from the rows, in percent or, in unit "x", as a ratio.
type Claim struct {
	Figure, Text string
	Paper, Ours  float64 // Paper is NaN where the paper states only an ordering
	// Holds is "yes" or "no": whether ours orders what the claim compares
	// as the paper does; "-" for a size the paper states without one.
	Holds, unit string
}

var holds = map[bool]string{true: "yes", false: "no"}

// over is the claim that a exceeds b by paper percent.
func over(fig, text string, paper, a, b float64) Claim {
	return Claim{fig, text, paper, 100 * (a/b - 1), holds[a > b], "%"}
}

// tput sums the mean non-QoS throughput of cases' successes over goals.
func tput(cases []Case, goals []float64) float64 {
	return sum(successMeanByGoal(cases, goals, nonQoSThroughputs), goals)
}

// falls reports whether cases reach fewer goals over the upper half of
// goals than over the lower half.
func falls(cases []Case, goals []float64) bool {
	lo, hi := goals[:len(goals)/2], goals[len(goals)/2:]
	return sum(ReachByGoal(cases, hi), hi) < sum(ReachByGoal(cases, lo), lo)
}

// scored are the experiments whose rows the scoreboard reads, each at its
// own stride; Figs 7–9, 11, 13 and 14 reduce the sweeps of 6a, 10 and 12.
var scored = []string{"fig5", "fig6a", "fig6b", "fig6c", "fig10", "fig12", "ablate-history", "ablate-static", "ablate-preempt"}

// scoreboardSweeps declares the sweeps of the scored experiments, each on
// the study that experiment is collected at.
func scoreboardSweeps(st Study) (sweeps []Sweep) {
	for _, e := range Experiments() {
		if slices.Contains(scored, e.ID) {
			s := st.at(e)
			for _, sw := range e.Sweeps(s) {
				sw.study = &s
				sweeps = append(sweeps, sw)
			}
		}
	}
	return sweeps
}

// Claims reduces the rows of scoreboardSweeps to one Claim per number the
// paper's Section 4 states, then one for the shape of its reach curves.
// It is the one place that knows a paper number.
func Claims(st Study, cs []SweepRow) []Claim {
	r := map[string][]SweepRow{} // experiment id -> its rows
	for _, e := range Experiments() {
		if slices.Contains(scored, e.ID) {
			n := len(e.Sweeps(st.at(e)))
			r[e.ID], cs = cs[:n], cs[n:]
		}
	}
	g, g2 := st.Goals, st.Goals2
	top, top2, top3 := g[len(g)-1:], g2[len(g2)-1:], g2[len(g2)-3:]
	nh, sp, na, el, ro := r["fig5"][0].Cases, r["fig6a"][0].Cases, r["fig6a"][1].Cases, r["fig6a"][2].Cases, r["fig6a"][3].Cases
	sp1, ro1, sp2, ro2 := r["fig6b"][0].Cases, r["fig6b"][1].Cases, r["fig6c"][0].Cases, r["fig6c"][1].Cases
	rt, off, sp56, ro56 := r["fig10"][1].Cases, r["ablate-history"][1].Cases, r["fig12"][0].Cases, r["fig12"][1].Cases

	b := Misses(nh)
	miss, near := float64(b.Failures)/float64(b.Total), float64(b.Counts[0]+b.Counts[1])/float64(b.Failures)
	reSp, reNa, reEl, reRo := AvgReach(sp), AvgReach(na), AvgReach(el), AvgReach(ro)
	topSp, topRo := ReachByGoal(sp2, top2)[top2[0]], ReachByGoal(ro2, top2)[top2[0]]
	cc := min(AvgReach(ofClass(sp, "C+C")), AvgReach(ofClass(ro, "C+C")))
	osSp, _ := meanPositive(PairOvershootByGoal(sp, g), g)
	osRo, _ := meanPositive(PairOvershootByGoal(ro, g), g)
	t3Sp, t3Ro := tput(sp2, top3), tput(ro2, top3)
	tRo, tRt := tput(ro, g), tput(rt, g)
	cost, free := tput(r["ablate-preempt"][0].Cases, g), tput(r["ablate-preempt"][1].Cases, g)
	_, ipw := ipwGain(g, sp, ro)
	alpha := over("4.8b", "QoSreach, history on over off, at no goal below", 86.4, reRo, AvgReach(off))
	on, offByGoal := ReachByGoal(ro, g), ReachByGoal(off, g)
	if slices.ContainsFunc(g, func(goal float64) bool { return on[goal] < offByGoal[goal] }) {
		alpha.Holds = "no"
	}
	falling := []bool{falls(nh, g), falls(sp, g), falls(na, g), falls(el, g), falls(ro, g), falls(rt, g),
		falls(off, g), falls(sp1, g), falls(ro1, g), falls(sp2, g2), falls(ro2, g2)}
	return []Claim{
		{"5", "Naive+History cases that miss, most of them", 100 * 700 / 900.0, 100 * miss, holds[miss > 0.5], "%"},
		{"5", "Naive+History misses within 5%, most of them", math.NaN(), 100 * near, holds[near > 0.5], "%"},
		{"5", "Naive+History successes' overshoot", 1.3, 100 * b.MeanOvershoot, "-", "%"},
		{"6a", "Naive QoSreach, the lowest of four", 20.6, 100 * reNa, holds[reNa < min(reSp, reEl, reRo)], "%"},
		{"6a", "Spart QoSreach, below Rollover's", 78.8, 100 * reSp, holds[reRo > reSp], "%"},
		{"6a", "Rollover QoSreach, above Spart's", 88.4, 100 * reRo, holds[reRo > reSp], "%"},
		over("6b", "QoSreach, Rollover over Spart", 18.8, AvgReach(ro1), AvgReach(sp1)),
		over("6c", "QoSreach, Rollover over Spart", 43.8, AvgReach(ro2), AvgReach(sp2)),
		{"6c", "Spart QoSreach at the top goal, none or below Rollover's", 0, 100 * topSp, holds[topSp == 0 || topSp < topRo], "%"},
		{"7", "C+C QoSreach, the lower of both schemes", 100, 100 * cc, holds[cc == 1], "%"},
		over("7", "M+M QoSreach, Rollover over Spart", math.NaN(), AvgReach(ofClass(ro, "M+M")), AvgReach(ofClass(sp, "M+M"))),
		over("8a", "non-QoS tput, Rollover over Spart", 15.9, tRo, tput(sp, g)),
		over("8b", "non-QoS tput, Rollover over Spart", 19.9, tput(ro1, g), tput(sp1, g)),
		over("8b", "non-QoS tput at the top goal, Rollover over Spart", 75.5, tput(ro1, top), tput(sp1, top)),
		over("8c", "non-QoS tput, Rollover over Spart", 20.5, tput(ro2, g2), tput(sp2, g2)),
		{"8c", "non-QoS tput at the top 3 goals, Spart over Rollover", 100 * (1.0/10 - 1), 100 * (t3Sp/t3Ro - 1), holds[t3Sp <= t3Ro/10], "%"},
		{"9", "Spart overshoot, above Rollover's", 11.6, 100 * (osSp - 1), holds[osRo < osSp], "%"},
		{"9", "Rollover overshoot, below Spart's", 2.8, 100 * (osRo - 1), holds[osRo < osSp], "%"},
		{"10", "QoSreach gap, Rollover-Time to Rollover (points)", 3, 100 * math.Abs(AvgReach(rt)-reRo), "-", "%"},
		{"11", "non-QoS tput, Rollover over Rollover-Time", 1.47, tRo / tRt, holds[tRo > tRt], "x"},
		over("12", "QoSreach at 56 SMs, Rollover over Spart", 4.76, AvgReach(ro56), AvgReach(sp56)),
		over("13", "non-QoS tput at 56 SMs, Rollover over Spart", 30.65, tput(ro56, g), tput(sp56, g)),
		{"14", "instructions per watt, Rollover over Spart", 9.3, 100 * ipw, holds[ipw > 0], "%"},
		{"4.8a", "non-QoS tput lost to preemption", 1.93, 100 * (1 - cost/free), holds[cost < free], "%"},
		alpha,
		over("4.8c", "M+M non-QoS tput, static adjust on over off", 13.3, tput(ofClass(r["ablate-static"][0].Cases, "M+M"), g), tput(r["ablate-static"][1].Cases, g)),
		{"all", "QoSreach falls with the goal on all 11 full-grid sweeps", math.NaN(), math.NaN(), holds[!slices.Contains(falling, false)], "%"},
	}
}

// cell prints v in c's unit: the paper's number to four significant
// digits, as it states it, and ours to a fixed precision.
func (c Claim) cell(v float64, paper bool) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case paper:
		return strconv.FormatFloat(v, 'g', 4, 64) + c.unit
	case c.unit == "x":
		return fmt.Sprintf("%.2fx", v)
	}
	return fmt.Sprintf("%.1f%%", v)
}

// Scoreboard is the table of Claims: the paper's number, ours, whether ours
// orders what the claim compares as the paper does, and ours over the
// paper's.
func Scoreboard(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Scoreboard", Title: "The paper's Section 4 claims against the reproduction",
		Header: []string{"Figure", "Claim", "Paper", "Ours", "Holds", "Ours/paper"}}
	for _, c := range Claims(st, cs) {
		ratio := "-"
		if c.Paper != 0 && !math.IsNaN(c.Paper) {
			ratio = fmt.Sprintf("%.2f", c.Ours/c.Paper)
		}
		t.Rows = append(t.Rows, []string{c.Figure, c.Text, c.cell(c.Paper, true), c.cell(c.Ours, false), c.Holds, ratio})
	}
	return t, nil
}
