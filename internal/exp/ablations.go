package exp

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/workloads"
)

var historyOff = Sweep{Name: "history-off", Scheme: core.SchemeRollover,
	Session: []core.Option{core.WithQoSOptions(qos.Options{DisableHistory: true})}}

// AblateHistory reproduces the Section 4.8 history-adjustment ablation:
// Rollover with and without the α factor.
func AblateHistory(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Ablation 4.8b", Title: "History-based quota adjustment on/off (Rollover QoSreach)",
		Header: []string{"Goal", "History on", "History off"}}
	reachTable(t, st.Goals, cs)
	if aOn, aOff := AvgReach(cs[0].Pairs), AvgReach(cs[1].Pairs); aOff > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("enabling history covers %.1f%% more cases (paper: +86.4%%)",
			100*(aOn-aOff)/aOff))
	}
	return t, nil
}

// pairedTput adds two non-QoS throughput columns to t, a row per goal,
// and returns their sums over the goals where both are positive.
func pairedTput(t *Table, goals []float64, a, b []PairCase) (sa, sb float64, n int) {
	ma := PairNonQoSThroughputByGoal(a, goals)
	mb := PairNonQoSThroughputByGoal(b, goals)
	for _, g := range goals {
		t.Rows = append(t.Rows, []string{goalLabel(g), num(ma[g]), num(mb[g])})
		if ma[g] > 0 && mb[g] > 0 {
			sa += ma[g]
			sb += mb[g]
			n++
		}
	}
	return sa, sb, n
}

func mmPairs(pairs []workloads.Pair) (mm []workloads.Pair) {
	for _, p := range pairs {
		if cls, err := workloads.PairClass(p.QoS, p.NonQoS); err == nil && cls == "M+M" {
			mm = append(mm, p)
		}
	}
	return mm
}

// staticPairs returns the M+M pairs the static ablation compares: the
// study's, or when it has none the first M+M pair of the full set
// (borrowed).
func staticPairs(st Study) (mm []workloads.Pair, borrowed bool) {
	if mm = mmPairs(st.Pairs); len(mm) > 0 {
		return mm, false
	}
	return mmPairs(workloads.Pairs())[:1], true
}

// staticSweeps declares the static ablation: adjustment on is the
// study's Rollover pair sweep (filtered to M+M by the table) unless the
// M+M pair is borrowed; adjustment off runs on the M+M pairs only.
func staticSweeps(st Study) []Sweep {
	mm, borrowed := staticPairs(st)
	on := pairsOf(core.SchemeRollover)
	if borrowed {
		on = Sweep{Name: "static-on", Scheme: core.SchemeRollover, Pairs: mm}
	}
	return []Sweep{on, {Name: "static-off", Scheme: core.SchemeRollover, Pairs: mm,
		Session: []core.Option{core.WithQoSOptions(qos.Options{DisableStaticAdjust: true})}}}
}

// AblateStatic reproduces the Section 4.8 static-resource-management
// ablation on M+M pairs: non-QoS throughput with and without run-time TB
// adjustment (paper: +13.3% with).
func AblateStatic(st Study, cs []SweepRow) (*Table, error) {
	mm, borrowed := staticPairs(st)
	var on []PairCase
	for _, c := range cs[0].Pairs {
		if slices.Contains(mm, c.Pair) {
			on = append(on, c)
		}
	}
	t := &Table{ID: "Ablation 4.8c", Title: "Static TB adjustment on/off, M+M pairs (non-QoS throughput)",
		Header: []string{"Goal", "Adjust on", "Adjust off"}}
	if borrowed {
		t.Notes = append(t.Notes, fmt.Sprintf("the study has no M+M pair; compared on %s+%s from the full pair set",
			mm[0].QoS, mm[0].NonQoS))
	}
	if s0, s1, n := pairedTput(t, st.Goals, on, cs[1].Pairs); n > 0 && s1 > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("measured M+M gain from static management: %+.1f%% (paper: +13.3%%)",
			100*(s0/s1-1)))
	}
	return t, nil
}

// preemptSweeps declares Rollover with real context-switch costs and with
// free preemption (effectively instantaneous context moves, no drain
// penalty).
func preemptSweeps(st Study) []Sweep {
	cfg := st.Runner.GPUConfig()
	cfg.CtxSaveBWBytes = 1 << 30
	cfg.SMDrainPenalty = 0
	return []Sweep{pairsOf(core.SchemeRollover),
		{Name: "preempt-free", Scheme: core.SchemeRollover, Session: []core.Option{core.WithGPU(cfg)}}}
}

// AblatePreemption reproduces the Section 4.8 preemption-overhead study:
// non-QoS throughput with real context-switch costs vs free preemption
// (paper: 1.93% overhead).
func AblatePreemption(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Ablation 4.8a", Title: "Preemption overhead on non-QoS throughput (Rollover)",
		Header: []string{"Goal", "Real cost", "Free"}}
	if s0, s1, n := pairedTput(t, st.Goals, cs[0].Pairs, cs[1].Pairs); n > 0 && s1 > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("measured preemption overhead: %.2f%% (paper: 1.93%%)",
			100*(1-s0/s1)))
	}
	return t, nil
}

// sensitivityRow is one row of a Rollover sensitivity sweep: overall
// QoSreach and the mean non-QoS throughput over goals with any.
func sensitivityRow(label string, st Study, cases []PairCase) []string {
	avg, _ := meanPositive(PairNonQoSThroughputByGoal(cases, st.Goals), st.Goals)
	return []string{label, pct(AvgReach(cases)), num(avg)}
}

// epochLengths are the quota epoch lengths the epoch ablation compares.
var epochLengths = []int64{5_000, 10_000, 20_000, 40_000}

// epochFit splits epochLengths into those the study's window covers at
// least twice (a session's minimum) and those it does not.
func epochFit(st Study) (fit, skipped []int64) {
	for _, l := range epochLengths {
		if st.Runner.Window() >= 2*l {
			fit = append(fit, l)
		} else {
			skipped = append(skipped, l)
		}
	}
	return fit, skipped
}

// epochSweeps declares one Rollover pair sweep per epoch length that
// fits the window. When none fits it declares them all, so that Collect
// refuses the study before simulating anything.
func epochSweeps(st Study) []Sweep {
	fit, _ := epochFit(st)
	if len(fit) == 0 {
		fit = epochLengths
	}
	var sweeps []Sweep
	for _, l := range fit {
		cfg := st.Runner.GPUConfig()
		cfg.EpochLength = l
		sweeps = append(sweeps, Sweep{Name: fmt.Sprintf("epoch-%d", l), Scheme: core.SchemeRollover,
			Session: []core.Option{core.WithGPU(cfg)}})
	}
	return sweeps
}

// AblateEpochLength sweeps the quota epoch length (the paper fixes 10K
// cycles citing prior work; this shows the sensitivity).
func AblateEpochLength(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Ablation epoch", Title: "Epoch length sensitivity (Rollover)",
		Header: []string{"Epoch", "QoSreach", "Non-QoS tput"}}
	fit, skipped := epochFit(st)
	for i, l := range fit {
		t.Rows = append(t.Rows, sensitivityRow(fmt.Sprint(l), st, cs[i].Pairs))
	}
	if len(skipped) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("skipped epoch lengths %v: the %d-cycle window covers fewer than two",
			skipped, st.Runner.Window()))
	}
	return t, nil
}

// nonQoSInits are the initial non-QoS IPCs the nq-init ablation compares.
var nonQoSInits = []float64{1, 8, 32, 128}

// AblateNonQoSInit sweeps the initial artificial IPC of non-QoS kernels
// (paper Section 3.5 claims minimal impact on the final outcome).
func AblateNonQoSInit(st Study, cs []SweepRow) (*Table, error) {
	t := &Table{ID: "Ablation nq-init", Title: "Non-QoS initial IPC sensitivity (Rollover)",
		Header: []string{"Init IPC", "QoSreach", "Non-QoS tput"}}
	for i, init := range nonQoSInits {
		t.Rows = append(t.Rows, sensitivityRow(fmt.Sprintf("%.0f", init), st, cs[i].Pairs))
	}
	return t, nil
}
