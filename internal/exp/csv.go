package exp

import (
	"fmt"

	"repro/internal/workloads"
)

// The one CSV writer of sweep results: cmd/sweep renders local runs and
// the distributed coordinator's merge through it, so the two emit
// byte-identical rows for the same cases.

// CSVHeader returns the header row of g's CSV.
func (g Grid) CSVHeader() []string {
	if g.NQoS == 0 {
		return []string{"scheme", "qos", "nonqos", "class", "goal", "reached",
			"qos_ipc", "qos_goal_ipc", "goal_ratio", "nonqos_norm_tput", "instr_per_watt"}
	}
	return []string{"scheme", "a", "b", "c", "nqos", "goal", "reached",
		"ratio_a", "ratio_b", "nonqos_norm_tput"}
}

// CSVRows renders the completed cases of g in case order; a failed case
// (nil Res) has no row.
func (g Grid) CSVRows(c Cases) [][]string {
	var rows [][]string
	for _, pc := range c.Pairs {
		if pc.Res != nil {
			rows = append(rows, pairCSVRow(pc))
		}
	}
	for _, tc := range c.Trios {
		if tc.Res != nil {
			rows = append(rows, trioCSVRow(tc, g.NQoS))
		}
	}
	return rows
}

func pairCSVRow(c PairCase) []string {
	q, nq := c.QoSKernel(), c.NonQoSKernel()
	cls, _ := workloads.PairClass(c.Pair.QoS, c.Pair.NonQoS)
	return []string{
		c.Scheme.Name(), c.Pair.QoS, c.Pair.NonQoS, cls,
		fmt.Sprintf("%.2f", c.Goal),
		fmt.Sprint(c.Res.AllReached),
		fmt.Sprintf("%.2f", q.IPC),
		fmt.Sprintf("%.2f", q.GoalIPC),
		fmt.Sprintf("%.4f", q.GoalRatio),
		fmt.Sprintf("%.4f", nq.NormThroughput),
		fmt.Sprintf("%.3e", c.Res.Power.InstrPerWatt),
	}
}

func trioCSVRow(c TrioCase, nQoS int) []string {
	ratioB := ""
	if nQoS == 2 {
		ratioB = fmt.Sprintf("%.4f", c.Res.Kernels[1].GoalRatio)
	}
	var nqNorm float64
	var nqCount int
	for _, k := range c.Res.Kernels {
		if !k.IsQoS {
			nqNorm += k.NormThroughput
			nqCount++
		}
	}
	if nqCount > 0 {
		nqNorm /= float64(nqCount)
	}
	return []string{
		c.Scheme.Name(), c.Trio.A, c.Trio.B, c.Trio.C,
		fmt.Sprint(nQoS),
		fmt.Sprintf("%.2f", c.QoSGoals[0]),
		fmt.Sprint(c.Res.AllReached),
		fmt.Sprintf("%.4f", c.Res.Kernels[0].GoalRatio),
		ratioB,
		fmt.Sprintf("%.4f", nqNorm),
	}
}
