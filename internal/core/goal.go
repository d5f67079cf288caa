package core

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/schema"
)

// ResolveGoal lowers a typed schema.Goal to the (GoalFrac, GoalIPC)
// pair a KernelSpec carries. Fraction and IPC goals pass through; the
// time-based forms (deadline, latency, periodic) are resolved against
// the node's GPU config into an architectural IPC target
// (IPCGoalForDeadline). Because the lowering depends on cfg, a
// time-based goal can resolve to a different IPC target on every node
// of a heterogeneous fleet; callers re-resolve per node.
//
//   - deadline: subtract the PCI-E input-transfer component from the
//     budget, then derive the IPC that retires Instrs in what remains.
//   - latency: derive the IPC that retires one request's Instrs within
//     the SLO bound, scaled up by LatencyTailHeadroom for the tail
//     percentile — a mean-IPC contract equal to the bound would miss
//     the tail under epoch-to-epoch IPC variance (the variance the
//     paper's Section 3.4 schemes exist to absorb).
//   - periodic: derive the IPC that retires one activation's Instrs
//     within its relative deadline (the period when DeadlineS is 0).
//
// A time-based goal whose derived IPC is not finite (an instruction
// count over a vanishing budget) is ErrBadGoal: no quota can express
// it, and no JSON encoder can carry it to a response or a journal.
func ResolveGoal(cfg config.GPU, g schema.Goal) (goalFrac, goalIPC float64, err error) {
	if err := g.Validate(); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadGoal, err)
	}
	var instrs int64
	var budget float64
	headroom := 1.0
	switch g.Kind {
	case schema.GoalNone:
		return 0, 0, nil
	case schema.GoalFrac:
		return g.Frac, 0, nil
	case schema.GoalIPC:
		return 0, g.IPC, nil
	case schema.GoalLatency:
		l := g.Latency
		instrs, budget, headroom = l.Instrs, l.Seconds, LatencyTailHeadroom(l.Percentile)
	case schema.GoalPeriodic:
		p := g.Periodic
		instrs, budget = p.Instrs, p.DeadlineS
		if budget == 0 {
			budget = p.PeriodS
		}
	default:
		d := g.Deadline
		instrs, budget = d.Instrs, d.Seconds
		if d.TransferBytes > 0 {
			gbps := d.PCIeGbps
			if gbps == 0 {
				gbps = 15.75 // PCIe 3.0 x16
			}
			lat := d.PCIeLatency
			if lat == 0 {
				lat = 10e-6
			}
			budget -= PCIeTransferSeconds(d.TransferBytes, gbps, lat)
		}
		if budget <= 0 {
			return 0, 0, fmt.Errorf("%w: deadline consumed by PCI-E transfer", ErrBadGoal)
		}
	}
	ipc, err := IPCGoalForDeadline(cfg, instrs, budget)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadGoal, err)
	}
	// Checked on the final value, so the headroom's overflow counts too.
	if ipc *= headroom; math.IsInf(ipc, 1) {
		return 0, 0, fmt.Errorf("%w: %d instructions in %gs is not a finite IPC target", ErrBadGoal, instrs, budget)
	}
	return 0, ipc, nil
}

// LatencyTailHeadroom is the factor a latency-SLO goal's mean-IPC
// target is raised above the per-request bound to cover the requested
// tail percentile. Up to p90 the mean suffices (epoch IPC under the
// QoS schemes is roughly symmetric around its mean); past p90 the
// allowance grows linearly — p99 enforces ~22.5% above the bound,
// p99.9 ~25% — a deliberately simple piecewise model of the
// epoch-level IPC spread the history/elastic/rollover machinery
// leaves behind. Percentile 0 means the default p99.
func LatencyTailHeadroom(percentile float64) float64 {
	if percentile == 0 {
		percentile = 0.99
	}
	if percentile <= 0.9 {
		return 1
	}
	return 1 + 2.5*(percentile-0.9)
}
