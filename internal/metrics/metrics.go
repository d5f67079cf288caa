// Package metrics collects per-kernel execution statistics: cumulative
// thread-instruction counts, per-epoch IPC, memory traffic and TB
// lifecycle events. The QoS manager (internal/qos), the Spart controller
// (internal/spart) and the experiment harness (internal/exp) all read
// these counters; they are the "profiling data" arrow in the paper's
// Figure 3. The package keeps no per-epoch trajectory: the tracer's
// epoch_roll and quota_grant events (internal/trace) record each epoch.
package metrics

import "fmt"

// KernelStats accumulates one kernel's counters over a simulation.
type KernelStats struct {
	// ThreadInstrs counts executed thread instructions (<=32 per warp
	// instruction; inactive lanes don't count), the unit of the paper's
	// IPC goals and quotas.
	ThreadInstrs int64
	// WarpInstrs counts issued warp instructions.
	WarpInstrs int64
	// Instruction-class breakdown for the power model.
	ALUInstrs    int64
	SFUInstrs    int64
	SharedInstrs int64
	GlobalLoads  int64
	GlobalStores int64
	Barriers     int64
	Branches     int64

	// Memory behaviour.
	L1Accesses int64
	L1Misses   int64
	MemTxns    int64 // post-coalescing 128B transactions

	// TB lifecycle.
	TBsDispatched int64
	TBsCompleted  int64
	TBsPreempted  int64
	Launches      int64 // kernel (re-)launches, paper Section 4.1

	// Quota interaction (dynamic-resource management visibility).
	ThrottledCycles int64 // scheduler slots denied by the quota gate
	IdleWarpSamples int64 // always 0, never written; kept until the stats digests are regenerated

	// Epoch bookkeeping maintained by the GPU loop.
	EpochStartInstrs int64 // ThreadInstrs at the top of the epoch
	LastEpochInstrs  int64 // instructions executed in the previous epoch
	StartCycle       int64 // always 0, never written; kept until the stats digests are regenerated

	// Active-window bookkeeping maintained by the SM issue path. A
	// kernel that launches late (relaunch delay, deferred context
	// restore) or drains early must not have its IPC diluted by cycles
	// it could not possibly issue in; goal-attainment checks use the
	// [FirstIssueCycle, LastIssueCycle] window instead of cumulative
	// elapsed cycles. HasIssued disambiguates a first issue at cycle 0
	// from "never issued".
	HasIssued       bool
	FirstIssueCycle int64 // cycle of the first issued warp instruction
	LastIssueCycle  int64 // cycle of the most recent issued warp instruction
}

// NoteIssue records an issued warp instruction at the given cycle for
// active-window accounting. The SM issue path calls this once per issue.
func (k *KernelStats) NoteIssue(now int64) {
	if !k.HasIssued {
		k.HasIssued = true
		k.FirstIssueCycle = now
	}
	k.LastIssueCycle = now
}

// ActiveWindow returns the kernel's active-cycle window: first issue
// through last issue, inclusive. Zero before the first issue.
func (k *KernelStats) ActiveWindow() int64 {
	if !k.HasIssued {
		return 0
	}
	return k.LastIssueCycle - k.FirstIssueCycle + 1
}

// ActiveIPC returns thread-IPC over the kernel's active-cycle window —
// the denominator excludes cycles before the kernel first issued and
// after it drained, so late launches and early completion do not dilute
// the measurement the goal checks consume.
func (k *KernelStats) ActiveIPC() float64 {
	w := k.ActiveWindow()
	if w <= 0 {
		return 0
	}
	return float64(k.ThreadInstrs) / float64(w)
}

// BeginEpoch snapshots the counters at an epoch boundary and returns the
// instruction count of the epoch that just ended.
func (k *KernelStats) BeginEpoch() int64 {
	k.LastEpochInstrs = k.ThreadInstrs - k.EpochStartInstrs
	k.EpochStartInstrs = k.ThreadInstrs
	return k.LastEpochInstrs
}

// L1MissRate returns the kernel's L1 miss ratio.
func (k *KernelStats) L1MissRate() float64 {
	if k.L1Accesses == 0 {
		return 0
	}
	return float64(k.L1Misses) / float64(k.L1Accesses)
}

// String summarizes the stats.
func (k *KernelStats) String() string {
	return fmt.Sprintf("instrs:%d warps:%d l1miss:%.1f%% txns:%d tb:%d/%d",
		k.ThreadInstrs, k.WarpInstrs, 100*k.L1MissRate(), k.MemTxns,
		k.TBsCompleted, k.TBsDispatched)
}
