// Package preempt models the cost of partial context switches and SM
// drains. The paper (Sections 3.6, 4.8) charges preemption by the context
// bytes moved to device memory; most of that traffic overlaps with the
// execution of non-preempted TBs, so the model blocks only the moved
// context (and, for spatial repartitioning, the drained SM), not the
// whole GPU.
package preempt

import "repro/internal/config"

// Engine tracks per-SM context-movement occupancy. What it moved is in
// the trace: the tb_preempt, tb_restore and sm_drain events.
type Engine struct {
	cfg       config.GPU
	busyUntil []int64
}

// New builds an engine for the configuration, or rebuilds prev in place
// when it is not nil: every SM's lane idle.
func New(cfg config.GPU, prev *Engine) *Engine {
	if prev == nil {
		prev = new(Engine)
	}
	*prev = Engine{cfg: cfg, busyUntil: append(prev.busyUntil[:0], make([]int64, cfg.NumSMs)...)}
	return prev
}

// MoveCost returns the cycles needed to move bytes of context. The
// Section 4.8 ablation makes movement free through the configuration
// (a huge CtxSaveBWBytes, no SMDrainPenalty).
func (e *Engine) MoveCost(bytes int) int64 {
	if bytes <= 0 {
		return 0
	}
	bw := int64(e.cfg.CtxSaveBWBytes)
	return (int64(bytes) + bw - 1) / bw
}

// BeginSwap schedules a TB context move on smID starting at now and
// returns the cycle the moved context is usable again.
func (e *Engine) BeginSwap(now int64, smID, bytes int) int64 {
	done := max(now, e.busyUntil[smID]) + e.MoveCost(bytes)
	e.busyUntil[smID] = done
	return done
}

// BeginDrain schedules a whole-SM drain (spatial repartition): the SM is
// unusable until the returned cycle.
func (e *Engine) BeginDrain(now int64, smID, bytes int) int64 {
	done := max(now, e.busyUntil[smID]) + e.MoveCost(bytes) + e.cfg.SMDrainPenalty
	e.busyUntil[smID] = done
	return done
}

// Pending reports whether any context movement is still in flight at now.
// The paper's static adjuster defers swaps while preemption requests are
// pending (Section 3.6).
func (e *Engine) Pending(now int64) bool {
	for _, t := range e.busyUntil {
		if t > now {
			return true
		}
	}
	return false
}
