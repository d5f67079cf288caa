// Package preempt models the cost of partial context switches and SM
// drains. The paper (Sections 3.6, 4.8) charges preemption by the context
// bytes moved to device memory; most of that traffic overlaps with the
// execution of non-preempted TBs, so the model blocks only the moved
// context (and, for spatial repartitioning, the drained SM), not the
// whole GPU.
package preempt

import "repro/internal/config"

// Stats accumulates preemption-engine activity.
type Stats struct {
	Swaps      int64 // TB-granularity context moves
	SMDrains   int64 // whole-SM drains (spatial repartitioning)
	BytesMoved int64
	BusyCycles int64 // cycles the engine spent moving context
}

// Engine tracks per-SM context-movement occupancy.
type Engine struct {
	cfg       config.GPU
	busyUntil []int64

	// Enabled=false makes context movement free; the Section 4.8
	// preemption-overhead ablation flips this.
	Enabled bool

	Stats Stats
}

// New builds an engine for the configuration, or rebuilds prev in place
// when it is not nil: every SM's lane idle, no activity counted.
func New(cfg config.GPU, prev *Engine) *Engine {
	if prev == nil {
		prev = new(Engine)
	}
	*prev = Engine{cfg: cfg, busyUntil: append(prev.busyUntil[:0], make([]int64, cfg.NumSMs)...), Enabled: true}
	return prev
}

// MoveCost returns the cycles needed to move bytes of context.
func (e *Engine) MoveCost(bytes int) int64 {
	if !e.Enabled || bytes <= 0 {
		return 0
	}
	bw := int64(e.cfg.CtxSaveBWBytes)
	return (int64(bytes) + bw - 1) / bw
}

// BeginSwap schedules a TB context move on smID starting at now and
// returns the cycle the moved context is usable again.
func (e *Engine) BeginSwap(now int64, smID, bytes int) int64 {
	e.Stats.Swaps++
	e.Stats.BytesMoved += int64(bytes)
	start := now
	if e.busyUntil[smID] > start {
		start = e.busyUntil[smID]
	}
	done := start + e.MoveCost(bytes)
	e.busyUntil[smID] = done
	e.Stats.BusyCycles += done - start
	return done
}

// BeginDrain schedules a whole-SM drain (spatial repartition): the SM is
// unusable until the returned cycle.
func (e *Engine) BeginDrain(now int64, smID, bytes int) int64 {
	e.Stats.SMDrains++
	e.Stats.BytesMoved += int64(bytes)
	start := now
	if e.busyUntil[smID] > start {
		start = e.busyUntil[smID]
	}
	done := start + e.MoveCost(bytes)
	if e.Enabled {
		done += e.cfg.SMDrainPenalty
	}
	e.busyUntil[smID] = done
	e.Stats.BusyCycles += done - start
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
