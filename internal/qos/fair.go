package qos

import (
	"errors"

	"repro/internal/gpu"
)

// Fair is an extension beyond the paper's QoS schemes: the SMK-style
// fairness policy the paper positions itself against (Section 2.3 —
// "fine-grained sharing ... manages resources to achieve fair execution
// among sharer kernels, meaning that the kernel's performance in a
// shared mode degrades equally"). The paper notes the firmware can
// switch between fairness and QoS policies (Section 3.3); providing both
// on the same quota machinery demonstrates that compatibility.
//
// Mechanism: every epoch the manager measures each kernel's normalized
// progress (shared IPC over isolated IPC) and sets every kernel's quota
// to track the slowest kernel's normalized progress plus a small step,
// reusing the Rollover counters. Kernels that pull ahead are throttled;
// the freed cycles flow to the laggard.
type Fair struct {
	m        *Manager
	isolated []float64
	step     float64
}

// NewFair builds a fairness controller for g. isolated[slot] is each
// kernel's isolated IPC (all must be positive).
func NewFair(g *gpu.GPU, isolated []float64, opts Options) (*Fair, error) {
	if len(isolated) != len(g.Kernels) {
		return nil, errors.New("qos: isolated length must match kernels")
	}
	goals := make([]float64, len(isolated))
	for i, iso := range isolated {
		if iso <= 0 {
			return nil, errors.New("qos: fairness needs positive isolated IPCs")
		}
		// Start permissive; the controller ratchets goals to the
		// common achievable normalized progress.
		goals[i] = iso
	}
	// The fairness controller owns goal updates, so the history factor
	// (which assumes fixed goals) is disabled.
	opts.DisableHistory = true
	m, err := New(g, Rollover, goals, opts)
	if err != nil {
		return nil, err
	}
	return &Fair{m: m, isolated: append([]float64(nil), isolated...), step: 0.05}, nil
}

// Install wires the controller into the GPU.
func (f *Fair) Install() {
	f.m.g.SetController(f)
	f.m.g.SetGate(f.m)
	f.m.refreshQuotas(0)
	f.m.started = true
}

// CanIssue and OnIssue delegate to the quota machinery.
func (f *Fair) CanIssue(smID, slot int) bool         { return f.m.CanIssue(smID, slot) }
func (f *Fair) OnIssue(smID, slot, threadInstrs int) { f.m.OnIssue(smID, slot, threadInstrs) }

// OnCycle delegates mid-epoch replenishment.
func (f *Fair) OnCycle(now int64) { f.m.OnCycle(now) }

// NextControlEvent delegates the event-wheel schedule to the quota
// machinery (gpu.Controller).
func (f *Fair) NextControlEvent(now int64) int64 { return f.m.NextControlEvent(now) }

// OnEpoch retargets every kernel at the slowest kernel's normalized
// progress plus one step, then refreshes quotas.
func (f *Fair) OnEpoch(now int64) {
	for slot := range f.m.quota {
		f.m.g.Rec.AnnotateLast(slot, f.m.quota[slot], f.m.alpha[slot])
	}
	minNorm := 2.0
	for slot := range f.m.g.Stats {
		// Normalized progress over the kernel's active window, so a
		// relaunch gap does not read as unfairness.
		norm := f.m.g.IPC(slot) / f.isolated[slot]
		if norm < minNorm {
			minNorm = norm
		}
	}
	target := minNorm + f.step
	if target > 1 {
		target = 1
	}
	for slot := range f.m.goals {
		f.m.goals[slot] = f.isolated[slot] * target
		f.m.g.Tracer().GoalCheck(now, slot, f.m.g.IPC(slot), f.m.goals[slot])
	}
	dur := now - f.m.epochStartCycle
	if dur <= 0 {
		dur = f.m.epochLen
	}
	for slot, st := range f.m.g.Stats {
		f.m.lastEpoch[slot] = float64(st.LastEpochInstrs) / float64(dur)
	}
	f.m.snapshotExhaustion()
	f.m.refreshQuotas(now)
}

// Unfairness returns the current spread of normalized progress
// (max - min); 0 is perfectly fair.
func (f *Fair) Unfairness(now int64) float64 {
	lo, hi := 2.0, 0.0
	for slot := range f.m.g.Stats {
		norm := f.m.g.IPC(slot) / f.isolated[slot]
		if norm < lo {
			lo = norm
		}
		if norm > hi {
			hi = norm
		}
	}
	return hi - lo
}
