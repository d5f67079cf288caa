// Package qos implements the paper's contribution: cycle-level QoS
// management for fine-grained GPU sharing (Section 3).
//
// The Manager is both the gpu.Controller (epoch bookkeeping, quota
// refresh, static TB adjustment) and the sm.QuotaGate consulted by every
// warp scheduler on every issue attempt (the Enhanced Warp Scheduler).
// Quotas are expressed in thread instructions per epoch, derived from each
// QoS kernel's absolute IPC goal; non-QoS kernels receive a searched quota
// from an artificial IPC goal updated from how well the QoS kernels are
// doing (Section 3.5).
package qos

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/gpu"
)

// Scheme selects the quota allocation policy (Section 3.4).
type Scheme int

const (
	// Naive allocates IPCgoal*Tepoch each epoch and discards leftovers.
	Naive Scheme = iota
	// NaiveHistory is Naive plus the history-based α adjustment
	// (Section 3.4.2, Figure 5).
	NaiveHistory
	// Elastic starts a new epoch immediately once every kernel's quota
	// is exhausted (Section 3.4.3). Includes history adjustment.
	Elastic
	// Rollover carries a QoS kernel's unused quota into the next epoch
	// (Section 3.4.4). Includes history adjustment. The paper's best.
	Rollover
	// RolloverTime is Rollover with CPU-style prioritization: non-QoS
	// kernels are blocked until every QoS kernel in the SM has consumed
	// its quota (Section 4.5, Figures 10-11).
	RolloverTime
)

// String returns the scheme name used in figures.
func (s Scheme) String() string {
	switch s {
	case Naive:
		return "Naive"
	case NaiveHistory:
		return "Naive+History"
	case Elastic:
		return "Elastic"
	case Rollover:
		return "Rollover"
	case RolloverTime:
		return "Rollover-Time"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// historyAdjusted reports whether the scheme scales quotas by α.
func (s Scheme) historyAdjusted() bool { return s != Naive }

// Options tunes the manager beyond the scheme choice. A zero Options is
// this reproduction's default, not the paper's configuration: it keeps
// the paper's history adjustment and static TB adjuster, and adds a
// +1.5 % QuotaMargin (DESIGN.md §6, deviation 3) and an AlphaCap of 16,
// neither of which is in the paper.
type Options struct {
	// DisableHistory forces α=1 even for schemes that normally adjust
	// (the Section 4.8 history ablation).
	DisableHistory bool
	// DisableStaticAdjust turns off run-time TB re-allocation
	// (the Section 4.8 static-management ablation).
	DisableStaticAdjust bool
	// NonQoSInitIPC seeds the artificial IPC goal of non-QoS kernels;
	// the paper uses 1 (Section 3.5). 0 means 1.
	NonQoSInitIPC float64
	// AlphaCap bounds the history adjustment factor to keep quotas
	// finite when a goal is unreachable; 0 means 16.
	AlphaCap float64
	// QuotaMargin inflates QoS quotas by this fraction so kernels hold
	// a small buffer above the bare goal. The paper's Rollover lands
	// 2.8% above goals on average (Figure 9); without a buffer every
	// late-epoch interference burst turns into a sub-1%% miss. 0 means
	// 1.5%; negative disables.
	QuotaMargin float64
}

// Manager is the QoS Manager of Figure 3.
type Manager struct {
	g      *gpu.GPU
	scheme Scheme
	opts   Options

	slots []slotState // by kernel slot
	in    []slotIn    // the finished epoch, by slot (gather)
	prev  []slotState // slots before the last step, for the events

	// Per-SM, per-slot quota counters (thread instructions remaining).
	counters [][]float64
	// exhaustAt[sm][slot]: cycle the counter first crossed zero this
	// epoch (-1: not yet). Drives the TLP give-back test.
	exhaustAt       [][]int64
	epochStartCycle int64

	epochLen    int64
	qosSlots    []int
	nonQoS      []int
	peakIPC     float64
	epochCount  int // epochs seen by the static adjuster
	lastReclaim int // epoch of the last give-back move
}

// slotState is one kernel's QoS state.
type slotState struct {
	goal  float64 // absolute GPU-wide IPC goal; 0 marks non-QoS
	isQoS bool

	quota      float64 // GPU-wide quota for the current epoch
	alpha      float64 // history adjustment (Section 3.4.2)
	nonQoSGoal float64 // artificial IPC goal of a non-QoS kernel (Section 3.5)
	allowance  float64 // quota+carry granted for the current epoch
	carry      float64 // pooled carry granted for the current epoch

	deficitStreak int // consecutive epochs a QoS kernel missed rate
	unexhausted   int // SMs that ended the last epoch with quota left
	lastSwap      int // epoch of the last TB move (cooldown)
}

// New builds a manager for g. goals[slot] is the absolute thread-IPC goal
// for the kernel in that slot, or 0 for a non-QoS kernel. At least one
// QoS kernel is required. A non-nil prev, a manager no run uses any
// more, is rebuilt in place, its storage reused; nil builds afresh. On
// error prev is left as it was.
func New(g *gpu.GPU, scheme Scheme, goals []float64, opts Options, prev *Manager) (*Manager, error) {
	if len(goals) != len(g.Kernels) {
		return nil, errors.New("qos: goals length must match kernels")
	}
	hasQoS := false
	for slot, goal := range goals {
		if goal < 0 {
			return nil, fmt.Errorf("qos: negative goal for slot %d", slot)
		}
		hasQoS = hasQoS || goal > 0
	}
	if !hasQoS {
		return nil, errors.New("qos: no QoS kernel among goals")
	}
	opts = opts.resolved()
	m := prev
	if m == nil {
		m = new(Manager)
	}
	n, numSMs := len(goals), g.Cfg.NumSMs
	*m = Manager{
		g:           g,
		scheme:      scheme,
		opts:        opts,
		slots:       slices.Grow(m.slots[:0], n)[:n],
		in:          slices.Grow(m.in[:0], n)[:n],
		prev:        m.prev[:0],
		counters:    grid(m.counters, numSMs, n, 0),
		exhaustAt:   grid(m.exhaustAt, numSMs, n, -1),
		qosSlots:    m.qosSlots[:0],
		nonQoS:      m.nonQoS[:0],
		lastReclaim: -10,
		epochLen:    g.Cfg.EpochLength,
		peakIPC:     float64(g.Cfg.PeakIssuePerCycle() * g.Cfg.WarpSize),
	}
	for slot, goal := range goals {
		m.slots[slot] = slotState{goal: goal, isQoS: goal > 0, alpha: 1, lastSwap: -10}
		if goal > 0 {
			m.qosSlots = append(m.qosSlots, slot)
		} else {
			m.nonQoS = append(m.nonQoS, slot)
			m.slots[slot].nonQoSGoal = opts.NonQoSInitIPC
		}
	}
	return m, nil
}

// resolved returns o with its zero values replaced by this
// reproduction's defaults (see Options).
func (o Options) resolved() Options {
	if o.NonQoSInitIPC <= 0 {
		o.NonQoSInitIPC = 1
	}
	if o.AlphaCap <= 0 {
		o.AlphaCap = 16
	}
	switch {
	case o.QuotaMargin == 0:
		o.QuotaMargin = 0.015
	case o.QuotaMargin < 0:
		o.QuotaMargin = 0
	}
	return o
}

// grid returns m resized to rows x cols with every element v, reusing
// its storage where large enough.
func grid[E any](m [][]E, rows, cols int, v E) [][]E {
	m = slices.Grow(m[:0], rows)[:rows]
	for i := range m {
		m[i] = slices.Grow(m[i][:0], cols)[:cols]
		for j := range m[i] {
			m[i][j] = v
		}
	}
	return m
}

// Alpha returns the current history adjustment of slot.
func (m *Manager) Alpha(slot int) float64 { return m.slots[slot].alpha }

// Install wires the manager into the GPU as controller and quota gate and
// grants the first epoch's quotas. Call once before RunCtx.
func (m *Manager) Install() {
	m.g.SetController(m)
	m.g.SetGate(m)
	m.gather(0) // every counter is 0: nothing carries into the first epoch
	grant(m.scheme, m.opts, m.epochLen, m.in, m.slots)
	m.refresh(0)
}

// ---- sm.QuotaGate ----

// CanIssue implements the Enhanced Warp Scheduler check (Section 3.3):
// a kernel may issue while its local counter is positive; under
// RolloverTime, non-QoS kernels additionally wait until every QoS kernel
// in the SM has consumed its quota.
func (m *Manager) CanIssue(smID, slot int) bool {
	c := m.counters[smID]
	if m.scheme == RolloverTime && !m.slots[slot].isQoS {
		for _, q := range m.qosSlots {
			if c[q] > 0 {
				return false
			}
		}
	}
	return c[slot] > 0
}

// OnIssue decrements the kernel's local counter by the executed thread
// instructions (<=32, fewer under divergence) and records the moment the
// quota ran out (the give-back test in the static adjuster needs it).
func (m *Manager) OnIssue(smID, slot int, threadInstrs int) {
	c := m.counters[smID]
	before := c[slot]
	c[slot] = before - float64(threadInstrs)
	if before > 0 && c[slot] <= 0 {
		m.exhaustAt[smID][slot] = m.g.Now
		// Exhaustion can unblock other kernels (the all-exhausted
		// replenish path, and non-QoS issue under RolloverTime), so the
		// SM's schedulers must rescan.
		m.g.SMs[smID].Wake(m.g.Now)
	}
}

// ---- gpu.Controller ----

// OnCycle handles mid-epoch quota events: replenishing non-QoS kernels
// once every QoS kernel has exhausted its quota (Section 3.4.1), or
// starting a new elastic epoch (Section 3.4.3).
//
// The exhaustion test is GPU-wide for QoS kernels, not per SM: per-SM
// progress is never perfectly even, and letting non-QoS kernels free-run
// on whichever SM drained first floods the *shared* memory system and
// starves the QoS kernel everywhere else (a positive-feedback failure
// observed with the literal per-SM reading of the paper's rule). The
// global test preserves the intent — non-QoS kernels use the cycles the
// QoS kernels no longer need this epoch.
func (m *Manager) OnCycle(now int64) {
	if !m.qosExhaustedEverywhere() {
		return
	}
	if m.scheme == Elastic {
		// Elastic starts the next epoch the moment every kernel's quota
		// is spent (Figure 4b), as a real epoch roll through the GPU's
		// ForceEpochRoll, so the traced epoch rolls, the epoch clock and
		// OnEpoch observe the same interval. Counters keep their negative
		// remainders; gather pools them as debt.
		if now <= m.epochStartCycle {
			return
		}
		anyResident := false
		for smID := range m.counters {
			c := m.counters[smID]
			s := m.g.SMs[smID]
			for _, slot := range m.nonQoS {
				if c[slot] > 0 && s.ResidentTBs(slot) > 0 {
					return // unspent quota remains; no early epoch yet
				}
			}
			for slot := range c {
				if s.ResidentTBs(slot) > 0 {
					anyResident = true
				}
			}
		}
		if !anyResident {
			return
		}
		m.g.Tracer().ElasticEpoch(now, now-m.epochStartCycle)
		m.g.ForceEpochRoll(now)
		return
	}
	for smID := range m.counters {
		if !m.nonQoSSpent(smID) {
			continue
		}
		// Top up only the non-QoS kernels so they keep the SM busy
		// until the epoch boundary.
		c := m.counters[smID]
		any := false
		for _, slot := range m.nonQoS {
			share := m.share(m.slots[slot].quota, smID, slot)
			if share > 0 {
				c[slot] += share
				m.g.Tracer().Replenish(now, smID, slot, share)
				any = true
			}
		}
		if any {
			m.g.SMs[smID].Wake(now)
		}
	}
}

// nonQoSSpent reports whether no non-QoS kernel on smID has both quota
// left and a TB resident: the SM's replenish condition.
func (m *Manager) nonQoSSpent(smID int) bool {
	c := m.counters[smID]
	s := m.g.SMs[smID]
	for _, slot := range m.nonQoS {
		if c[slot] > 0 && s.ResidentTBs(slot) > 0 {
			return false
		}
	}
	return true
}

// replenishDue reports whether OnCycle's replenish would top up some
// SM: one whose non-QoS kernels are all spent and where one of them has
// a positive share. A mix without a non-QoS kernel never has one.
func (m *Manager) replenishDue() bool {
	for smID := range m.counters {
		if !m.nonQoSSpent(smID) {
			continue
		}
		for _, slot := range m.nonQoS {
			if m.share(m.slots[slot].quota, smID, slot) > 0 {
				return true
			}
		}
	}
	return false
}

// NextControlEvent implements gpu.Controller for the event wheel: it
// returns now exactly when OnCycle would act. OnCycle acts only once
// every QoS kernel has exhausted its quota GPU-wide, and then either
// starts an elastic epoch (Elastic, whose test depends on state the hook
// itself mutates, so it runs per cycle) or replenishes the SMs whose
// non-QoS kernels are spent (replenishDue). Every input of both tests —
// quota counters, TB residency, the epoch's quotas — is frozen while
// every SM sleeps (the issue that crosses a counter past zero wakes its
// SM, and an epoch roll is a wheel event of its own), so the wheel
// re-evaluates at the very next cycle any of them can change, and a
// skipped stretch stays exact.
func (m *Manager) NextControlEvent(now int64) int64 {
	if m.qosExhaustedEverywhere() && (m.scheme == Elastic || m.replenishDue()) {
		return now
	}
	return gpu.NoEvent
}

// qosExhaustedEverywhere reports whether every QoS kernel has consumed
// its quota on every SM where it has warps.
func (m *Manager) qosExhaustedEverywhere() bool {
	for _, q := range m.qosSlots {
		for smID := range m.counters {
			if m.counters[smID][q] > 0 && m.g.SMs[smID].ResidentTBs(q) > 0 {
				return false
			}
		}
	}
	return true
}

// OnEpoch closes an epoch: it gathers what the finished epoch measured,
// steps every slot's quota state, emits the decisions, runs the static
// TB adjuster and splits the new quotas across SMs.
func (m *Manager) OnEpoch(now int64) {
	m.gather(now)
	m.prev = append(m.prev[:0], m.slots...)
	step(m.scheme, m.opts, m.epochLen, m.peakIPC, m.in, m.slots)
	tr := m.g.Tracer()
	for _, slot := range m.nonQoS {
		tr.ArtificialGoal(now, slot, m.slots[slot].nonQoSGoal, m.prev[slot].nonQoSGoal)
	}
	for _, q := range m.qosSlots {
		if a := m.slots[q].alpha; a != m.prev[q].alpha {
			tr.Alpha(now, q, a, m.prev[q].alpha)
		}
		tr.GoalCheck(now, q, m.in[q].hist, m.slots[q].goal)
	}
	// The static adjuster reads the finished epoch's exhaustion data, so
	// it runs before refresh resets it; the split then sees the
	// post-adjustment TB residency.
	if !m.opts.DisableStaticAdjust {
		m.adjustTBs(now)
	}
	for slot, in := range m.in {
		tr.QuotaConsumed(now, slot, m.prev[slot].allowance-in.leftover, in.leftover)
	}
	m.refresh(now)
}

// gather reads step's inputs off the device for the epoch ending at now:
// each slot's instructions and active-window IPC, and its quota counters
// pooled over SMs, SM 0 first. The same pass counts, per slot, the SMs
// that ended the epoch with quota left and a TB resident (the static
// adjuster's TLP shortfall signal).
func (m *Manager) gather(now int64) {
	// The denominator of IPCepoch is the epoch's actual duration: under
	// Elastic an epoch ends early via ForceEpochRoll, and dividing by the
	// nominal length would understate every shortened epoch's IPC.
	dur := now - m.epochStartCycle
	if dur <= 0 {
		dur = m.epochLen
	}
	for slot := range m.in {
		m.in[slot] = slotIn{instrs: m.g.Stats[slot].LastEpochInstrs, dur: dur, hist: m.g.IPC(slot)}
		m.slots[slot].unexhausted = 0
	}
	for smID, c := range m.counters {
		s := m.g.SMs[smID]
		for slot, v := range c {
			in := &m.in[slot]
			in.leftover += v
			switch {
			case v > 0:
				in.surplus += v
				if s.ResidentTBs(slot) > 0 {
					m.slots[slot].unexhausted++
				}
			case v < 0:
				in.debt += v
			}
		}
	}
}

// refresh emits the granted quotas and carries, starts the next epoch at
// now and splits each slot's quota and carry across SMs.
func (m *Manager) refresh(now int64) {
	tr := m.g.Tracer()
	for slot, sl := range m.slots {
		tr.QuotaGrant(now, slot, sl.quota, sl.alpha)
		if sl.carry != 0 {
			tr.QuotaCarry(now, slot, sl.carry, sl.allowance)
		}
	}
	m.epochStartCycle = now
	for smID, c := range m.counters {
		for slot := range c {
			sl := &m.slots[slot]
			c[slot] = m.share(sl.quota, smID, slot) + m.share(sl.carry, smID, slot)
			m.exhaustAt[smID][slot] = -1
		}
		m.g.SMs[smID].Wake(now)
	}
}

// share returns smID's part of a GPU-wide amount of slot's quota: the
// amount split proportionally to the TBs each SM hosts (Section 3.4.1).
// Before any TB is resident (initial allocation) it is split evenly so
// execution can start.
func (m *Manager) share(amount float64, smID, slot int) float64 {
	if amount == 0 {
		return 0
	}
	total := m.g.TotalResidentTBs(slot)
	if total == 0 {
		return amount / float64(len(m.counters))
	}
	return amount * float64(m.g.SMs[smID].ResidentTBs(slot)) / float64(total)
}

// CounterFor exposes a local counter for tests.
func (m *Manager) CounterFor(smID, slot int) float64 { return m.counters[smID][slot] }

// Quota exposes the slot's current GPU-wide per-epoch quota (tests).
func (m *Manager) Quota(slot int) float64 { return m.slots[slot].quota }
