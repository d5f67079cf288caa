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

	// Per-SM, per-slot quota counters (thread instructions remaining).
	counters [][]float64
	// exhaustAt[sm][slot]: cycle the counter first crossed zero this
	// epoch (-1: not yet). Drives the TLP give-back test.
	exhaustAt       [][]int64
	epochStartCycle int64

	epochLen    int64
	started     bool
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
	prevAlpha  float64 // α in force during the previous epoch (the alpha trace event's B)
	nonQoSGoal float64 // artificial IPC goal of a non-QoS kernel (Section 3.5)
	lastEpoch  float64 // IPCepoch of the previous epoch
	allowance  float64 // quota+carry granted for the current epoch
	carry      float64 // pooled carry of the last refresh

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
	if opts.NonQoSInitIPC <= 0 {
		opts.NonQoSInitIPC = 1
	}
	if opts.AlphaCap <= 0 {
		opts.AlphaCap = 16
	}
	switch {
	case opts.QuotaMargin == 0:
		opts.QuotaMargin = 0.015
	case opts.QuotaMargin < 0:
		opts.QuotaMargin = 0
	}
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
		counters:    grid(m.counters, numSMs, n, 0),
		exhaustAt:   grid(m.exhaustAt, numSMs, n, -1),
		qosSlots:    m.qosSlots[:0],
		nonQoS:      m.nonQoS[:0],
		lastReclaim: -10,
		epochLen:    g.Cfg.EpochLength,
		peakIPC:     float64(g.Cfg.PeakIssuePerCycle() * g.Cfg.WarpSize),
	}
	for slot, goal := range goals {
		m.slots[slot] = slotState{goal: goal, isQoS: goal > 0, alpha: 1, prevAlpha: 1, lastSwap: -10}
		if goal > 0 {
			m.qosSlots = append(m.qosSlots, slot)
		} else {
			m.nonQoS = append(m.nonQoS, slot)
			m.slots[slot].nonQoSGoal = opts.NonQoSInitIPC
		}
	}
	return m, nil
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
// performs the first epoch's quota allocation. Call once before RunCtx.
func (m *Manager) Install() {
	m.g.SetController(m)
	m.g.SetGate(m)
	m.refreshQuotas(0)
	m.started = true
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
		// is spent (Figure 4b) — as a real epoch roll, not a local
		// counter top-up. Routing the early start through the GPU's
		// ForceEpochRoll keeps the traced epoch rolls, the epoch
		// clock and this manager's OnEpoch observing the same interval;
		// the previous local top-up left the fixed epoch timer running,
		// so the boundary roll double-counted the shortened epoch and
		// attributed its instructions to a window the controller never
		// saw. Counters keep their negative remainders; refreshQuotas
		// pools them as debt.
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
			share := m.share(smID, slot)
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
			if m.share(smID, slot) > 0 {
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

// OnEpoch recomputes α, non-QoS artificial goals and quotas, then runs
// the static TB adjuster.
func (m *Manager) OnEpoch(now int64) {
	// IPC of the epoch that just ended (the GPU rolled counters first).
	// The denominator is the epoch's actual duration: under Elastic an
	// epoch ends early via ForceEpochRoll, and dividing by the nominal
	// length would understate every shortened epoch's IPC.
	dur := now - m.epochStartCycle
	if dur <= 0 {
		dur = m.epochLen
	}
	for slot, st := range m.g.Stats {
		m.slots[slot].lastEpoch = float64(st.LastEpochInstrs) / float64(dur)
	}
	// Non-QoS artificial goal update (Section 3.5) uses how completely
	// each QoS kernel consumed its allowance (quota plus rolled-over
	// carry) in the finished epoch: a kernel that could not drain its
	// allowance is being squeezed by interference and the non-QoS goal
	// scales down proportionally; a kernel that drained it is
	// scheme-throttled and the non-QoS kernels may keep their level.
	// This is the paper's IPCepoch/(α·IPCgoal) factor with the carry
	// included in the denominator, which preserves the repayment margin
	// Rollover relies on. The raw update is smoothed (EWMA) so one
	// bursty epoch does not whipsaw the search.
	for _, slot := range m.nonQoS {
		factor := 1.0
		for _, q := range m.qosSlots {
			if m.slots[q].allowance <= 0 {
				continue
			}
			// Consumed fraction of the allowance, from the raw epoch
			// instruction count (duration-independent, so shortened
			// elastic epochs compare correctly).
			f := float64(m.g.Stats[q].LastEpochInstrs) / m.slots[q].allowance
			if f > 0.995 {
				f = 1
			}
			factor *= f
		}
		next := m.slots[slot].lastEpoch * factor
		if next < m.opts.NonQoSInitIPC {
			next = m.opts.NonQoSInitIPC
		}
		if next > m.peakIPC {
			next = m.peakIPC
		}
		prev := m.slots[slot].nonQoSGoal
		m.slots[slot].nonQoSGoal = float64(0.5*prev) + float64(0.5*next) // rounded, never fused: make arch-check
		m.g.Tracer().ArtificialGoal(now, slot, m.slots[slot].nonQoSGoal, prev)
	}
	// History-based α for QoS kernels (Section 3.4.2). The α that was
	// in force during the finished epoch is kept only for the alpha
	// trace event, which records each change.
	for _, q := range m.qosSlots {
		sl := &m.slots[q]
		sl.prevAlpha = sl.alpha
		sl.alpha = 1
		// History uses the kernel's active-window IPC: a kernel held off
		// the SMs by a relaunch gate or a pending context restore was
		// previously judged on cycles it could not issue in, inflating α
		// (and therefore its quota) for scheduling artifacts rather than
		// genuine interference.
		hist := m.g.IPC(q)
		if m.scheme.historyAdjusted() && !m.opts.DisableHistory {
			if hist > 0 {
				if a := sl.goal / hist; a > 1 {
					sl.alpha = a
				}
			} else {
				sl.alpha = m.opts.AlphaCap
			}
			if sl.alpha > m.opts.AlphaCap {
				sl.alpha = m.opts.AlphaCap
			}
			if sl.alpha != sl.prevAlpha {
				m.g.Tracer().Alpha(now, q, sl.alpha, sl.prevAlpha)
			}
		}
		m.g.Tracer().GoalCheck(now, q, hist, sl.goal)
	}
	// The static adjuster reads the finished epoch's exhaustion data, so
	// it runs before the quota refresh resets it; the refresh then sees
	// the post-adjustment TB residency when computing shares.
	m.snapshotExhaustion()
	if !m.opts.DisableStaticAdjust {
		m.adjustTBs(now)
	}
	m.refreshQuotas(now)
}

// snapshotExhaustion counts, per slot, the SMs that ended the epoch with
// unconsumed quota (TLP shortfall signal for the static adjuster).
func (m *Manager) snapshotExhaustion() {
	for slot := range m.slots {
		m.slots[slot].unexhausted = 0
	}
	for smID := range m.counters {
		c := m.counters[smID]
		s := m.g.SMs[smID]
		for slot := range c {
			if c[slot] > 0 && s.ResidentTBs(slot) > 0 {
				m.slots[slot].unexhausted++
			}
		}
	}
}

// refreshQuotas computes per-slot epoch quotas and resets the per-SM
// counters according to the scheme's carry rule.
func (m *Manager) refreshQuotas(now int64) {
	tr := m.g.Tracer()
	// Consumption of the epoch that just ended, read off the counters
	// before they are reset. Leftover can be negative (overshoot past
	// zero within one warp instruction, or elastic debt).
	if m.started && tr.Enabled() {
		for slot := range m.slots {
			var leftover float64
			for smID := range m.counters {
				leftover += m.counters[smID][slot]
			}
			tr.QuotaConsumed(now, slot, m.slots[slot].allowance-leftover, leftover)
		}
	}
	for slot := range m.slots {
		sl := &m.slots[slot]
		if sl.isQoS {
			sl.quota = sl.alpha * sl.goal * float64(m.epochLen) * (1 + m.opts.QuotaMargin)
		} else {
			sl.quota = sl.nonQoSGoal * float64(m.epochLen)
		}
	}
	m.epochStartCycle = now
	// The paper's quotas are kernel-level (Quota_k), with the per-SM
	// split a distribution mechanism (Section 3.4.1). Carry is therefore
	// pooled GPU-wide before redistribution: Rollover keeps a QoS
	// kernel's total unused quota (Figure 4c), Elastic carries total
	// debt (Figure 4b). Pooling also prevents a slow SM from hoarding
	// quota that faster SMs could have consumed.
	for slot := range m.slots {
		m.slots[slot].carry = 0
	}
	for smID := range m.counters {
		for slot, v := range m.counters[smID] {
			sl := &m.slots[slot]
			switch {
			case m.scheme == Elastic:
				if v < 0 {
					sl.carry += v
				}
			case (m.scheme == Rollover || m.scheme == RolloverTime) && sl.isQoS:
				if v > 0 {
					sl.carry += v
				}
			}
		}
	}
	for slot := range m.slots {
		sl := &m.slots[slot]
		// Bound the carry to one extra epoch per slot so an unreachable
		// goal cannot bank unlimited allowance.
		if sl.carry > sl.quota {
			sl.carry = sl.quota
		}
		sl.allowance = sl.quota + sl.carry
		tr.QuotaGrant(now, slot, sl.quota, sl.alpha)
		if sl.carry != 0 {
			tr.QuotaCarry(now, slot, sl.carry, sl.allowance)
		}
	}
	for smID := range m.counters {
		c := m.counters[smID]
		s := m.g.SMs[smID]
		for slot := range c {
			c[slot] = m.share(smID, slot) + m.shareOf(m.slots[slot].carry, smID, slot)
			m.exhaustAt[smID][slot] = -1
		}
		s.Wake(now)
	}
}

// shareOf splits an amount across SMs with the same TB-proportional rule
// as share.
func (m *Manager) shareOf(amount float64, smID, slot int) float64 {
	if amount == 0 {
		return 0
	}
	total := m.g.TotalResidentTBs(slot)
	if total == 0 {
		return amount / float64(len(m.counters))
	}
	return amount * float64(m.g.SMs[smID].ResidentTBs(slot)) / float64(total)
}

// share returns slot's local quota on smID: the GPU-wide quota split
// proportionally to the TBs each SM hosts (Section 3.4.1). Before any TB
// is resident (initial allocation) the quota is split evenly so execution
// can start.
func (m *Manager) share(smID, slot int) float64 {
	total := m.g.TotalResidentTBs(slot)
	if total == 0 {
		return m.slots[slot].quota / float64(len(m.counters))
	}
	return m.slots[slot].quota * float64(m.g.SMs[smID].ResidentTBs(slot)) / float64(total)
}

// CounterFor exposes a local counter for tests.
func (m *Manager) CounterFor(smID, slot int) float64 { return m.counters[smID][slot] }

// Quota exposes the slot's current GPU-wide per-epoch quota (tests).
func (m *Manager) Quota(slot int) float64 { return m.slots[slot].quota }
