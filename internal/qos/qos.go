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

// Options tunes the manager beyond the scheme choice; zero values give
// the paper's configuration.
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

	goals []float64 // absolute GPU-wide IPC goals; 0 marks non-QoS
	isQoS []bool

	// Per-SM, per-slot quota counters (thread instructions remaining).
	counters [][]float64
	// exhaustAt[sm][slot]: cycle the counter first crossed zero this
	// epoch (-1: not yet). Drives the TLP give-back test.
	exhaustAt       [][]int64
	epochStartCycle int64
	// Per-slot GPU-wide quota for the current epoch.
	quota []float64
	alpha []float64
	// Artificial IPC goals for non-QoS kernels (Section 3.5).
	nonQoSGoal []float64

	epochLen      int64
	started       bool
	qosSlots      []int
	nonQoS        []int
	peakIPC       float64
	lastEpoch     []float64 // IPCepoch of the previous epoch per slot
	allowance     []float64 // quota+carry granted for the current epoch
	prevAlpha     []float64 // α in force during the previous epoch
	deficitStreak []int     // consecutive epochs a QoS kernel missed rate
	unexhausted   []int     // SMs that ended the last epoch with quota left
	epochCount    int       // epochs seen by the static adjuster
	lastSwap      []int     // epoch of the last TB move per slot (cooldown)
	carryScratch  []float64 // per-refresh pooled carry (reused each epoch)
	lastReclaim   int       // epoch of the last give-back move
	Replenish     int64     // mid-epoch non-QoS replenishments (stats)
	ElasticNew    int64     // elastic early-epoch starts (stats)
}

// New builds a manager for g. goals[slot] is the absolute thread-IPC goal
// for the kernel in that slot, or 0 for a non-QoS kernel. At least one
// QoS kernel is required.
func New(g *gpu.GPU, scheme Scheme, goals []float64, opts Options) (*Manager, error) {
	if len(goals) != len(g.Kernels) {
		return nil, errors.New("qos: goals length must match kernels")
	}
	m := &Manager{
		g:             g,
		scheme:        scheme,
		opts:          opts,
		goals:         append([]float64(nil), goals...),
		isQoS:         make([]bool, len(goals)),
		quota:         make([]float64, len(goals)),
		alpha:         make([]float64, len(goals)),
		nonQoSGoal:    make([]float64, len(goals)),
		lastEpoch:     make([]float64, len(goals)),
		allowance:     make([]float64, len(goals)),
		prevAlpha:     make([]float64, len(goals)),
		deficitStreak: make([]int, len(goals)),
		unexhausted:   make([]int, len(goals)),
		lastSwap:      make([]int, len(goals)),
		carryScratch:  make([]float64, len(goals)),
		lastReclaim:   -10,
		epochLen:      g.Cfg.EpochLength,
		peakIPC:       float64(g.Cfg.PeakIssuePerCycle() * g.Cfg.WarpSize),
	}
	if m.opts.NonQoSInitIPC <= 0 {
		m.opts.NonQoSInitIPC = 1
	}
	if m.opts.AlphaCap <= 0 {
		m.opts.AlphaCap = 16
	}
	switch {
	case m.opts.QuotaMargin == 0:
		m.opts.QuotaMargin = 0.015
	case m.opts.QuotaMargin < 0:
		m.opts.QuotaMargin = 0
	}
	for slot, goal := range goals {
		if goal < 0 {
			return nil, fmt.Errorf("qos: negative goal for slot %d", slot)
		}
		m.alpha[slot] = 1
		m.prevAlpha[slot] = 1
		if goal > 0 {
			m.isQoS[slot] = true
			m.qosSlots = append(m.qosSlots, slot)
		} else {
			m.nonQoS = append(m.nonQoS, slot)
			m.nonQoSGoal[slot] = m.opts.NonQoSInitIPC
		}
	}
	if len(m.qosSlots) == 0 {
		return nil, errors.New("qos: no QoS kernel among goals")
	}
	for i := range m.lastSwap {
		m.lastSwap[i] = -10
	}
	m.counters = make([][]float64, g.Cfg.NumSMs)
	m.exhaustAt = make([][]int64, g.Cfg.NumSMs)
	for i := range m.counters {
		m.counters[i] = make([]float64, len(goals))
		m.exhaustAt[i] = make([]int64, len(goals))
		for j := range m.exhaustAt[i] {
			m.exhaustAt[i][j] = -1
		}
	}
	return m, nil
}

// Scheme returns the active scheme.
func (m *Manager) Scheme() Scheme { return m.scheme }

// Goal returns the absolute IPC goal of slot (0 for non-QoS).
func (m *Manager) Goal(slot int) float64 { return m.goals[slot] }

// Alpha returns the current history adjustment of slot.
func (m *Manager) Alpha(slot int) float64 { return m.alpha[slot] }

// Install wires the manager into the GPU as controller and quota gate and
// performs the first epoch's quota allocation. Call once before Run.
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
	if m.scheme == RolloverTime && !m.isQoS[slot] {
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
		// ForceEpochRoll keeps the device's EpochRecords, the epoch
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
		m.ElasticNew++
		m.g.Tracer().ElasticEpoch(now, now-m.epochStartCycle)
		m.g.ForceEpochRoll(now)
		return
	}
	for smID := range m.counters {
		c := m.counters[smID]
		s := m.g.SMs[smID]
		exhausted := true
		for _, slot := range m.nonQoS {
			if c[slot] > 0 && s.ResidentTBs(slot) > 0 {
				exhausted = false
				break
			}
		}
		if !exhausted {
			continue
		}
		// Top up only the non-QoS kernels so they keep the SM busy
		// until the epoch boundary.
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
			m.Replenish++
			s.Wake(now)
		}
	}
}

// NextControlEvent implements gpu.Controller for the event wheel.
// OnCycle acts only once every QoS kernel has exhausted its quota
// GPU-wide; until then it returns on its first check, and the exhaustion
// state cannot change across a skipped stretch — it is a function of the
// quota counters and TB residency, both frozen while every SM sleeps
// (the issue that crosses the final counter past zero wakes its SM, so
// the wheel re-evaluates at the very next cycle). Once exhausted, the
// manager runs per cycle: replenish timing and elastic epoch starts
// depend on state the hook itself mutates.
func (m *Manager) NextControlEvent(now int64) int64 {
	if m.qosExhaustedEverywhere() {
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
	// Annotate the EpochRecords the GPU just closed with the quota and α
	// that were actually in force during that epoch (they were computed
	// at the previous refresh, so they are about to be overwritten).
	for slot := range m.quota {
		m.g.Rec.AnnotateLast(slot, m.quota[slot], m.alpha[slot])
	}
	// IPC of the epoch that just ended (the GPU rolled counters first).
	// The denominator is the epoch's actual duration: under Elastic an
	// epoch ends early via ForceEpochRoll, and dividing by the nominal
	// length would understate every shortened epoch's IPC.
	dur := now - m.epochStartCycle
	if dur <= 0 {
		dur = m.epochLen
	}
	for slot, st := range m.g.Stats {
		m.lastEpoch[slot] = float64(st.LastEpochInstrs) / float64(dur)
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
			if m.allowance[q] <= 0 {
				continue
			}
			// Consumed fraction of the allowance, from the raw epoch
			// instruction count (duration-independent, so shortened
			// elastic epochs compare correctly).
			f := float64(m.g.Stats[q].LastEpochInstrs) / m.allowance[q]
			if f > 0.995 {
				f = 1
			}
			factor *= f
		}
		next := m.lastEpoch[slot] * factor
		if next < m.opts.NonQoSInitIPC {
			next = m.opts.NonQoSInitIPC
		}
		if next > m.peakIPC {
			next = m.peakIPC
		}
		prev := m.nonQoSGoal[slot]
		m.nonQoSGoal[slot] = 0.5*prev + 0.5*next
		m.g.Tracer().ArtificialGoal(now, slot, m.nonQoSGoal[slot], prev)
	}
	// History-based α for QoS kernels (Section 3.4.2). The α that was
	// in force during the finished epoch is kept for the static
	// adjuster's quota-consumption test.
	for _, q := range m.qosSlots {
		m.prevAlpha[q] = m.alpha[q]
		m.alpha[q] = 1
		// History uses the kernel's active-window IPC: a kernel held off
		// the SMs by a relaunch gate or a pending context restore was
		// previously judged on cycles it could not issue in, inflating α
		// (and therefore its quota) for scheduling artifacts rather than
		// genuine interference.
		hist := m.g.IPC(q)
		if m.scheme.historyAdjusted() && !m.opts.DisableHistory {
			if hist > 0 {
				if a := m.goals[q] / hist; a > 1 {
					m.alpha[q] = a
				}
			} else {
				m.alpha[q] = m.opts.AlphaCap
			}
			if m.alpha[q] > m.opts.AlphaCap {
				m.alpha[q] = m.opts.AlphaCap
			}
			if m.alpha[q] != m.prevAlpha[q] {
				m.g.Tracer().Alpha(now, q, m.alpha[q], m.prevAlpha[q])
			}
		}
		m.g.Tracer().GoalCheck(now, q, hist, m.goals[q])
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
	for slot := range m.unexhausted {
		m.unexhausted[slot] = 0
	}
	for smID := range m.counters {
		c := m.counters[smID]
		s := m.g.SMs[smID]
		for slot := range c {
			if c[slot] > 0 && s.ResidentTBs(slot) > 0 {
				m.unexhausted[slot]++
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
		for slot := range m.quota {
			var leftover float64
			for smID := range m.counters {
				leftover += m.counters[smID][slot]
			}
			tr.QuotaConsumed(now, slot, m.allowance[slot]-leftover, leftover)
		}
	}
	for slot := range m.quota {
		if m.isQoS[slot] {
			m.quota[slot] = m.alpha[slot] * m.goals[slot] * float64(m.epochLen) * (1 + m.opts.QuotaMargin)
		} else {
			m.quota[slot] = m.nonQoSGoal[slot] * float64(m.epochLen)
		}
	}
	m.epochStartCycle = now
	// The paper's quotas are kernel-level (Quota_k), with the per-SM
	// split a distribution mechanism (Section 3.4.1). Carry is therefore
	// pooled GPU-wide before redistribution: Rollover keeps a QoS
	// kernel's total unused quota (Figure 4c), Elastic carries total
	// debt (Figure 4b). Pooling also prevents a slow SM from hoarding
	// quota that faster SMs could have consumed.
	carry := m.carryScratch
	for i := range carry {
		carry[i] = 0
	}
	for smID := range m.counters {
		for slot, v := range m.counters[smID] {
			switch {
			case m.scheme == Elastic:
				if v < 0 {
					carry[slot] += v
				}
			case (m.scheme == Rollover || m.scheme == RolloverTime) && m.isQoS[slot]:
				if v > 0 {
					carry[slot] += v
				}
			}
		}
	}
	// Bound the carry to one extra epoch per slot so an unreachable goal
	// cannot bank unlimited allowance.
	for slot := range carry {
		if carry[slot] > m.quota[slot] {
			carry[slot] = m.quota[slot]
		}
	}
	for slot := range m.allowance {
		m.allowance[slot] = m.quota[slot] + carry[slot]
		tr.QuotaGrant(now, slot, m.quota[slot], m.alpha[slot])
		if carry[slot] != 0 {
			tr.QuotaCarry(now, slot, carry[slot], m.allowance[slot])
		}
	}
	for smID := range m.counters {
		c := m.counters[smID]
		s := m.g.SMs[smID]
		for slot := range c {
			c[slot] = m.share(smID, slot) + m.shareOf(carry[slot], smID, slot)
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
		return m.quota[slot] / float64(len(m.counters))
	}
	return m.quota[slot] * float64(m.g.SMs[smID].ResidentTBs(slot)) / float64(total)
}

// CounterFor exposes a local counter for tests.
func (m *Manager) CounterFor(smID, slot int) float64 { return m.counters[smID][slot] }

// Quota exposes the slot's current GPU-wide per-epoch quota (tests).
func (m *Manager) Quota(slot int) float64 { return m.quota[slot] }
