package qos

import (
	"repro/internal/kern"
	"repro/internal/sm"
)

// adjustTBs implements the run-time static resource adjustment of
// Section 3.6. Once per epoch, for every QoS kernel that is behind its
// goal and has little idle TLP (at most one "idle TB"), the adjuster
// tries to add one TB — from free resources if possible, otherwise by
// preempting TBs of a victim kernel chosen by the paper's three rules.
// Swaps are skipped while preemption requests are pending.
func (m *Manager) adjustTBs(now int64) {
	m.epochCount++
	idle := m.g.IdleWarpAverages() // read every epoch: it resets the sampling window
	if m.g.Engine.Pending(now) {
		return
	}
	// Giving TBs back to non-QoS kernels requires every QoS kernel to
	// hold its goal with a little margin — releasing exactly at the
	// boundary keeps the QoS kernel orbiting the goal from below.
	release := true
	for _, q := range m.qosSlots {
		if m.g.IPC(q) < m.slots[q].goal*1.01 {
			release = false
			break
		}
	}
	for _, q := range m.qosSlots {
		hist := m.g.IPC(q)
		if hist >= m.slots[q].goal {
			m.slots[q].deficitStreak = 0
			continue
		}
		// Growing TLP helps only when the kernel could not consume the
		// quota it already had: a kernel that exhausted its quota on
		// every SM is throttled by the scheme, not short of warps. A
		// single bad epoch is often the disturbance of a preceding
		// swap, so the deficit must persist before TBs move again.
		if m.slots[q].unexhausted == 0 {
			m.slots[q].deficitStreak = 0
			continue
		}
		m.slots[q].deficitStreak++
		if m.slots[q].deficitStreak < 2 || m.epochCount < m.slots[q].lastSwap+2 {
			continue
		}
		m.slots[q].deficitStreak = 0 // cooldown: let the next epoch settle
		if m.addOneTB(now, q, idle) {
			m.slots[q].lastSwap = m.epochCount
		}
	}
	if release {
		m.releaseToNonQoS(idle)
	}
}

// releaseToNonQoS lets non-QoS kernels grow back once every QoS kernel is
// at its goal: into spare static resources when there are any, otherwise
// by reclaiming one TB per SM from a QoS kernel that has enough IPC
// margin to lose it (the inverse of the grow path — "QoS kernels receive
// just enough resources", Section 3). Without this path the TLP taken
// during catch-up would stay lost forever.
func (m *Manager) releaseToNonQoS(idle [][]float64) {
	now := m.g.Now
	moved := false
	defer func() {
		if moved {
			for _, q := range m.qosSlots {
				m.slots[q].lastSwap = m.epochCount
			}
		}
	}()
	for _, slot := range m.nonQoS {
		for smID, s := range m.g.SMs {
			if !m.g.Allowed(slot, smID) {
				continue
			}
			cap := s.TBCap(slot)
			if cap < 0 || s.ResidentTBs(slot) < cap {
				continue // still has headroom it is not using
			}
			switch {
			case s.RoomWithoutCap(slot):
			case m.epochCount >= m.lastReclaim+2 && m.reclaimFromQoS(now, smID, slot, idle):
				m.lastReclaim = m.epochCount
				moved = true
			default:
				continue
			}
			s.SetTBCap(slot, cap+1)
			m.g.Tracer().TBAdjust(now, smID, slot, cap+1, cap)
			m.g.RequestDispatch()
		}
	}
}

// reclaimFromQoS frees room for one TB of non-QoS kernel nq on smID by
// preempting TBs of a QoS kernel that can spare them under the paper's
// victim rules — idle TBs contribute no progress (rule 2), and a kernel
// with enough IPC margin survives the loss (rule 3). Returns true when
// room was freed.
func (m *Manager) reclaimFromQoS(now int64, smID, nq int, idle [][]float64) bool {
	s := m.g.SMs[smID]
	need := m.g.Kernels[nq].TBResources()
	for _, j := range m.qosSlots {
		resident := s.ResidentTBs(j)
		if resident == 0 || m.g.IPC(j) < m.slots[j].goal*1.02 {
			continue // never nibble a kernel sitting at its goal edge
		}
		n := tbsToEvict(s, need, m.g.Kernels[j].TBResources())
		if n <= 0 || n >= resident {
			continue
		}
		if !m.victimOK(now, smID, j, n, idle) && !m.spareAfterLoss(smID, j, n, resident) {
			continue
		}
		for i := 0; i < n; i++ {
			if !m.g.PreemptOneTB(now, smID, j) {
				return i > 0 && s.RoomWithoutCap(nq)
			}
		}
		prev := s.TBCap(j)
		s.SetTBCap(j, s.ResidentTBs(j))
		m.g.Tracer().TBAdjust(now, smID, j, s.TBCap(j), prev)
		return true
	}
	return false
}

// addOneTB attempts to grow kernel q by one TB on every SM where q's
// idle TLP is low — the paper's decision is per SM, per epoch
// (Section 3.6): "if for a QoS kernel the number of idle TBs is no more
// than one and IPChistory has not achieved its goal, one more TB will be
// allocated".
func (m *Manager) addOneTB(now int64, q int, idle [][]float64) bool {
	warpsPerTB := float64(m.g.Kernels[q].WarpsPerTB())
	any := false
	for smID, s := range m.g.SMs {
		if !m.g.Allowed(q, smID) {
			continue
		}
		idleTBs := idle[smID][q] / warpsPerTB
		if idleTBs > 1 {
			continue // enough spare TLP here already (Section 3.6)
		}
		switch {
		case s.RoomWithoutCap(q):
			m.raiseCap(s, q)
			m.g.RequestDispatch()
			any = true
		case m.evictForOne(now, smID, q, idle):
			m.raiseCap(s, q)
			m.g.RequestDispatch()
			any = true
		}
	}
	return any
}

// raiseCap lets one more TB of slot onto s (unlimited caps stay so).
func (m *Manager) raiseCap(s *sm.SM, slot int) {
	if cap := s.TBCap(slot); cap >= 0 {
		s.SetTBCap(slot, cap+1)
		m.g.Tracer().TBAdjust(m.g.Now, s.ID, slot, cap+1, cap)
	}
}

// evictForOne frees enough resources on smID for one TB of kernel q by
// preempting TBs of a victim kernel. Victims must satisfy one of the
// paper's rules: (1) be a non-QoS kernel, (2) have at least n+1 idle TBs
// when n must be vacated, or (3) have enough IPC margin that losing n of
// its N TBs keeps it above goal. Returns true when space was freed.
func (m *Manager) evictForOne(now int64, smID, q int, idle [][]float64) bool {
	s := m.g.SMs[smID]
	need := m.g.Kernels[q].TBResources()
	for j := range m.g.Kernels {
		if j == q || s.ResidentTBs(j) == 0 {
			continue
		}
		n := tbsToEvict(s, need, m.g.Kernels[j].TBResources())
		if n <= 0 || n > s.ResidentTBs(j) {
			continue
		}
		if !m.victimOK(now, smID, j, n, idle) {
			continue
		}
		for i := 0; i < n; i++ {
			if !m.g.PreemptOneTB(now, smID, j) {
				return i > 0 && s.RoomWithoutCap(q)
			}
		}
		// Pin the victim's cap so the dispatcher does not refill the
		// space before q claims it.
		prev := s.TBCap(j)
		s.SetTBCap(j, s.ResidentTBs(j))
		m.g.Tracer().TBAdjust(now, smID, j, s.TBCap(j), prev)
		return true
	}
	return false
}

// spareAfterLoss estimates whether QoS kernel j on smID would still
// exhaust its quota within an epoch after losing n of its resident TBs:
// a kernel that drained its quota at time t with N TBs is projected to
// need t*N/(N-n), with a 10% safety margin. A kernel that finishes its
// per-epoch work early is being deliberately throttled; its surplus TBs
// contribute nothing and can be returned to non-QoS kernels.
func (m *Manager) spareAfterLoss(smID, j, n, resident int) bool {
	at := m.exhaustAt[smID][j]
	if at < 0 || resident <= n {
		return false
	}
	t := float64(at - m.epochStartCycle)
	if t <= 0 {
		return true
	}
	projected := t * float64(resident) / float64(resident-n)
	return projected < 0.85*float64(m.epochLen)
}

// victimOK applies the paper's victim-selection rules to kernel j when n
// of its TBs must be vacated on smID. A QoS kernel below its own goal is
// never a victim: with two struggling QoS kernels, the idle-TB rule would
// otherwise let them evict each other in a mutually destructive loop
// (issue-queued warps look "idle" while the kernel is starved of
// something else entirely).
func (m *Manager) victimOK(now int64, smID, j, n int, idle [][]float64) bool {
	if !m.slots[j].isQoS {
		return true
	}
	hist := m.g.IPC(j)
	if hist < m.slots[j].goal {
		return false
	}
	idleTBs := idle[smID][j] / float64(m.g.Kernels[j].WarpsPerTB())
	if idleTBs >= float64(n+1) {
		return true
	}
	total := m.g.TotalResidentTBs(j)
	if total == 0 {
		return false
	}
	return hist*(1-float64(n)/float64(total)) > m.slots[j].goal
}

// tbsToEvict computes how many TBs of a victim (with per-TB resources v)
// must leave SM s so one TB with resources need fits. It returns 0 when
// the TB already fits and -1 when no count of victim TBs can make room.
func tbsToEvict(s *sm.SM, need, v kern.Resources) int {
	n := 0
	grow := func(deficit, per int) bool {
		if deficit <= 0 {
			return true
		}
		if per <= 0 {
			return false
		}
		k := (deficit + per - 1) / per
		if k > n {
			n = k
		}
		return true
	}
	if !grow(need.Threads-s.FreeThreads(), v.Threads) {
		return -1
	}
	if !grow(need.RegBytes-s.FreeRegBytes(), v.RegBytes) {
		return -1
	}
	if !grow(need.ShmBytes-s.FreeShmBytes(), v.ShmBytes) {
		return -1
	}
	if s.FreeTBSlots() < 1 && n < 1 {
		n = 1
	}
	return n
}
