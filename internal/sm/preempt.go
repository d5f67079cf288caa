package sm

import "math/bits"

// PreemptTB performs a partial context switch: it selects one resident TB
// of the given kernel slot, saves its architectural state and removes it
// from the SM. It returns the saved context and the number of context
// bytes moved (the preemption engine charges the time cost). The newest TB
// of the kernel is chosen so older TBs run to completion, minimizing
// wasted work — the paper swaps "idle TBs" when possible; a TB whose warps
// are all blocked is preferred over one actively issuing.
//
// ok is false when the kernel has no resident TB on this SM.
func (s *SM) PreemptTB(now int64, slot int) (ctx *TBContext, ctxBytes int, ok bool) {
	var victim *TB
	for i := len(s.tbs) - 1; i >= 0; i-- {
		tb := s.tbs[i]
		if tb.Slot != slot {
			continue
		}
		if victim == nil {
			victim = tb
		}
		// Prefer a TB with no warp ready to issue ("idle TB").
		if s.tbIdle(now, tb) {
			victim = tb
			break
		}
	}
	if victim == nil {
		return nil, 0, false
	}
	s.SettleIdle()
	s.idleUntil = 0
	ctx = &TBContext{
		Kernel:  victim.Kernel,
		Slot:    victim.Slot,
		GridIdx: victim.GridIdx,
		Warps:   make([]WarpState, len(victim.Warps)),
	}
	for i := range victim.Warps {
		w := &victim.Warps[i]
		ctx.Warps[i] = WarpState{
			PC:          int(w.pc),
			Iter:        int(w.iter),
			ActiveLanes: int(w.activeLanes),
			AtBarrier:   w.atBarrier,
			Done:        w.done,
			DivState:    w.divState,
		}
		if !w.done {
			// Stop the warp: it leaves every scheduler mask now, so no
			// step sees a dead warp; its place in the list goes at the
			// next compaction and any wake-heap entry when it surfaces.
			w.done = true
			s.drop(w)
		}
		w.atBarrier = false
	}
	victim.LiveWarps = 0
	victim.BarrierWait = 0
	s.freeTB(now, victim)
	s.kernels[slot].stats.TBsPreempted++
	ctxBytes = victim.Kernel.TBResources().CtxBytes
	s.tracer.TBPreempt(now, s.ID, slot, victim.GridIdx, ctxBytes)
	return ctx, ctxBytes, true
}

// tbIdle reports whether no warp of tb can issue right now.
func (s *SM) tbIdle(now int64, tb *TB) bool {
	for i := range tb.Warps {
		if w := &tb.Warps[i]; !w.done && !w.atBarrier && w.readyAt <= now {
			return false
		}
	}
	return true
}

// DrainAll preempts every resident TB (used by the spatial-partitioning
// baseline when an SM changes owner). Contexts are returned in eviction
// order together with the total context bytes moved.
func (s *SM) DrainAll(now int64) (ctxs []*TBContext, bytes int) {
	for len(s.tbs) > 0 {
		slot := s.tbs[len(s.tbs)-1].Slot
		ctx, b, ok := s.PreemptTB(now, slot)
		if !ok {
			break
		}
		ctxs = append(ctxs, ctx)
		bytes += b
	}
	if len(ctxs) > 0 {
		s.tracer.SMDrain(now, s.ID, len(ctxs), bytes)
	}
	return ctxs, bytes
}

// SampleIdleWarps counts, per kernel slot, warps that are ready to issue
// but exceed the SM's issue capacity this cycle — the paper's "idle
// warps" (IWs), Section 3.6. Quota-throttled warps are excluded: they are
// idle because of dynamic management, not because of excessive TLP.
// Counts are accumulated into out (len >= number of slots). Drained to
// now, a scheduler's ready mask is exactly its warps that latency lets
// issue, so a slot's count is a popcount per scheduler.
func (s *SM) SampleIdleWarps(now int64, out []int64) {
	if now < s.BlockedUntil {
		return
	}
	for i := range s.scheds {
		s.scheds[i].drain(now)
	}
	ready := s.sampleScratch
	total := 0
	for slot := range ready {
		ready[slot] = 0
		if s.gate != nil && !s.gate.CanIssue(s.ID, slot) {
			continue
		}
		for i := range s.scheds {
			ready[slot] += bits.OnesCount64(s.scheds[i].ready & s.scheds[i].slots[slot])
		}
		total += ready[slot]
	}
	excess := total - s.cfg.WarpSchedulers
	if excess <= 0 {
		return
	}
	// Attribute the excess proportionally to each kernel's ready share.
	for slot, r := range ready {
		out[slot] += int64(excess * r / total)
	}
}

// CheckInvariants validates SM-level structural invariants for tests:
// resource accounting matches resident TBs, no freed warp remains live,
// and no TB in the store has a listed warp (a resident TB has its live
// ones listed). It returns a non-empty description on violation.
func (s *SM) CheckInvariants() string {
	threads, regs, shm := 0, 0, 0
	perKernel := make([]int, len(s.kernels))
	for _, tb := range s.tbs {
		r := tb.Kernel.TBResources()
		threads += r.Threads
		regs += r.RegBytes
		shm += r.ShmBytes
		perKernel[tb.Slot]++
	}
	switch {
	case threads != s.usedThreads:
		return "thread accounting mismatch"
	case regs != s.usedRegs:
		return "register accounting mismatch"
	case shm != s.usedShm:
		return "shared-memory accounting mismatch"
	case len(s.tbs) != s.usedTBSlots:
		return "TB slot accounting mismatch"
	case s.usedThreads > s.cfg.MaxThreadsPerSM:
		return "thread limit exceeded"
	case s.usedRegs > s.cfg.RegFileBytes:
		return "register file exceeded"
	case s.usedShm > s.cfg.SharedMemBytes:
		return "shared memory exceeded"
	case s.usedTBSlots > s.cfg.MaxTBsPerSM:
		return "TB slots exceeded"
	}
	for slot := range s.kernels {
		if perKernel[slot] != s.kernels[slot].tbs {
			return "per-kernel TB count mismatch"
		}
	}
	stored := make(map[*TB]bool, len(s.free))
	for _, tb := range s.free {
		stored[tb] = true
	}
	for i := range s.scheds {
		for _, w := range s.scheds[i].warps {
			if stored[w.tb] {
				return "a listed warp's TB is in the store"
			}
		}
	}
	for _, tb := range s.tbs {
		var live, bar int32
		for _, w := range tb.Warps {
			if !w.done {
				live++
			}
			if w.atBarrier {
				bar++
			}
		}
		if live != tb.LiveWarps {
			return "live warp count mismatch"
		}
		if bar != tb.BarrierWait {
			return "barrier wait count mismatch"
		}
	}
	return ""
}
