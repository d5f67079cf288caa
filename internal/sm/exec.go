package sm

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
)

// noWake is the "no wake pending" sentinel in scan results: later than
// any reachable cycle, so any real wake time replaces it under min.
const noWake = int64(1) << 62

// Cycle advances the SM by one cycle: retire completed load misses, then
// let each warp scheduler issue at most one warp instruction under GTO
// with the quota gate applied.
func (s *SM) Cycle(now int64) {
	if now < s.BlockedUntil {
		return
	}
	if now < s.idleUntil {
		// Every scheduler sleeps past this cycle and no tracked event
		// is due: skip the cycle. Quota-throttle accounting for the
		// skipped cycles is settled in bulk (the gate result is frozen
		// while idle — any quota event calls Wake, which settles and
		// ends the idle window).
		s.idleSkips++
		return
	}
	s.settleIdle()
	// Release MSHRs whose misses completed and transaction credits
	// whose requests drained.
	popped := false
	for s.outstanding > 0 && s.missHeap[0] <= now {
		s.popMiss()
		popped = true
	}
	for slot := range s.txnHeap {
		for s.txnFlight[slot] > 0 && s.txnHeap[slot][0] <= now {
			popHeap(&s.txnHeap[slot])
			s.txnFlight[slot]--
			s.txnTotal--
			popped = true
		}
	}
	if popped {
		// A freed MSHR or transaction credit can unblock a structurally
		// stalled scheduler; wake those sleepers for this cycle's scan.
		// (Completion times are not monotonic in issue order, so a sleep
		// time computed from heap tops at scan time could overshoot —
		// waking at pop time is exact.) The structural-block memo is
		// invalidated the same way: a pop is the only event that shrinks
		// MSHR or credit occupancy.
		s.structEpoch++
		for i := range s.scheds {
			if s.scheds[i].structSleep && s.scheds[i].nextWake > now {
				s.scheds[i].nextWake = now
			}
		}
	}
	s.memIssues = 0
	if s.gateDirty {
		s.refreshGate(now)
	}
	for _, slot := range s.gatedResident {
		s.kernels[slot].stats.ThrottledCycles++
	}

	issued := false
	for i := range s.scheds {
		sch := &s.scheds[i]
		if now < sch.nextWake {
			continue
		}
		if w, idx := s.pick(now, sch); w != nil {
			s.issue(now, sch, w)
			if w.inReady {
				// The issue may have shifted the cache (a barrier
				// release or TB retirement removes entries); validate
				// the index before using it.
				if idx >= len(sch.ready) || sch.ready[idx].w != w {
					idx = findReady(sch, w)
				}
				switch {
				case w.atBarrier:
					// Parked: the barrier release re-files it.
					removeReadyAt(sch, idx)
				case w.readyAt-now >= s.cfg.L1HitLatency:
					// Long sleep (memory wait): move to the wake heap
					// so scans skip it. Short backoffs stay in the
					// ready cache — cheaper to skip in the scan than
					// to churn the heap every couple of cycles.
					removeReadyAt(sch, idx)
					pushWake(&sch.wakeQ, wakeEnt{w.readyAt, w})
				default:
					// Refresh both mirrors: the issue advanced the warp
					// past its instruction, so its scan class may have
					// changed along with its wake time.
					sch.ready[idx].readyAt = w.readyAt
					sch.ready[idx].cls = opClass(w.body[w.pc].Op)
				}
			}
			issued = true
		}
	}
	if issued {
		s.ActiveCycles++
	} else {
		// Nothing issued and every scheduler set a wake time in the
		// future: the SM can sleep until the earliest of them. Any
		// asynchronous enabler (quota replenishment, dispatch, barrier
		// release, TB retirement raising the credit budget) ends the
		// window via Wake/Dispatch.
		idle := s.scheds[0].nextWake
		for i := 1; i < len(s.scheds); i++ {
			if s.scheds[i].nextWake < idle {
				idle = s.scheds[i].nextWake
			}
		}
		// Completion-heap events must still fire on time: a pop releases
		// an MSHR or credit (rousing structural sleepers) and keeps the
		// occupancy counters current.
		if len(s.missHeap) > 0 && s.missHeap[0] < idle {
			idle = s.missHeap[0]
		}
		for slot := range s.txnHeap {
			if h := s.txnHeap[slot]; len(h) > 0 && h[0] < idle {
				idle = h[0]
			}
		}
		s.idleUntil = idle
	}
}

// refreshGate recomputes the cached per-slot gate results. Called only
// when gateDirty (a quota event, gate swap or residency change since the
// last refresh), never per cycle: every mutation that can change
// CanIssue's answer for this SM wakes it, so a clean cache is exact.
// Reopened slots release their parked warps back into the scan caches;
// newly denied slots trace the stall edge exactly as the per-cycle
// recomputation did.
func (s *SM) refreshGate(now int64) {
	s.gateDirty = false
	s.gatedResident = s.gatedResident[:0]
	for slot := range s.kernels {
		ok := s.gate == nil || s.gate.CanIssue(s.ID, slot)
		if !ok && s.kernels[slot].tbs > 0 {
			s.gatedResident = append(s.gatedResident, int32(slot))
			if s.gateOK[slot] {
				// Transition into quota-denied: trace the edge, not
				// every throttled cycle.
				s.tracer.GateStall(now, s.ID, slot, -1)
			}
		}
		if ok && !s.gateOK[slot] {
			s.unparkSlot(slot, now)
		}
		s.gateOK[slot] = ok
	}
}

// unparkSlot re-files every parked warp of a reopened slot into its
// scheduler's ready cache or wake heap. Parked entries are always live
// (a gated warp cannot issue, so it cannot finish or reach a barrier;
// preemption and retirement purge parked entries via removeReady).
func (s *SM) unparkSlot(slot int, now int64) {
	for i := range s.scheds {
		sch := &s.scheds[i]
		if len(sch.parked) == 0 {
			continue
		}
		kept := sch.parked[:0]
		for _, e := range sch.parked {
			if int(e.slot) != slot {
				kept = append(kept, e)
				continue
			}
			e.w.inReady = false
			s.enqueue(sch, e.w, now)
		}
		for j := len(kept); j < len(sch.parked); j++ {
			sch.parked[j] = readyEnt{}
		}
		sch.parked = kept
	}
}

// settleIdle folds idle-skipped cycles into the per-kernel quota
// throttle counters. The gated set is frozen across an idle window, so
// one bulk add per slot is exact.
func (s *SM) settleIdle() {
	n := s.idleSkips
	if n == 0 {
		return
	}
	s.idleSkips = 0
	for _, slot := range s.gatedResident {
		s.kernels[slot].stats.ThrottledCycles += n
	}
}

// SettleIdle flushes pending idle-cycle throttle accounting; the GPU
// calls it before reading final stats.
func (s *SM) SettleIdle() { s.settleIdle() }

// pick implements GTO: greedily reuse the last issued warp while it is
// issuable, otherwise take the oldest issuable warp. The scheduler keeps
// its GTO order cached instead of rescanning every warp context each
// cycle: live warps that are ready (or on a short pipeline backoff) sit
// in an age-ordered ready cache, while long sleepers — memory waits,
// deferred restores — sit in a wake-time min-heap that scans never
// touch. The split matters: short backoffs recur every few cycles, so
// skipping them in the scan is far cheaper than churning the heap; long
// sleeps are exactly the warps worth removing from the scan. Caches are
// invalidated on warp state changes, not rebuilt per cycle. When nothing
// is issuable, pick computes the earliest cycle worth rescanning.
func (s *SM) pick(now int64, sch *scheduler) (*Warp, int) {
	// Move sleepers whose wake time arrived into the ready cache.
	for len(sch.wakeQ) > 0 && sch.wakeQ[0].at <= now {
		w := sch.wakeQ[0].w
		popWake(&sch.wakeQ)
		if w.done || w.atBarrier || w.inReady {
			continue // finished or preempted while asleep, or re-filed
		}
		s.insertReady(sch, w)
	}
	// Greedy reuse applies to compute instructions only: letting the
	// last-issued warp snatch scarce memory-side resources (ports,
	// MSHRs, transaction credits) ahead of older warps starves sparse
	// memory requesters behind a streaming kernel indefinitely. Memory
	// instructions always arbitrate age-ordered.
	if w := sch.last; w != nil && w.inReady && !w.done && !w.atBarrier && w.readyAt <= now &&
		!w.body[w.pc].Op.IsGlobalMem() && s.issuable(now, w) {
		idx := sch.lastIdx
		if idx >= len(sch.ready) || sch.ready[idx].w != w {
			idx = findReady(sch, w)
			sch.lastIdx = idx
		}
		return w, idx
	}
	var best *Warp
	bestIdx := -1
	next := noWake
	sawGated := false
	s.sawPort, s.sawMSHR, s.sawCredit = false, false, false
	longSleep := s.cfg.L1HitLatency
	a := sch.ready
	// Resume past the cached non-issuable prefix when it is still valid:
	// no structural epoch move (MSHR/credit blocks still hold), no waiter
	// matured, and no cache mutation disturbed the region (tracked by
	// insertReady/removeReadyAt). The skipped entries' block causes and
	// earliest wake still feed the stall classification below.
	start := 0
	preMSHR, preCredit := false, false
	preUntil := noWake
	if sch.prefixLen > 0 {
		// The epoch guard only protects MSHR/credit-blocked members; a
		// prefix of pure future-waiters survives completion-heap pops.
		if now < sch.prefixUntil && sch.prefixLen <= len(a) &&
			(!(sch.prefixMSHR || sch.prefixCredit) || sch.prefixEpoch == s.structEpoch) {
			start = sch.prefixLen
			preMSHR, preCredit = sch.prefixMSHR, sch.prefixCredit
			preUntil = sch.prefixUntil
		} else {
			sch.prefixLen = 0
		}
	}
	for i := start; i < len(a); i++ {
		e := &a[i]
		// The entry mirrors the warp's slot, age and wake time so skip
		// decisions stay inside this contiguous slice instead of
		// dereferencing scattered warp contexts. The mirrored readyAt
		// can lag the warp's (DeferTB raises it in place); a lagging
		// value only costs one dereference to refresh — it never skips
		// a warp that is actually ready.
		if !s.gateOK[e.slot] {
			// Quota throttling clears only on a quota event; every quota
			// event wakes the SM and dirties the gate cache, and the
			// refresh un-parks reopened slots before any scan. Parking
			// the entry here removes the whole gated slot from every
			// subsequent scan instead of re-skipping it each cycle. Its
			// wake time needs no tracking: the gate is the binding
			// constraint, and the gate event re-files the warp.
			if e.readyAt <= now {
				sawGated = true
			}
			sch.parked = append(sch.parked, *e)
			copy(a[i:], a[i+1:])
			a[len(a)-1] = readyEnt{}
			sch.ready = a[:len(a)-1]
			a = sch.ready
			i--
			continue
		}
		if e.readyAt > now {
			if e.readyAt < next {
				next = e.readyAt
			}
			continue
		}
		// Structural-block memo: skip a memory entry whose block was
		// already established this cycle (ports) or since the last
		// completion-heap pop / budget raise (MSHRs, credits) without
		// dereferencing the warp — blockedness is monotone between those
		// invalidation points, so the memo answer equals structuralOK's.
		// The checks mirror structuralOK's order (port, MSHR, credit) so
		// the recorded first-failing cause matches a direct check.
		switch e.cls {
		case clsLdGlobal:
			if s.portBlockCycle == now {
				s.sawPort = true
				continue
			}
			if s.mshrEpoch == s.structEpoch {
				s.sawMSHR = true
				continue
			}
			if s.creditEpoch[e.slot] == s.structEpoch {
				s.sawCredit = true
				continue
			}
		case clsStGlobal:
			if s.portBlockCycle == now {
				s.sawPort = true
				continue
			}
			if s.creditEpoch[e.slot] == s.structEpoch {
				s.sawCredit = true
				continue
			}
		}
		w := e.w
		if w.done || w.atBarrier || w.readyAt-now >= longSleep {
			// Retired, preempted and barrier-parked warps are removed
			// eagerly, so this normally catches only a readyAt raised
			// while cached (a DeferTB'd restore): park it in the wake
			// heap and drop the entry.
			live := !w.done && !w.atBarrier
			removeReadyAt(sch, i)
			a = sch.ready
			if live {
				pushWake(&sch.wakeQ, wakeEnt{w.readyAt, w})
			}
			i--
			continue
		}
		if w.readyAt > now {
			e.readyAt = w.readyAt // refresh the lagging mirror
			if w.readyAt < next {
				next = w.readyAt
			}
			continue
		}
		if !s.structuralOK(now, int(e.slot), &w.body[w.pc]) {
			continue // cause recorded in sawPort/sawMSHR/sawCredit
		}
		best = w
		bestIdx = i
		break // the ready cache is age-ordered: oldest first
	}
	// Refresh the prefix cache: everything before bestIdx (or the whole
	// cache when nothing issued) was just proven non-issuable. A scan
	// that saw a port block cannot leave a prefix — ports free when the
	// per-cycle issue counter resets, so those entries must be retried
	// next cycle.
	if s.sawPort {
		sch.prefixLen = 0
	} else {
		if preUntil < next {
			next = preUntil
		}
		if best != nil {
			sch.prefixLen = bestIdx
		} else {
			sch.prefixLen = len(sch.ready)
		}
		sch.prefixUntil = next
		sch.prefixEpoch = s.structEpoch
		sch.prefixMSHR = s.sawMSHR || preMSHR
		sch.prefixCredit = s.sawCredit || preCredit
	}
	s.sawMSHR = s.sawMSHR || preMSHR
	s.sawCredit = s.sawCredit || preCredit
	if best == nil {
		if preUntil < next {
			next = preUntil
		}
		if len(sch.wakeQ) > 0 && sch.wakeQ[0].at < next {
			next = sch.wakeQ[0].at
		}
		switch {
		case s.sawPort || s.sawMSHR || s.sawCredit:
			s.StallStructural++
			// Port conflicts clear when the per-cycle issue counter
			// resets, so retry next cycle. MSHR and credit blocks clear
			// only at a completion-heap pop (or a budget raise, which
			// calls Wake): sleep on the ordinary wake estimate and let
			// the pop loop rouse structural sleepers the cycle a slot
			// actually frees.
			if s.sawPort {
				sch.nextWake = now + 1
				sch.structSleep = false
			} else {
				sch.nextWake = next
				sch.structSleep = true
			}
		case sawGated:
			s.StallGate++
			sch.nextWake = next
			sch.structSleep = false
		default:
			s.StallWaiting++
			sch.nextWake = next
			sch.structSleep = false
		}
	} else {
		sch.lastIdx = bestIdx
	}
	return best, bestIdx
}

// enqueue files a live warp into its scheduler's ready cache or wake
// heap according to its readyAt. Warps at a barrier are re-filed by the
// barrier release.
func (s *SM) enqueue(sch *scheduler, w *Warp, now int64) {
	if w.done || w.atBarrier || w.inReady {
		return
	}
	if w.readyAt-now >= s.cfg.L1HitLatency {
		pushWake(&sch.wakeQ, wakeEnt{w.readyAt, w})
		return
	}
	s.insertReady(sch, w)
}

// insertReady inserts w into the scheduler's ready cache at its age
// position (the cache stays oldest-first, preserving GTO order).
func (s *SM) insertReady(sch *scheduler, w *Warp) {
	w.inReady = true
	e := readyEnt{w: w, age: w.age, readyAt: w.readyAt, slot: int32(w.slot), cls: opClass(w.body[w.pc].Op)}
	a := append(sch.ready, e)
	i := len(a) - 1
	for i > 0 && a[i-1].age > e.age {
		a[i] = a[i-1]
		i--
	}
	a[i] = e
	sch.ready = a
	if i < sch.prefixLen {
		// A possibly-issuable entry landed inside the cached non-issuable
		// prefix; rescan from the top.
		sch.prefixLen = 0
	}
}

// removeReady removes w from the scheduler's ready cache — or from the
// parked list, where gated warps sit with inReady still set — if present.
func (s *SM) removeReady(sch *scheduler, w *Warp) {
	if !w.inReady {
		return
	}
	w.inReady = false
	if i := findReady(sch, w); i >= 0 {
		removeReadyAt(sch, i)
		return
	}
	for i := range sch.parked {
		if sch.parked[i].w == w {
			copy(sch.parked[i:], sch.parked[i+1:])
			sch.parked[len(sch.parked)-1] = readyEnt{}
			sch.parked = sch.parked[:len(sch.parked)-1]
			return
		}
	}
}

// findReady returns the index of w's entry in the ready cache, or -1.
func findReady(sch *scheduler, w *Warp) int {
	for i := range sch.ready {
		if sch.ready[i].w == w {
			return i
		}
	}
	return -1
}

// removeReadyAt deletes the ready-cache entry at index i, preserving
// order.
func removeReadyAt(sch *scheduler, i int) {
	a := sch.ready
	a[i].w.inReady = false
	copy(a[i:], a[i+1:])
	a[len(a)-1] = readyEnt{}
	sch.ready = a[:len(a)-1]
	if i < sch.prefixLen {
		// Removing a non-issuable entry keeps the rest of the prefix
		// non-issuable; prefixUntil and the block flags stay conservative
		// (the removed entry can only have tightened them).
		sch.prefixLen--
	}
}

// issuable applies the quota gate and structural (LD/ST port, MSHR,
// memory backpressure) constraints to a ready warp.
func (s *SM) issuable(now int64, w *Warp) bool {
	return s.gateOK[w.slot] && s.structuralOK(now, w.slot, &w.body[w.pc])
}

// structuralOK checks the per-cycle structural constraints for the warp's
// next instruction, recording every block in the scan memo so later
// entries of the same class skip the re-derivation (see pick).
func (s *SM) structuralOK(now int64, slot int, in *isa.Instr) bool {
	if in.Op.IsGlobalMem() {
		if s.memIssues >= s.cfg.MemPortsPerSM {
			s.BlockPort++
			s.sawPort = true
			s.portBlockCycle = now
			return false
		}
		if in.Op == isa.OpLdGlobal && s.outstanding >= s.cfg.MSHRsPerSM {
			s.BlockMSHR++
			s.sawMSHR = true
			s.mshrEpoch = s.structEpoch
			return false
		}
		// Credit-based flow control with a guaranteed minimum per
		// resident kernel: a kernel past its guaranteed share may
		// still borrow while the SM's total budget has slack (work
		// conserving), but under full contention every kernel keeps
		// its share — a streaming kernel can neither starve a
		// co-resident kernel nor strand credits it does not use.
		if s.txnFlight[slot] >= s.txnCapCache && s.txnTotal >= s.cfg.TxnFlightCapPerSM {
			s.BlockCredit++
			s.sawCredit = true
			s.creditEpoch[slot] = s.structEpoch
			return false
		}
	}
	return true
}

// issue executes one warp instruction of w at time now.
func (s *SM) issue(now int64, sch *scheduler, w *Warp) {
	in := &w.body[w.pc]
	lanes := w.activeLanes
	st := s.kernels[w.slot].stats
	st.WarpInstrs++
	st.ThreadInstrs += int64(lanes)
	st.NoteIssue(now)
	s.IssuedWarpInstrs++
	if s.gate != nil {
		s.gate.OnIssue(s.ID, w.slot, lanes)
	}
	sch.last = w

	switch in.Op {
	case isa.OpIAlu, isa.OpFAlu:
		st.ALUInstrs++
		s.finishCompute(now, w, s.cfg.ALULatency)
	case isa.OpSFU:
		st.SFUInstrs++
		s.finishCompute(now, w, s.cfg.SFULatency)
	case isa.OpLdShared, isa.OpStShared:
		st.SharedInstrs++
		s.finishCompute(now, w, s.cfg.SharedMemLat)
	case isa.OpBranch:
		st.Branches++
		if in.Divergent {
			// Divergence idles a deterministic per-warp fraction of
			// lanes until reconvergence at the loop back-edge.
			w.divState = rng.Hash64(w.divState)
			u := float64(w.divState>>11) / (1 << 53) // [0,1)
			frac := w.kernel.Profile.DivergenceFrac * 2 * u
			drop := int(frac * float64(s.cfg.WarpSize))
			if drop >= w.activeLanes {
				drop = w.activeLanes - 1
			}
			if drop > 0 {
				w.activeLanes -= drop
			}
		}
		s.finishCompute(now, w, s.cfg.ALULatency)
	case isa.OpBarrier:
		st.Barriers++
		w.atBarrier = true
		w.tb.BarrierWait++
		if w.tb.BarrierWait == w.tb.LiveWarps {
			s.releaseBarrier(now, w.tb)
		}
		sch.last = nil
	case isa.OpLdGlobal:
		st.GlobalLoads++
		s.memIssues++
		done := s.globalAccess(now, w, in, lanes, mem.Read)
		if s.nextDepends(w) {
			w.readyAt = done
		} else {
			// Hit-under-miss: the warp keeps going; the MSHR is held
			// until the data returns.
			w.readyAt = now + s.cfg.IssueBackoff
		}
		s.advance(now, w)
	case isa.OpStGlobal:
		st.GlobalStores++
		s.memIssues++
		s.globalAccess(now, w, in, lanes, mem.Write)
		w.readyAt = now + s.cfg.WriteLatency // posted
		s.advance(now, w)
	}
}

// finishCompute applies result latency: the warp stalls for the full
// latency only if the next instruction consumes this result; otherwise it
// can re-issue after the pipeline backoff.
func (s *SM) finishCompute(now int64, w *Warp, lat int64) {
	if s.nextDepends(w) {
		w.readyAt = now + lat
	} else {
		w.readyAt = now + s.cfg.IssueBackoff
	}
	s.advance(now, w)
}

// nextDepends reports whether the instruction after w.pc depends on the
// current one (wrapping across the loop back-edge).
func (s *SM) nextDepends(w *Warp) bool {
	if w.pc+1 < len(w.body) {
		return w.body[w.pc+1].DependsOnPrev
	}
	if w.iter+1 >= w.kernel.Profile.Iterations {
		return false
	}
	nb := w.kernel.BodyFor(w.iter + 1)
	return nb[0].DependsOnPrev
}

// globalAccess performs the coalesced transactions of a global memory
// instruction and returns the completion time of the slowest one.
func (s *SM) globalAccess(now int64, w *Warp, in *isa.Instr, lanes int, kind mem.AccessKind) int64 {
	st := s.kernels[w.slot].stats
	// Scale transaction count with the active lanes.
	n := (int(in.Transactions)*lanes + s.cfg.WarpSize - 1) / s.cfg.WarpSize
	if n < 1 {
		n = 1
	}
	done := now + s.cfg.L1HitLatency
	missed := false
	for t := 0; t < n; t++ {
		addr := w.kernel.GlobalAddr(w.gid, w.iter, w.pc, t, in.Reuse)
		st.MemTxns++
		if kind == mem.Write {
			// Write-through, no-allocate: writes bypass the L1 tag
			// array and consume partition bandwidth (and a credit
			// until the write drains).
			c := s.memSys.Access(now, addr, mem.Write)
			s.holdTxn(w.slot, c)
			continue
		}
		st.L1Accesses++
		if s.l1.Access(addr) {
			continue // L1 hit at base latency
		}
		st.L1Misses++
		missed = true
		c := s.memSys.Access(now, addr, mem.Read)
		s.holdTxn(w.slot, c)
		if c > done {
			done = c
		}
	}
	if kind == mem.Read && missed {
		s.pushMiss(done)
	}
	return done
}

// advance moves the warp past its current instruction, handling the loop
// back-edge, phase changes, reconvergence and warp completion.
func (s *SM) advance(now int64, w *Warp) {
	w.pc++
	if w.pc < len(w.body) {
		return
	}
	w.pc = 0
	w.iter++
	if w.iter >= w.kernel.Profile.Iterations {
		s.warpDone(now, w)
		return
	}
	w.body = w.kernel.BodyFor(w.iter)
	w.activeLanes = s.cfg.WarpSize // reconverge at the back-edge
}

// releaseBarrier wakes every warp of tb waiting at the barrier. The wait
// counter is cleared before advancing warps: advance may retire a warp,
// and a stale counter could otherwise re-trigger the release.
func (s *SM) releaseBarrier(now int64, tb *TB) {
	tb.BarrierWait = 0
	for _, w := range tb.Warps {
		if !w.atBarrier {
			continue
		}
		w.atBarrier = false
		w.readyAt = now + s.cfg.BarrierLat
		s.advance(now, w)
		s.enqueue(&s.scheds[w.schedIdx], w, now)
	}
	s.Wake(now + s.cfg.BarrierLat)
}

// warpDone retires a warp, possibly releasing a barrier its siblings wait
// at, and retires the TB when the last warp finishes.
func (s *SM) warpDone(now int64, w *Warp) {
	w.done = true
	sch := &s.scheds[w.schedIdx]
	s.removeReady(sch, w)
	sch.deadCnt++
	if sch.deadCnt > 16 && sch.deadCnt > len(sch.warps)/2 {
		s.compact(sch)
	}
	tb := w.tb
	tb.LiveWarps--
	if tb.LiveWarps == 0 {
		s.retireTB(now, tb)
		return
	}
	if tb.BarrierWait > 0 && tb.BarrierWait == tb.LiveWarps {
		s.releaseBarrier(now, tb)
	}
}

// retireTB frees the TB's static resources and notifies the dispatcher.
func (s *SM) retireTB(now int64, tb *TB) {
	s.freeTB(now, tb)
	s.kernels[tb.Slot].stats.TBsCompleted++
	if s.OnTBComplete != nil {
		s.OnTBComplete(s.ID, tb.Slot)
	}
}

// freeTB removes tb from the resident list and releases its resources.
func (s *SM) freeTB(now int64, tb *TB) {
	r := tb.Kernel.TBResources()
	s.usedThreads -= r.Threads
	s.usedRegs -= r.RegBytes
	s.usedShm -= r.ShmBytes
	s.usedTBSlots--
	s.kernels[tb.Slot].tbs--
	if s.kernels[tb.Slot].tbs == 0 {
		s.residentKernels--
		s.refreshTxnCap()
		// A larger per-kernel credit budget can unblock other kernels'
		// credit-stalled warps; force a rescan.
		s.Wake(now)
	}
	for i, t := range s.tbs {
		if t == tb {
			s.tbs = append(s.tbs[:i], s.tbs[i+1:]...)
			break
		}
	}
}

// compact drops finished warps from a scheduler's list, preserving age
// order. The ready cache and wake heap drop their references lazily.
func (s *SM) compact(sch *scheduler) {
	out := sch.warps[:0]
	for _, w := range sch.warps {
		if !w.done {
			out = append(out, w)
		}
	}
	for i := len(out); i < len(sch.warps); i++ {
		sch.warps[i] = nil
	}
	sch.warps = out
	sch.deadCnt = 0
}

// refreshTxnCap recomputes the cached per-kernel in-flight transaction
// budget: the SM total split across resident kernels, floored so a
// kernel is never locked out entirely. Called whenever the resident
// kernel count changes instead of dividing on every structural check.
// A budget change can turn a recorded credit block stale, so the
// structural-block memo is invalidated here too.
func (s *SM) refreshTxnCap() {
	n := s.residentKernels
	if n < 1 {
		n = 1
	}
	c := s.cfg.TxnFlightCapPerSM / n
	if c < 8 {
		c = 8
	}
	s.txnCapCache = c
	s.structEpoch++
}

// holdTxn charges one of the slot's in-flight transaction credits until
// time t.
func (s *SM) holdTxn(slot int, t int64) {
	pushHeap(&s.txnHeap[slot], t)
	s.txnFlight[slot]++
	s.txnTotal++
}

// ---- MSHR / credit min-heaps ----

func (s *SM) pushMiss(t int64) {
	pushHeap(&s.missHeap, t)
	s.outstanding++
}

func (s *SM) popMiss() {
	popHeap(&s.missHeap)
	s.outstanding--
}

// pushHeap inserts t into the min-heap h.
func pushHeap(h *[]int64, t int64) {
	a := append(*h, t)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

// popHeap removes the minimum of the min-heap h.
func popHeap(h *[]int64) {
	a := *h
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && a[l] < a[small] {
			small = l
		}
		if r < n && a[r] < a[small] {
			small = r
		}
		if small == i {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	*h = a
}

// Op classes mirrored into ready-cache entries, so the scan's
// structural-block memo can classify an entry without dereferencing the
// warp context. The class describes the warp's *next* instruction; it is
// refreshed wherever readyAt is (insert and post-issue).
const (
	clsCompute  = uint8(iota) // no SM-wide structural constraint
	clsLdGlobal               // port + MSHR + credit constrained
	clsStGlobal               // port + credit constrained
)

// opClass maps an opcode to its scan class.
func opClass(op isa.Op) uint8 {
	switch op {
	case isa.OpLdGlobal:
		return clsLdGlobal
	case isa.OpStGlobal:
		return clsStGlobal
	}
	return clsCompute
}

// readyEnt is one ready-cache entry: the warp plus mirrored slot, age,
// wake-time and op-class fields, so scan skip decisions read this
// contiguous slice instead of dereferencing scattered warp contexts.
// The mirrors are exact: every path that changes the warp's readyAt or
// advances its pc while the entry is cached refreshes them.
type readyEnt struct {
	w       *Warp
	age     int64
	readyAt int64
	slot    int32
	cls     uint8
}

// ---- wake-time min-heap (warp pointer payload) ----

// wakeEnt is one sleeping warp and the cycle its readyAt passes. Entries
// can go stale (the warp finished or was preempted while asleep); the
// pop loop in pick validates against the warp's live state.
type wakeEnt struct {
	at int64
	w  *Warp
}

// pushWake inserts e into the min-heap h (ordered by wake time).
func pushWake(h *[]wakeEnt, e wakeEnt) {
	a := append(*h, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].at <= a[i].at {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

// popWake removes the minimum of the min-heap h.
func popWake(h *[]wakeEnt) {
	a := *h
	n := len(a) - 1
	a[0] = a[n]
	a[n] = wakeEnt{}
	a = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && a[l].at < a[small].at {
			small = l
		}
		if r < n && a[r].at < a[small].at {
			small = r
		}
		if small == i {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	*h = a
}
