package sm

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
)

// noWake is the "no wake pending" sentinel in scan results: later than
// any reachable cycle, so any real wake time replaces it under min.
const noWake = int64(1) << 62

// Cycle advances the SM by one cycle. It is kept small enough to inline
// into the GPU's sweeps (make inline-check): a cycle inside the idle window
// — every scheduler asleep past it, no tracked event due — costs a compare
// and a counter, not a call. SettleIdle accounts for the skipped cycles.
func (s *SM) Cycle(now int64) {
	if now < s.idleUntil && now >= s.BlockedUntil {
		s.idleSkips++
		return
	}
	s.cycle(now)
}

// cycle retires completed load misses, then lets each awake warp scheduler
// issue at most one warp instruction: GTO with the quota gate in front, as
// a priority encoder over the scheduler's masks (bit order is age order)
// that reads no warp context before the winner's.
func (s *SM) cycle(now int64) {
	if now < s.BlockedUntil {
		return
	}
	if now >= s.done.top {
		// Release MSHRs whose misses completed and transaction credits
		// whose requests drained.
		for s.done.top <= now {
			if tag := s.done.pop(); tag == 0 {
				s.outstanding--
			} else {
				s.txnFlight[tag-1]--
				s.txnTotal--
			}
		}
		// A freed MSHR or transaction credit can unblock a structurally
		// stalled scheduler; wake those sleepers for this cycle's scan.
		// (Completion times are not monotonic in issue order, so a sleep
		// time computed from heap tops at scan time could overshoot —
		// waking at pop time is exact.)
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
	s.idleSkips++ // this cycle's ThrottledCycles, charged like an idle skip's

	issued := false
	for i := range s.scheds {
		sch := &s.scheds[i]
		if now < sch.nextWake {
			continue
		}
		// Bring ready up to date; the usual case is one cycle on with
		// nothing due in the heap, which is this cycle's bucket.
		if now-sch.drained == 1 && sch.wakeQ.top > now {
			b := now & (wheelSlots - 1)
			sch.ready |= sch.wheel[b]
			sch.wheel[b] = 0
			sch.occupied &^= 1 << b
			sch.drained = now
		} else {
			sch.drain(now)
		}
		cand := sch.ready &^ sch.gated
		// Greedy reuse applies to compute instructions only: letting the
		// last-issued warp snatch scarce memory-side resources (ports,
		// MSHRs, transaction credits) ahead of older warps starves sparse
		// memory requesters behind a streaming kernel indefinitely. Memory
		// instructions always arbitrate age-ordered.
		compute := cand &^ (sch.ld | sch.st)
		win := sch.last & compute
		if win == 0 {
			// Else the oldest candidate, outright if it is a compute
			// instruction: structural blocks only ever strike memory warps.
			if win = cand & -cand & compute; win == 0 {
				if win = s.arbitrate(now, sch, cand); win == 0 {
					continue
				}
			}
		}
		// The winner came out of ready, so no bucket holds it: its mask bits
		// are cleared in place, and it is filed again once under its new
		// readyAt and next instruction.
		w := sch.warps[bits.TrailingZeros64(win)]
		sch.ready &^= win
		sch.ld &^= win
		sch.st &^= win
		in := &w.body[w.pc]
		lanes := int(w.activeLanes)
		ks := &s.kernels[w.slot]
		st := ks.stats
		st.WarpInstrs++
		st.ThreadInstrs += int64(lanes)
		st.NoteIssue(now)
		*ks.byOp[in.Op]++
		if s.gate != nil {
			s.gate.OnIssue(s.ID, int(w.slot), lanes)
		}
		sch.last = win
		issued = true
		if in.delay == 0 {
			s.execute(now, sch, w, in, lanes)
			continue
		}
		// The masks are drained to now and 1 <= delay < wheelSlots: the warp
		// belongs in a bucket, and its successor is in the same body.
		w.readyAt = now + in.delay
		w.pc++
		sch.ld |= win & w.body[w.pc].ld
		sch.st |= win & w.body[w.pc].st
		b := w.readyAt & (wheelSlots - 1)
		sch.wheel[b] |= win
		sch.occupied |= 1 << b
	}
	if issued {
		return
	}
	// Nothing issued and every scheduler set a wake time in the future: the
	// SM can sleep until the earliest of them. Any asynchronous enabler
	// (quota replenishment, dispatch, barrier release, TB retirement raising
	// the credit budget) ends the window via Wake/Dispatch. Completion-heap
	// events must still fire on time: a pop releases an MSHR or credit
	// (rousing structural sleepers) and keeps the occupancy counters current.
	idle := s.done.top
	for i := range s.scheds {
		idle = min(idle, s.scheds[i].nextWake)
	}
	s.idleUntil = idle
}

// refreshGate recomputes the cached gate results: gateOK per slot and each
// scheduler's gated, the warps of the denied slots. Called only when
// gateDirty (a quota event, gate swap or residency change since the last
// refresh), never per cycle: every mutation that can change CanIssue's
// answer for this SM wakes it, so a clean cache is exact. Nothing is moved
// when a slot closes or reopens; its warps stay filed where they are.
// Cycles not yet charged are settled first, against the set they ran under.
// Newly denied slots trace the stall edge as a per-cycle recomputation would.
func (s *SM) refreshGate(now int64) {
	s.SettleIdle()
	s.gateDirty = false
	s.gatedResident = s.gatedResident[:0]
	for i := range s.scheds {
		s.scheds[i].gated = 0
	}
	for slot := range s.kernels {
		ok := s.gate == nil || s.gate.CanIssue(s.ID, slot)
		if !ok && s.kernels[slot].tbs > 0 {
			s.gatedResident = append(s.gatedResident, int32(slot))
			for i := range s.scheds {
				s.scheds[i].gated |= s.scheds[i].slots[slot]
			}
			if s.gateOK[slot] {
				// Transition into quota-denied: trace the edge, not
				// every throttled cycle.
				s.tracer.GateStall(now, s.ID, slot, -1)
			}
		}
		s.gateOK[slot] = ok
	}
}

// SettleIdle folds the cycles since the last settlement, stepped and
// skipped alike, into the per-kernel quota throttle counters. The gated set
// changes only in refreshGate, which settles first, so one bulk add per
// slot is exact. The GPU settles before a run returns, and so must whatever
// reads ThrottledCycles in between.
func (s *SM) SettleIdle() {
	for _, slot := range s.gatedResident {
		s.kernels[slot].stats.ThrottledCycles += s.idleSkips
	}
	s.idleSkips = 0
}

// arbitrate finishes the step when the oldest candidate is a global load or
// store, or there is none: it strikes the structurally blocked instruction
// classes and returns the oldest survivor's bit. When nothing can issue it
// returns 0 and leaves the earliest cycle worth another look in nextWake.
func (s *SM) arbitrate(now int64, sch *scheduler, cand uint64) uint64 {
	memOps := sch.ld | sch.st
	// Structural blocks are read straight from SM state, first failing
	// cause first (ports, then MSHRs, then credits), and strike a whole
	// class at once: within a cycle occupancy only grows, so what blocks
	// one warp of a class blocks every warp of it.
	portBlocked, structBlocked := false, false
	if blocked := cand & memOps; blocked != 0 {
		if s.memIssues >= s.cfg.MemPortsPerSM {
			cand &^= memOps
			portBlocked = true
		} else {
			if s.outstanding >= s.cfg.MSHRsPerSM {
				cand &^= sch.ld
			}
			// Credit-based flow control with a guaranteed minimum per
			// resident kernel: a kernel past its guaranteed share may
			// still borrow while the SM's total budget has slack (work
			// conserving), but under full contention every kernel keeps
			// its share — a streaming kernel can neither starve a
			// co-resident kernel nor strand credits it does not use.
			if s.txnTotal >= s.cfg.TxnFlightCapPerSM {
				for slot, inFlight := range s.txnFlight {
					if inFlight >= s.txnCapCache {
						cand &^= memOps & sch.slots[slot]
					}
				}
			}
			structBlocked = blocked&^cand != 0
		}
	}
	if cand != 0 {
		return cand & -cand
	}
	// Nothing can issue. Port conflicts clear when the per-cycle issue
	// counter resets, so retry next cycle. Otherwise sleep until the next
	// waiting warp matures — the next occupied bucket or the heap top
	// (a stale top only costs an early look). MSHR and credit blocks
	// clear only at a completion-heap pop (or a budget raise, which calls
	// Wake): the pop loop in cycle rouses structural sleepers the cycle a
	// slot actually frees. A quota-denied slot reopens through Wake.
	if portBlocked {
		sch.nextWake = now + 1
		sch.structSleep = false
		return 0
	}
	next := noWake
	if sch.occupied != 0 {
		// Bucket (now+1+j)&31 lands on bit j after the rotation.
		next = now + 1 + int64(bits.TrailingZeros32(bits.RotateLeft32(sch.occupied, -int(now+1)&(wheelSlots-1))))
	}
	sch.nextWake = min(next, sch.wakeQ.top)
	sch.structSleep = structBlocked
	return 0
}

// drain brings the scheduler's masks up to cycle now: every warp whose
// readyAt has arrived moves from its wheel bucket or the wake heap into
// ready. Buckets are emptied one by one for the cycles since the last
// drain, or all at once after a sleep as long as the wheel.
func (sch *scheduler) drain(now int64) {
	n := now - sch.drained
	if n <= 0 {
		return
	}
	if due := sch.occupied; due != 0 {
		if n < wheelSlots {
			// The n buckets after the one last drained.
			due &= bits.RotateLeft32(uint32(1)<<n-1, int(sch.drained+1)&(wheelSlots-1))
		}
		sch.occupied &^= due
		for ; due != 0; due &= due - 1 {
			i := bits.TrailingZeros32(due)
			sch.ready |= sch.wheel[i]
			sch.wheel[i] = 0
		}
	}
	sch.drained = now
	for at := sch.wakeQ.top; at <= now; at = sch.wakeQ.top {
		// An entry outlives its warp's retirement or preemption, and a
		// deferred warp (DeferTB) was filed again under its later time:
		// only the entry that still names the warp's readyAt counts.
		if w := sch.warps[sch.wakeQ.pop()]; !w.done && !w.atBarrier && w.readyAt == at {
			sch.ready |= 1 << w.pos
		}
	}
}

// file records a live warp that is not at a barrier in the place its
// readyAt calls for — ready, a wheel bucket, or the wake heap — and the
// class of its next instruction in ld / st.
func (sch *scheduler) file(w *Warp) {
	bit := uint64(1) << w.pos
	sch.ld |= bit & w.body[w.pc].ld
	sch.st |= bit & w.body[w.pc].st
	switch ahead := w.readyAt - sch.drained; {
	case ahead <= 0:
		sch.ready |= bit
	case ahead < wheelSlots:
		i := w.readyAt & (wheelSlots - 1)
		sch.wheel[i] |= bit
		sch.occupied |= 1 << i
	default:
		sch.wakeQ.push(w.readyAt, int(w.pos))
	}
}

// unfile clears w from ready, its bucket and the class masks. It must
// run before readyAt changes (the bucket is found by it). A wake-heap
// entry cannot be withdrawn; drain drops it when it surfaces.
func (sch *scheduler) unfile(w *Warp) {
	bit := uint64(1) << w.pos
	sch.ready &^= bit
	sch.ld &^= bit
	sch.st &^= bit
	i := w.readyAt & (wheelSlots - 1)
	if sch.wheel[i] &^= bit; sch.wheel[i] == 0 {
		sch.occupied &^= 1 << i
	}
}

// drop removes a warp that just finished or was preempted from every
// mask of its scheduler and compacts the list once it is mostly dead.
func (s *SM) drop(w *Warp) {
	sch := &s.scheds[w.schedIdx]
	sch.unfile(w)
	sch.slots[w.slot] &^= 1 << w.pos
	sch.last &^= 1 << w.pos
	sch.deadCnt++
	if sch.deadCnt > 16 && sch.deadCnt > len(sch.warps)/2 {
		s.compact(sch)
	}
}

// execute is what issuing does to a warp when the instruction has no decoded
// delay: global memory, barriers, divergence, the loop back-edge. The step
// cleared the warp's mask bits; execute files it again, unless it finished
// or stopped at a barrier on the way.
func (s *SM) execute(now int64, sch *scheduler, w *Warp, in *decoded, lanes int) {
	switch in.Op {
	case isa.OpBarrier:
		w.atBarrier = true
		w.tb.BarrierWait++
		if w.tb.BarrierWait == w.tb.LiveWarps {
			s.releaseBarrier(now, w.tb)
		}
		sch.last = 0
		return // the barrier release files it
	case isa.OpLdGlobal:
		s.memIssues++
		w.readyAt = s.globalAccess(now, w, in, lanes, mem.Read)
		if !s.nextDepends(w) {
			// Hit-under-miss: the warp keeps going; the MSHR is held
			// until the data returns.
			w.readyAt = now + s.cfg.IssueBackoff
		}
	case isa.OpStGlobal:
		s.memIssues++
		s.globalAccess(now, w, in, lanes, mem.Write)
		w.readyAt = now + s.cfg.WriteLatency // posted
	default:
		if in.Divergent {
			// Divergence idles a deterministic per-warp fraction of
			// lanes until reconvergence at the loop back-edge.
			w.divState = rng.Hash64(w.divState)
			u := float64(w.divState>>11) / (1 << 53) // [0,1)
			frac := w.tb.Kernel.Profile.DivergenceFrac * 2 * u
			drop := int(frac * float64(s.cfg.WarpSize))
			if drop >= int(w.activeLanes) {
				drop = int(w.activeLanes) - 1
			}
			if drop > 0 {
				w.activeLanes -= uint8(drop)
			}
		}
		// Result latency: the warp stalls for all of it only if the next
		// instruction consumes this result; otherwise it can re-issue
		// after the pipeline backoff.
		w.readyAt = now + s.cfg.IssueBackoff
		if s.nextDepends(w) {
			w.readyAt = now + latency(&s.cfg, in.Op)
		}
	}
	s.advance(now, w)
	if !w.done {
		sch.file(w)
	}
}

// nextDepends reports whether the instruction after w.pc depends on the
// current one (wrapping across the loop back-edge).
func (s *SM) nextDepends(w *Warp) bool {
	if int(w.pc)+1 < len(w.body) {
		return w.body[w.pc+1].DependsOnPrev
	}
	next := s.kernels[w.slot].bodyFor(int(w.iter) + 1)
	return int(w.iter)+1 < w.tb.Kernel.Profile.Iterations && next[0].DependsOnPrev
}

// globalAccess performs the coalesced transactions of a global memory
// instruction and returns the completion time of the slowest one.
func (s *SM) globalAccess(now int64, w *Warp, in *decoded, lanes int, kind mem.AccessKind) int64 {
	st := s.kernels[w.slot].stats
	// Scale transaction count with the active lanes.
	n := (int(in.Transactions)*lanes + s.cfg.WarpSize - 1) / s.cfg.WarpSize
	if n < 1 {
		n = 1
	}
	done := now + s.cfg.L1HitLatency
	missed := false
	for t := 0; t < n; t++ {
		addr := w.tb.Kernel.GlobalAddr(w.gid(), int(w.iter), int(w.pc), t, in.Reuse)
		st.MemTxns++
		if kind == mem.Write {
			// Write-through, no-allocate: writes bypass the L1 tag
			// array and consume partition bandwidth (and a credit
			// until the write drains).
			c := s.memSys.Access(now, addr, mem.Write)
			s.holdTxn(int(w.slot), c)
			continue
		}
		st.L1Accesses++
		if s.l1.Access(addr) {
			continue // L1 hit at base latency
		}
		st.L1Misses++
		missed = true
		c := s.memSys.Access(now, addr, mem.Read)
		s.holdTxn(int(w.slot), c)
		if c > done {
			done = c
		}
	}
	if kind == mem.Read && missed {
		s.done.push(done, 0)
		s.outstanding++
	}
	return done
}

// advance moves the warp past its current instruction, handling the loop
// back-edge, phase changes, reconvergence and warp completion.
func (s *SM) advance(now int64, w *Warp) {
	w.pc++
	if int(w.pc) < len(w.body) {
		return
	}
	w.pc = 0
	w.iter++
	if int(w.iter) >= w.tb.Kernel.Profile.Iterations {
		s.warpDone(now, w)
		return
	}
	w.body = s.kernels[w.slot].bodyFor(int(w.iter))
	w.activeLanes = uint8(s.cfg.WarpSize) // reconverge at the back-edge
}

// releaseBarrier wakes every warp of tb waiting at the barrier. The wait
// counter is cleared before advancing warps: advance may retire a warp,
// and a stale counter could otherwise re-trigger the release.
func (s *SM) releaseBarrier(now int64, tb *TB) {
	tb.BarrierWait = 0
	for i := range tb.Warps {
		w := &tb.Warps[i]
		if !w.atBarrier {
			continue
		}
		w.atBarrier = false
		w.readyAt = now + s.cfg.BarrierLat
		s.advance(now, w)
		if !w.done {
			s.scheds[w.schedIdx].file(w)
		}
	}
	s.Wake(now + s.cfg.BarrierLat)
}

// warpDone retires a warp, possibly releasing a barrier its siblings wait
// at, and retires the TB when the last warp finishes.
func (s *SM) warpDone(now int64, w *Warp) {
	w.done = true
	s.drop(w)
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
	s.unref(tb)
}

// unref drops one reference to tb: its residency or one listed warp. The
// last one puts it in the store, where Dispatch may hand its block to a
// new TB.
func (s *SM) unref(tb *TB) {
	if tb.refs--; tb.refs == 0 {
		s.free = append(s.free, tb)
	}
}

// compact drops finished warps from a scheduler's list, preserving age
// order, and with each the reference its TB counts for it. Survivors are
// renumbered, so every mask is squeezed the same way and the wake heap is
// rebuilt from the entries that name a survivor.
func (s *SM) compact(sch *scheduler) {
	var live uint64
	out := sch.warps[:0]
	for i, w := range sch.warps {
		if w.done {
			s.unref(w.tb)
			continue
		}
		live |= 1 << i
		w.pos = uint8(len(out))
		out = append(out, w)
	}
	for i := len(out); i < len(sch.warps); i++ {
		sch.warps[i] = nil
	}
	sch.warps = out
	sch.deadCnt = 0
	sch.ready = squeeze(sch.ready, live)
	sch.last = squeeze(sch.last, live)
	sch.ld = squeeze(sch.ld, live)
	sch.st = squeeze(sch.st, live)
	sch.gated = squeeze(sch.gated, live)
	for i := range sch.slots {
		sch.slots[i] = squeeze(sch.slots[i], live)
	}
	for occ := sch.occupied; occ != 0; occ &= occ - 1 {
		i := bits.TrailingZeros32(occ)
		sch.wheel[i] = squeeze(sch.wheel[i], live)
	}
	q := sch.wakeQ.q
	sch.wakeQ = timeHeap{top: noWake, q: q[:0]}
	for _, e := range q {
		if p := uint(e & tagMask); live>>p&1 != 0 {
			sch.wakeQ.push(e>>tagBits, bits.OnesCount64(live&(1<<p-1)))
		}
	}
}

// squeeze gathers the bits of m at the positions set in keep into the low
// bits of the result, in order: what compaction does to a warp list, done
// to a mask over it.
func squeeze(m, keep uint64) uint64 {
	var out uint64
	for n := 0; m != 0 && keep != 0; n++ {
		low := keep & -keep
		if m&low != 0 {
			out |= 1 << n
			m &^= low
		}
		keep &^= low
	}
	return out
}

// refreshTxnCap recomputes the cached per-kernel in-flight transaction
// budget: the SM total split across resident kernels, floored so a
// kernel is never locked out entirely. Called whenever the resident
// kernel count changes instead of dividing on every structural check.
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
}

// holdTxn charges one of the slot's in-flight transaction credits until
// time t.
func (s *SM) holdTxn(slot int, t int64) {
	s.done.push(t, slot+1)
	s.txnFlight[slot]++
	s.txnTotal++
}

// ---- min-heaps of times ----

// tagBits is the width of the tag a timeHeap entry carries beside its time.
const (
	tagBits = 8
	tagMask = 1<<tagBits - 1
)

// timeHeap is a min-heap of time<<tagBits | tag entries that keeps the
// earliest time where checking it costs no more than a compare.
type timeHeap struct {
	top int64 // time of q[0]; noWake when empty
	q   []int64
}

func (h *timeHeap) push(t int64, tag int) {
	pushHeap(&h.q, t<<tagBits|int64(tag))
	h.top = min(h.top, t)
}

// pop removes the earliest entry and returns its tag.
func (h *timeHeap) pop() int {
	tag := int(h.q[0] & tagMask)
	popHeap(&h.q)
	h.top = noWake
	if len(h.q) > 0 {
		h.top = h.q[0] >> tagBits
	}
	return tag
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
