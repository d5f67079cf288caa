// Package sm models one streaming multiprocessor at cycle granularity:
// warp contexts, GTO (greedy-then-oldest) warp schedulers, barriers,
// MSHR-limited global memory access through a private L1, static resource
// accounting for thread blocks, and the quota gate that makes the warp
// scheduler QoS-aware (the paper's Enhanced Warp Scheduler, Section 3.3).
//
// A TB's warp contexts are one block of at most 64 bytes each, which the
// SM's store hands to a later TB once no scheduler list holds its warps.
// The SM is deliberately single-threaded, and its issue path allocates
// only when a heap grows past the largest it has been: a rebuilt SM (New
// with its previous instance) keeps its heaps, lists and store, so a
// session's co-runs grow them only beyond earlier runs' high-water mark.
// A whole-GPU cycle advances every SM in a deterministic order.
package sm

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
)

// QuotaGate is the interface between the Enhanced Warp Scheduler and the
// QoS manager. A nil gate means unmanaged sharing (every issue allowed).
// Kernels are identified by their runtime slot (index into the co-run).
type QuotaGate interface {
	// CanIssue reports whether the scheduler may issue an instruction
	// of the kernel in the given slot on the given SM this cycle.
	CanIssue(smID, slot int) bool
	// OnIssue informs the gate that threadInstrs thread-instructions of
	// the kernel were just issued on the SM.
	OnIssue(smID, slot int, threadInstrs int)
}

// Warp is one warp context, at most 64 bytes (a cache line): the kernel and
// gid derive from tb, and each narrowed field is bounded where its input
// arrives (config.GPU.Validate, kern.Profile.Validate, Decode).
type Warp struct {
	body     []decoded
	tb       *TB
	readyAt  int64
	divState uint64 // per-warp divergence stream
	pc, iter int32

	lane        uint8 // index in tb.Warps
	activeLanes uint8
	slot        uint8
	schedIdx    uint8 // owning scheduler index
	pos         uint8 // index in the scheduler's warp list = bit in its masks
	atBarrier   bool
	done        bool
}

// gid is the warp's stable global id: grid TB index * warps per TB + lane.
func (w *Warp) gid() uint64 { return uint64(w.tb.GridIdx)*uint64(len(w.tb.Warps)) + uint64(w.lane) }

// WarpState is the architectural state saved by a partial context switch.
type WarpState struct {
	PC          int
	Iter        int
	ActiveLanes int
	AtBarrier   bool
	Done        bool
	DivState    uint64
}

// TB is one resident thread block, at most 64 bytes. Its warp contexts
// are one block, which the SM's store hands to a later TB once no
// scheduler list holds any of them.
type TB struct {
	Kernel  *kern.Kernel
	Slot    int
	GridIdx int

	Warps       []Warp
	LiveWarps   int32
	BarrierWait int32
	refs        int32 // listed warps, plus one while resident; 0 = in the store
}

// TBContext is the saved state of a preempted thread block, sufficient to
// resume it on any SM later (partial context switch, Section 3.6). It is
// valid until Dispatch resumes it: an SM with a Contexts store then
// hands the context back for a later PreemptTB to overwrite.
type TBContext struct {
	Kernel  *kern.Kernel
	Slot    int
	GridIdx int
	Warps   []WarpState
}

// kernelState tracks per-kernel residency on this SM.
type kernelState struct {
	*Program
	stats *metrics.KernelStats
	byOp  [isa.OpBranch + 1]*int64 // by isa.Op: the stats counter an issue bumps
	tbs   int
	cap   int // max TBs of this kernel on this SM; <0 = unlimited
}

// maskBits is the width of a scheduler's masks, one bit per entry of its
// warp list; config.GPU.Validate bounds MaxWarpsPerSM by the same number.
const maskBits = 64

// wheelSlots is the maturity wheel's horizon in cycles. It covers every
// fixed pipeline latency of the base configuration (the longest, an L1
// hit, is 28), so only memory misses and deferred restores reach the
// wake heap.
const wheelSlots = 32

// scheduler is one GTO warp scheduler, kept as bit masks over warps: the
// list is append-only and in dispatch order, so a lower bit is an older
// warp and "oldest issuable" is one TrailingZeros. The invariant to hold
// on to is where a warp is filed. A live warp that is not at a barrier
// is in exactly one of
//
//   - ready: readyAt <= drained, the cycle the masks were last brought
//     up to date;
//   - wheel[readyAt&31]: drained < readyAt < drained+32, with the
//     bucket's bit set in occupied;
//   - wakeQ: anything further out, as an entry tagged with the warp's
//     position whose time equals readyAt (other entries naming the warp
//     are stale and dropped on arrival).
//
// A warp at a barrier or finished is in none. Who moves a warp: file and
// unfile put it in and take it out (dispatch, barrier release, DeferTB,
// retirement and preemption); the step in SM.cycle takes its winner out of
// ready and files it again under its new readyAt — in place when the
// decoded instruction says which bucket, else through execute and file;
// drain (one bucket of it inline in the step) moves matured warps into
// ready; compact renumbers. The rest classify: ld / st hold the filed
// warps whose next instruction is a global load / store, slots[k] every
// live warp of kernel slot k, at a barrier or not, and gated those of the
// slots the quota gate denies — SM.refreshGate's, as fresh as gateOK, and
// free to keep a dead warp's bit until compact.
//
// last is the greedy target as a mask bit, the last issuer's (0 = none):
// the step sets it, a barrier and drop clear it, compact squeezes it with
// the other masks. nextWake and structSleep are SM.arbitrate's, which the
// step calls when no compute instruction is the oldest candidate. wakeQ's
// earliest time is cached in wakeQ.top, which timeHeap's push and pop keep
// (as for the SM's completion heap, done).
type scheduler struct {
	// What a cycle reads first sits together, ahead of the wheel.
	nextWake    int64  // earliest cycle a step can possibly issue
	drained     int64  // cycle ready and wheel are exact for
	ready       uint64 // can issue as far as latency goes
	gated       uint64 // warps of the slots the quota gate denies
	ld, st      uint64 // next instruction is a global load / store
	last        uint64 // greedy target: no bit, or a live warp's
	occupied    uint32 // bit i set iff wheel[i] != 0
	structSleep bool   // sleeping on an MSHR/credit block; pops rouse it

	wakeQ   timeHeap // warps maturing beyond the horizon, by position
	warps   []*Warp  // every assigned warp, age order; bit i of a mask is warps[i]
	slots   []uint64 // per kernel slot: its live warps
	deadCnt int      // finished warps still in the list

	wheel [wheelSlots]uint64 // warps maturing within the horizon, by readyAt&31
}

// SM is one streaming multiprocessor.
type SM struct {
	ID  int
	cfg config.GPU

	memSys *mem.System
	l1     *cache.Cache
	gate   QuotaGate
	tracer *trace.Tracer // nil when tracing is off; every emit is nil-safe

	scheds  []scheduler
	nextSch int // round-robin warp placement cursor

	tbs     []*TB
	free    []*TB // the store: TBs whose blocks Dispatch may reuse
	kernels []kernelState

	// Static resource accounting.
	usedThreads int
	usedRegs    int
	usedShm     int
	usedTBSlots int

	// Completion times of everything in flight: tag 0 is an outstanding
	// load miss (it holds an MSHR), tag slot+1 one of that kernel slot's
	// 128B transactions. Every entry due in a cycle is popped before any
	// scheduler runs and a pop only decrements its counter, so the order
	// among equal times does not matter.
	done        timeHeap
	outstanding int // load misses in flight (MSHR occupancy)

	// Credit-based memory flow control: every in-flight 128B transaction
	// this SM has injected (loads and posted stores) is counted per
	// kernel slot. When a kernel's budget is spent, its new global-memory
	// instructions stall at issue — heavy requesters self-limit instead
	// of freezing the whole chip, and the budget is partitioned per
	// resident kernel (as SMK partitions other within-SM resources) so a
	// streaming kernel cannot starve a co-resident kernel's occasional
	// requests.
	txnFlight       []int
	txnTotal        int // in-flight transactions across all kernels
	residentKernels int // slots with at least one resident TB
	txnCapCache     int // per-kernel credit budget; tracks residentKernels

	// Per-cycle issue limits and cached per-cycle state.
	memIssues int
	gateOK    []bool // per-slot CanIssue result, valid until gateDirty

	// Quota-gate cache. CanIssue is a pure function of the gate's
	// per-SM counters, and every mutation that can flip its result for
	// this SM (a counter crossing zero on issue, a replenish or epoch
	// refresh, a gate swap, residency changes) wakes the SM — so the
	// per-slot results are recomputed only when gateDirty is set instead
	// of per cycle. gatedResident mirrors the slots with !gateOK and
	// resident TBs: their warps are the schedulers' gated masks, and they
	// are charged a ThrottledCycle per unblocked cycle.
	gateDirty     bool
	gatedResident []int32

	// That charge is lazy: idleSkips counts the unblocked cycles since the
	// last settlement, stepped or skipped, and SettleIdle adds them to
	// gatedResident's counters before the set changes or stats are read.
	// When a cycle issues nothing every scheduler's nextWake is in the
	// future, and the SM skips whole cycles until idleUntil, their minimum.
	idleUntil int64
	idleSkips int64

	// Preallocated scratch for SampleIdleWarps.
	sampleScratch []int

	// The SM is unavailable (draining for a spatial repartition or busy
	// with context movement) until this cycle.
	BlockedUntil int64

	// OnTBComplete, if set, is invoked when a TB retires; the GPU-level
	// TB scheduler uses it to dispatch follow-on work.
	OnTBComplete func(smID int, slot int)
	// Contexts, if set, is a store of context storage the SMs of a GPU
	// share: PreemptTB takes the context it saves into from it, and
	// Dispatch returns the one it resumed. Unset, each save allocates.
	Contexts *[]*TBContext
}

// New builds an SM running the co-run's kernels, decoded for this SM's
// configuration (Decode), with their GPU-wide stats sinks; slot order must
// match across all SMs of the GPU. A non-nil prev is rebuilt in place:
// every TB it still holds goes to the store, and its lists, heaps and
// per-kernel state are reused where large enough. Install a quota gate
// with SetGate.
func New(id int, cfg config.GPU, memSys *mem.System, kernels []*Program, stats []*metrics.KernelStats, prev *SM) *SM {
	if len(kernels) != len(stats) {
		panic("sm: kernels and stats length mismatch")
	}
	if prev == nil {
		prev = new(SM)
	}
	for i := range prev.scheds {
		for _, w := range prev.scheds[i].warps {
			prev.unref(w.tb)
		}
	}
	for _, tb := range prev.tbs {
		prev.unref(tb)
	}
	n := len(kernels)
	scheds := slices.Grow(prev.scheds[:0], cfg.WarpSchedulers)[:cfg.WarpSchedulers]
	for i := range scheds {
		sch := &scheds[i]
		*sch = scheduler{warps: sch.warps[:0], slots: append(sch.slots[:0], make([]uint64, n)...), wakeQ: timeHeap{top: noWake, q: sch.wakeQ.q[:0]}}
	}
	*prev = SM{
		ID:            id,
		cfg:           cfg,
		memSys:        memSys,
		l1:            cache.New(cfg.L1, 0, prev.l1),
		scheds:        scheds,
		tbs:           prev.tbs[:0],
		free:          prev.free,
		kernels:       append(prev.kernels[:0], make([]kernelState, n)...),
		done:          timeHeap{top: noWake, q: prev.done.q[:0]},
		txnFlight:     append(prev.txnFlight[:0], make([]int, n)...),
		gateOK:        append(prev.gateOK[:0], make([]bool, n)...),
		gateDirty:     true,
		gatedResident: slices.Grow(prev.gatedResident[:0], n),
		sampleScratch: append(prev.sampleScratch[:0], make([]int, n)...),
	}
	for i, st := range stats {
		prev.kernels[i] = kernelState{Program: kernels[i], stats: st, cap: -1, byOp: [...]*int64{
			isa.OpIAlu: &st.ALUInstrs, isa.OpFAlu: &st.ALUInstrs, isa.OpSFU: &st.SFUInstrs,
			isa.OpLdGlobal: &st.GlobalLoads, isa.OpStGlobal: &st.GlobalStores,
			isa.OpLdShared: &st.SharedInstrs, isa.OpStShared: &st.SharedInstrs,
			isa.OpBarrier: &st.Barriers, isa.OpBranch: &st.Branches,
		}}
	}
	prev.refreshTxnCap()
	return prev
}

// SetGate replaces the quota gate, leaving caps and residency intact.
// Scheduler sleep caches are cleared: a new gate can make previously
// quota-denied warps issuable immediately.
func (s *SM) SetGate(gate QuotaGate) {
	s.SettleIdle()
	s.idleUntil = 0
	s.gate = gate
	s.gateDirty = true
	for i := range s.scheds {
		s.scheds[i].nextWake = 0
	}
}

// SetTracer attaches the observability tracer (nil turns tracing off).
func (s *SM) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// SetTBCap sets the per-SM thread-block cap for a kernel slot (<0 removes
// the cap). The static resource manager drives this.
func (s *SM) SetTBCap(slot, cap int) { s.kernels[slot].cap = cap }

// TBCap returns the current cap for the slot.
func (s *SM) TBCap(slot int) int { return s.kernels[slot].cap }

// ResidentTBs returns how many TBs of the slot this SM currently hosts.
func (s *SM) ResidentTBs(slot int) int { return s.kernels[slot].tbs }

// FreeFor reports whether the SM has the static resources to host one
// more TB of the slot's kernel, honouring the per-kernel cap.
func (s *SM) FreeFor(slot int) bool {
	ks := &s.kernels[slot]
	return (ks.cap < 0 || ks.tbs < ks.cap) && s.RoomWithoutCap(slot)
}

// RoomWithoutCap reports whether raw resources (ignoring the cap) can host
// one more TB of the kernel. The static adjuster uses it to decide whether
// raising a cap needs a victim.
func (s *SM) RoomWithoutCap(slot int) bool {
	r := s.kernels[slot].kernel.TBResources()
	return s.usedThreads+r.Threads <= s.cfg.MaxThreadsPerSM &&
		s.usedRegs+r.RegBytes <= s.cfg.RegFileBytes &&
		s.usedShm+r.ShmBytes <= s.cfg.SharedMemBytes &&
		s.usedTBSlots+1 <= s.cfg.MaxTBsPerSM
}

// FreeThreads returns unused thread contexts on this SM.
func (s *SM) FreeThreads() int { return s.cfg.MaxThreadsPerSM - s.usedThreads }

// FreeRegBytes returns unused register-file bytes on this SM.
func (s *SM) FreeRegBytes() int { return s.cfg.RegFileBytes - s.usedRegs }

// FreeShmBytes returns unused shared-memory bytes on this SM.
func (s *SM) FreeShmBytes() int { return s.cfg.SharedMemBytes - s.usedShm }

// FreeTBSlots returns unused thread-block slots on this SM.
func (s *SM) FreeTBSlots() int { return s.cfg.MaxTBsPerSM - s.usedTBSlots }

// Dispatch places one TB of the slot's kernel on this SM, optionally
// resuming a previously preempted context. It panics if FreeFor is false;
// callers are expected to check admission first. The TB and its warp
// block come from the store when it has one large enough, so once the
// store and the lists have grown to peak residency it allocates nothing.
func (s *SM) Dispatch(now int64, slot, gridIdx int, resume *TBContext) *TB {
	if !s.FreeFor(slot) {
		panic(fmt.Sprintf("sm%d: dispatch without room for slot %d", s.ID, slot))
	}
	s.SettleIdle()
	s.idleUntil = 0
	// Residency is about to change, and with it the throttled-resident
	// set: ThrottledCycles attribution and the gated masks.
	s.gateDirty = true
	ks := &s.kernels[slot]
	k := ks.kernel
	r := k.TBResources()
	s.usedThreads += r.Threads
	s.usedRegs += r.RegBytes
	s.usedShm += r.ShmBytes
	s.usedTBSlots++
	ks.tbs++
	if ks.tbs == 1 {
		s.residentKernels++
		s.refreshTxnCap()
	}
	ks.stats.TBsDispatched++
	if resume != nil {
		s.tracer.TBRestore(now, s.ID, slot, gridIdx)
	} else {
		s.tracer.TBDispatch(now, s.ID, slot, gridIdx)
	}

	if len(s.free) == 0 {
		s.free = append(s.free, new(TB))
	}
	tb := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	*tb = TB{Kernel: k, Slot: slot, GridIdx: gridIdx, Warps: resize(tb.Warps, k.WarpsPerTB()), refs: 1}
	for i := range tb.Warps {
		w := &tb.Warps[i]
		*w = Warp{tb: tb, readyAt: now, lane: uint8(i), activeLanes: uint8(s.cfg.WarpSize), slot: uint8(slot), schedIdx: uint8(s.nextSch)}
		w.divState = rng.Mix(uint64(k.ID)<<20, w.gid())
		if resume != nil {
			st := resume.Warps[i]
			w.pc, w.iter = int32(st.PC), int32(st.Iter)
			w.activeLanes = uint8(st.ActiveLanes)
			w.atBarrier = st.AtBarrier
			w.done = st.Done
			w.divState = st.DivState
			if w.atBarrier {
				tb.BarrierWait++
			}
		}
		w.body = ks.bodyFor(int(w.iter))
		sch := &s.scheds[s.nextSch]
		s.nextSch = (s.nextSch + 1) % len(s.scheds)
		if sch.nextWake > now {
			sch.nextWake = now
		}
		if w.done {
			// Finished before the TB was saved: it keeps its place in
			// the placement rotation and never schedules.
			continue
		}
		tb.LiveWarps++
		tb.refs++
		if len(sch.warps) == maskBits {
			s.compact(sch)
			if len(sch.warps) == maskBits {
				panic(fmt.Sprintf("sm%d: scheduler %d already holds %d live warps, one per mask bit "+
					"(unreachable with 32-thread warps: config.GPU.Validate bounds MaxWarpsPerSM by %d)",
					s.ID, w.schedIdx, maskBits, maskBits))
			}
		}
		w.pos = uint8(len(sch.warps))
		sch.warps = append(sch.warps, w)
		sch.slots[slot] |= 1 << w.pos
		if !w.atBarrier {
			sch.file(w)
		}
	}
	if resume != nil && s.Contexts != nil {
		*s.Contexts = append(*s.Contexts, resume)
	}
	s.tbs = append(s.tbs, tb)
	// A resumed TB that was saved exactly at a barrier boundary may be
	// immediately releasable.
	if tb.LiveWarps > 0 && tb.BarrierWait == tb.LiveWarps {
		s.releaseBarrier(now, tb)
	}
	if tb.LiveWarps == 0 {
		// Degenerate resume: every warp had already finished.
		s.retireTB(now, tb)
	}
	return tb
}

// resize returns s with length n, in place when it has the capacity, else
// fresh and without copying s: the caller overwrites every element.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// DeferTB postpones the first issue of every warp in tb until the given
// cycle; the dispatcher uses this to charge context-restore latency. A
// filed warp is taken out under its old readyAt and filed again under the
// new one: ready must never hold a warp whose time has not come.
func (s *SM) DeferTB(tb *TB, until int64) {
	for i := range tb.Warps {
		w := &tb.Warps[i]
		if w.done || w.readyAt >= until {
			continue
		}
		sch := &s.scheds[w.schedIdx]
		sch.unfile(w)
		w.readyAt = until
		if !w.atBarrier {
			sch.file(w)
		}
	}
}

// Wake clears scheduler sleep caches so the next cycle rescans; the QoS
// manager calls this when quotas are replenished.
func (s *SM) Wake(now int64) {
	s.SettleIdle()
	s.idleUntil = 0
	s.gateDirty = true
	for i := range s.scheds {
		if s.scheds[i].nextWake > now {
			s.scheds[i].nextWake = now
		}
	}
}

// NextEventAt returns the first cycle >= a at which Cycle would do real
// work: the SM is past both its blocked window (drain/context movement)
// and its idle window. Cycles before it are no-ops apart from idle-skip
// counting, which CreditIdle reproduces; the GPU's event wheel uses the
// pair to fast-forward stretches where every SM sleeps.
func (s *SM) NextEventAt(a int64) int64 {
	t := s.BlockedUntil
	if s.idleUntil > t {
		t = s.idleUntil
	}
	if t < a {
		return a
	}
	return t
}

// CreditIdle accounts the cycles in [from, to) the event wheel skipped
// for this SM exactly as per-cycle stepping would have: one idle skip for
// every cycle at/after BlockedUntil but before idleUntil (blocked cycles
// return before idle counting; active cycles cannot be inside a skipped
// stretch — NextEventAt bounds it).
func (s *SM) CreditIdle(from, to int64) {
	if s.BlockedUntil > from {
		from = s.BlockedUntil
	}
	if s.idleUntil < to {
		to = s.idleUntil
	}
	if to > from {
		s.idleSkips += to - from
	}
}
