// Package gpu assembles the simulated device: the SMs, the memory system,
// the preemption engine, and the (enhanced) thread-block scheduler that
// implements the three sharing modes the paper compares:
//
//   - isolated execution (one kernel owns the whole GPU),
//   - fine-grained sharing (SMK-style: kernels co-reside within SMs,
//     subject to per-SM, per-kernel TB caps — Figure 2c), and
//   - spatial partitioning (each SM owned by one kernel — Figure 2b).
//
// A Controller (the QoS manager or the Spart hill climber) observes the
// run through per-cycle and per-epoch hooks and steers TB caps, SM masks
// and the warp schedulers' quota gate.
package gpu

import (
	"fmt"
	"slices"

	"repro/internal/config"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/preempt"
	"repro/internal/sm"
	"repro/internal/trace"
)

// Controller steers a running GPU. Implementations: qos.Manager,
// spart.Controller, or nil for unmanaged sharing.
type Controller interface {
	// OnCycle runs every cycle before SM issue; keep it cheap.
	OnCycle(now int64)
	// OnEpoch runs at fixed epoch boundaries (cfg.EpochLength), after
	// per-kernel epoch counters have been rolled.
	OnEpoch(now int64)
	// NextControlEvent lets the event-wheel stepper skip cycles: it
	// returns the earliest cycle >= now at which OnCycle could do
	// anything other than return immediately (NoEvent when no such cycle
	// is scheduled), under the promise that the GPU state the answer
	// depends on does not change during a skipped stretch — every SM is
	// idle, so no instruction issues and no counter moves.
	NextControlEvent(now int64) int64
}

// NoEvent is the sentinel an event source returns when it has nothing
// scheduled: no cycle at or after the queried one needs its attention.
// It is far beyond any reachable cycle count.
const NoEvent = int64(1) << 62

// GPU is one simulated device executing a fixed co-run of kernels.
type GPU struct {
	Cfg    config.GPU
	SMs    []*sm.SM
	Mem    *mem.System
	Engine *preempt.Engine

	Kernels []*kern.Kernel
	Stats   []*metrics.KernelStats

	controller Controller
	gate       sm.QuotaGate

	// Observability (nil-safe; nil when tracing is off).
	tracer        *trace.Tracer
	cEpochs       *trace.Counter // scheduled epoch rolls
	cForcedEpochs *trace.Counter // controller-forced (elastic) rolls

	// masks[slot][smID]: whether the kernel may hold TBs on the SM.
	masks [][]bool

	// Per-kernel launch state.
	nextGridIdx  []int             // next fresh TB of the current launch
	outstanding  []int             // dispatched but not yet completed TBs
	savedCtxs    [][]*sm.TBContext // preempted contexts awaiting resume
	ctxReadyAt   [][]int64         // earliest start for each saved context
	launchGateAt []int64           // relaunch delay gate

	// Idle-warp sampling accumulators (smID x slot).
	idleAcc     [][]int64
	idleSamples int64

	needDispatch bool
	Now          int64
	epochIdx     int

	// Event-wheel stepping (see run.go). wheelOff selects the per-cycle
	// reference loop the equivalence tests compare against (the per-SM
	// idle fast path inside sm.Cycle stays on). lastDispatchAt records
	// the cycle of the last TB-scheduler invocation, so the wheel knows
	// whether a pending kernel-relaunch gate crossing has been serviced
	// yet.
	wheelOff       bool
	lastDispatchAt int64
	// WheelJumps / WheelSkipped count the wheel's forward jumps and the
	// total cycles they fast-forwarded over; purely observational (the
	// equivalence tests use them to prove a run actually exercised
	// skipping, and experiment reports quote them).
	WheelJumps   int64
	WheelSkipped int64

	// nextEpochAt is the cycle of the next scheduled epoch roll. Epochs
	// are tracked as a moving deadline rather than `now % EpochLength`:
	// a controller that restarts an epoch early (Elastic, Section 3.4.3)
	// calls ForceEpochRoll, which rolls the counters *and* pushes the
	// deadline out a full epoch — so a forced roll and the fixed modulo
	// can never both fire for the same interval (the double-roll bug
	// that mis-attributed instructions to the wrong epoch).
	nextEpochAt int64
}

// New builds a GPU for the configuration and co-running kernels. The
// returned GPU has every kernel allowed on every SM (fine-grained default)
// with no TB caps and no controller; use the setters before RunCtx.
func New(cfg config.GPU, kernels []*kern.Kernel) (*GPU, error) { return Rebuild(nil, cfg, kernels) }

// Rebuild is New over prev's storage: a nil prev builds a fresh device,
// any other is rebuilt in place for the new co-run, exactly as New would
// build it, reusing its buffers, caches and TB store wherever they are
// large enough. Whatever the caller still reads of prev's last run (Now,
// Stats, IPC) must be read first. On error prev is left as it was.
func Rebuild(prev *GPU, cfg config.GPU, kernels []*kern.Kernel) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(kernels) == 0 {
		return nil, fmt.Errorf("gpu: need at least one kernel")
	}
	progs, err := sm.Decode(cfg, kernels)
	if err != nil {
		return nil, err
	}
	g := prev
	if g == nil {
		g = new(GPU)
	}
	n := len(kernels)
	stats := keep(g.Stats, n)
	for i, st := range stats {
		if st == nil {
			stats[i] = new(metrics.KernelStats)
		}
		*stats[i] = metrics.KernelStats{Launches: 1}
	}
	memSys := mem.New(cfg, g.Mem)
	sms := keep(g.SMs, cfg.NumSMs)
	for i := range sms {
		sms[i] = sm.New(i, cfg, memSys, progs, stats, sms[i])
		sms[i].OnTBComplete = g.onTBComplete
	}
	masks, savedCtxs, ctxReadyAt := keep(g.masks, n), keep(g.savedCtxs, n), keep(g.ctxReadyAt, n)
	for slot := range masks {
		masks[slot] = append(masks[slot][:0], make([]bool, cfg.NumSMs)...)
		for i := range masks[slot] {
			masks[slot][i] = true
		}
		savedCtxs[slot], ctxReadyAt[slot] = savedCtxs[slot][:0], ctxReadyAt[slot][:0]
	}
	idleAcc := keep(g.idleAcc, cfg.NumSMs)
	for i := range idleAcc {
		idleAcc[i] = append(idleAcc[i][:0], make([]int64, n)...)
	}
	*g = GPU{
		Cfg:            cfg,
		SMs:            sms,
		Mem:            memSys,
		Engine:         preempt.New(cfg, g.Engine),
		Kernels:        kernels,
		Stats:          stats,
		masks:          masks,
		nextGridIdx:    append(g.nextGridIdx[:0], make([]int, n)...),
		outstanding:    append(g.outstanding[:0], make([]int, n)...),
		savedCtxs:      savedCtxs,
		ctxReadyAt:     ctxReadyAt,
		launchGateAt:   append(g.launchGateAt[:0], make([]int64, n)...),
		idleAcc:        idleAcc,
		needDispatch:   true,
		lastDispatchAt: -1,
		nextEpochAt:    cfg.EpochLength,
	}
	return g, nil
}

// keep returns s resized to n, with every element within its capacity
// kept and any beyond it zero.
func keep[S ~[]E, E any](s S, n int) S { return slices.Grow(s[:0], n)[:n] }

// SetController installs the run controller (may be nil).
func (g *GPU) SetController(c Controller) { g.controller = c }

// SetEventWheel enables or disables event-wheel stepping (the default is
// on). Wheel runs are bit-identical to per-cycle runs; off is the
// reference oracle the equivalence tests prove that claim against.
func (g *GPU) SetEventWheel(on bool) { g.wheelOff = !on }

// SetTracer attaches the observability tracer to the device and every SM
// (nil detaches). Controllers read it back via Tracer.
func (g *GPU) SetTracer(tr *trace.Tracer) {
	g.tracer = tr
	g.cEpochs = tr.Registry().Counter("epochs")
	g.cForcedEpochs = tr.Registry().Counter("epochs_forced")
	for _, s := range g.SMs {
		s.SetTracer(tr)
	}
}

// Tracer returns the attached tracer (possibly nil).
func (g *GPU) Tracer() *trace.Tracer { return g.tracer }

// SetGate installs the warp schedulers' quota gate on every SM without
// disturbing TB caps or residency.
func (g *GPU) SetGate(gate sm.QuotaGate) {
	g.gate = gate
	for _, s := range g.SMs {
		s.SetGate(gate)
	}
}

// SetMask restricts a kernel slot to the given SM set.
func (g *GPU) SetMask(slot int, allowed []bool) {
	if len(allowed) != g.Cfg.NumSMs {
		panic("gpu: mask length mismatch")
	}
	copy(g.masks[slot], allowed)
	g.needDispatch = true
}

// Allowed reports whether slot may hold TBs on smID.
func (g *GPU) Allowed(slot, smID int) bool { return g.masks[slot][smID] }

// TotalResidentTBs returns the kernel's TB count across all SMs.
func (g *GPU) TotalResidentTBs(slot int) int {
	n := 0
	for _, s := range g.SMs {
		n += s.ResidentTBs(slot)
	}
	return n
}

// RequestDispatch asks the TB scheduler to run at the next opportunity
// (controllers call this after changing caps or masks).
func (g *GPU) RequestDispatch() { g.needDispatch = true }

// onTBComplete is the SM completion callback.
func (g *GPU) onTBComplete(smID, slot int) {
	g.outstanding[slot]--
	g.needDispatch = true
	// Relaunch the kernel when the grid fully drains (Section 4.1: a
	// benchmark ending before the measurement window is re-executed).
	if g.outstanding[slot] == 0 &&
		g.nextGridIdx[slot] >= g.Kernels[slot].Profile.GridTBs &&
		len(g.savedCtxs[slot]) == 0 {
		g.nextGridIdx[slot] = 0
		g.launchGateAt[slot] = g.Now + g.Cfg.KernelLaunchDelay
		g.Stats[slot].Launches++
		g.tracer.KernelRelaunch(g.Now, slot, g.Stats[slot].Launches)
	}
}

// PreemptOneTB saves one TB of slot on smID for later resumption and
// charges the context-move cost. It reports whether a TB was preempted.
func (g *GPU) PreemptOneTB(now int64, smID, slot int) bool {
	ctx, bytes, ok := g.SMs[smID].PreemptTB(now, slot)
	if !ok {
		return false
	}
	doneAt := g.Engine.BeginSwap(now, smID, bytes)
	g.savedCtxs[slot] = append(g.savedCtxs[slot], ctx)
	g.ctxReadyAt[slot] = append(g.ctxReadyAt[slot], doneAt)
	g.outstanding[slot]--
	g.needDispatch = true
	return true
}

// DrainSM preempts every TB on smID (spatial repartitioning) and blocks
// the SM for the drain penalty. Saved contexts resume elsewhere.
func (g *GPU) DrainSM(now int64, smID int) {
	s := g.SMs[smID]
	ctxs, bytes := s.DrainAll(now)
	doneAt := g.Engine.BeginDrain(now, smID, bytes)
	s.BlockedUntil = doneAt
	for _, ctx := range ctxs {
		g.savedCtxs[ctx.Slot] = append(g.savedCtxs[ctx.Slot], ctx)
		g.ctxReadyAt[ctx.Slot] = append(g.ctxReadyAt[ctx.Slot], doneAt)
		g.outstanding[ctx.Slot]--
	}
	g.needDispatch = true
}

// dispatch runs the enhanced TB scheduler: it balances TBs of each kernel
// across its allowed SMs (symmetric allocation, Section 3.6), resuming
// saved contexts first. One TB is placed per kernel per round so sharer
// kernels interleave fairly.
func (g *GPU) dispatch(now int64) {
	g.needDispatch = false
	g.lastDispatchAt = now
	progress := true
	for progress {
		progress = false
		for slot := range g.Kernels {
			if !g.hasWork(now, slot) {
				continue
			}
			smID := g.pickSM(slot)
			if smID < 0 {
				continue
			}
			g.placeTB(now, smID, slot)
			progress = true
		}
	}
}

// hasWork reports whether slot has a TB ready to place at now. Saved
// contexts are always placeable — their warps simply start once the
// context restore completes (deferred start).
func (g *GPU) hasWork(now int64, slot int) bool {
	if len(g.savedCtxs[slot]) > 0 {
		return true
	}
	return g.nextGridIdx[slot] < g.Kernels[slot].Profile.GridTBs && now >= g.launchGateAt[slot]
}

// pickSM returns the allowed, admitting SM with the fewest TBs of slot
// (balanced placement), or -1.
func (g *GPU) pickSM(slot int) int {
	best, bestTBs := -1, 1<<30
	for i, s := range g.SMs {
		if !g.masks[slot][i] || !s.FreeFor(slot) {
			continue
		}
		if n := s.ResidentTBs(slot); n < bestTBs {
			best, bestTBs = i, n
		}
	}
	return best
}

// placeTB dispatches one TB of slot onto smID, resuming a saved context
// when one is pending (restore cost defers the warps' first issue).
func (g *GPU) placeTB(now int64, smID, slot int) {
	s := g.SMs[smID]
	if len(g.savedCtxs[slot]) > 0 {
		ctx := g.savedCtxs[slot][0]
		readyAt := g.ctxReadyAt[slot][0]
		g.savedCtxs[slot] = g.savedCtxs[slot][1:]
		g.ctxReadyAt[slot] = g.ctxReadyAt[slot][1:]
		restoreDone := g.Engine.BeginSwap(now, smID, ctx.Kernel.TBResources().CtxBytes)
		if readyAt > restoreDone {
			restoreDone = readyAt
		}
		tb := s.Dispatch(now, slot, ctx.GridIdx, ctx)
		s.DeferTB(tb, restoreDone)
		g.outstanding[slot]++
		return
	}
	idx := g.nextGridIdx[slot]
	g.nextGridIdx[slot]++
	s.Dispatch(now, slot, idx, nil)
	g.outstanding[slot]++
}
