// Package trace is the simulator's observability layer: a low-overhead,
// allocation-conscious event tracer plus a counter/gauge registry that
// every simulation layer (internal/gpu, internal/sm, internal/qos,
// internal/spart) emits into. It turns the epoch-driven control loops of
// the paper — quota refresh, history adjustment, elastic epochs, rollover
// carry, idle-warp-driven TB re-allocation — into inspectable artifacts:
// a run records *what the QoS Manager actually did* (every grant, carry,
// α factor, preemption and stall), exportable as JSONL or as a Chrome
// `trace_event` file that chrome://tracing and Perfetto load directly.
//
// Tracing is off by default and costs near zero when off: a nil *Tracer
// is the one off state, and every emit helper is a method on *Tracer that
// is nil-safe and returns immediately on nil, so the hot path pays one
// pointer test per (rare) emit site and no allocation ever. Events are
// fixed-size structs collected into a ring buffer that grows as events
// arrive, up to the capacity New sets, and only then wraps: the oldest
// events are dropped and counted, never reallocated.
//
// A Tracer is intentionally not synchronized: one simulation (one
// gpu.GPU) owns one Tracer, matching the simulator's single-threaded
// cycle loop. The parallel sweep engine gives every case its own Tracer,
// so concurrent sweeps never share one (enforced by a race-detector test
// in internal/exp).
package trace

import "slices"

// Kind identifies the event type. The zero value is reserved so a
// forgotten Kind is visible in exports.
type Kind uint8

const (
	// kindInvalid marks an unset event kind.
	kindInvalid Kind = iota

	// --- per-epoch events (device-wide control decisions) ---

	// KindEpochRoll closes one kernel's epoch: A = thread instructions
	// executed during the epoch, B = resident TBs at the boundary.
	KindEpochRoll
	// KindQuotaGrant is the per-epoch quota allocation of a slot:
	// A = quota (thread instrs), B = α in force.
	KindQuotaGrant
	// KindQuotaCarry reports quota carried across an epoch boundary:
	// A = carry (positive: rollover credit, negative: elastic debt),
	// B = resulting allowance (quota + carry).
	KindQuotaCarry
	// KindQuotaConsumed reports how much of the previous allowance the
	// slot actually consumed: A = consumed thread instrs, B = leftover.
	KindQuotaConsumed
	// KindAlpha records a history-adjustment update: A = new α,
	// B = previous α.
	KindAlpha
	// KindElasticEpoch marks an elastic early epoch start (Section
	// 3.4.3): A = epoch length actually used (cycles).
	KindElasticEpoch
	// KindReplenish marks a mid-epoch non-QoS top-up (Section 3.4.1):
	// A = share granted on the SM.
	KindReplenish
	// KindArtificialGoal records the searched non-QoS IPC goal
	// (Section 3.5): A = new goal, B = previous goal.
	KindArtificialGoal
	// KindGoalCheck records per-epoch goal attainment of a QoS slot:
	// A = measured active-window IPC, B = goal IPC.
	KindGoalCheck

	// --- per-SM events (mechanism-level actions) ---

	// KindTBDispatch places a fresh TB: A = grid index.
	KindTBDispatch
	// KindTBRestore resumes a preempted TB context: A = grid index.
	KindTBRestore
	// KindTBPreempt saves one TB for later resumption: A = grid index,
	// B = context bytes moved.
	KindTBPreempt
	// KindGateStall marks a slot transitioning to quota-denied on an SM
	// (the Enhanced Warp Scheduler withholding issue): A = local
	// counter value at the transition.
	KindGateStall
	// KindSMDrain drains a whole SM for spatial repartitioning:
	// A = TBs drained, B = context bytes moved.
	KindSMDrain
	// KindTBAdjust is a static-management TB re-allocation decision
	// (Section 3.6): A = new cap, B = previous cap.
	KindTBAdjust
	// KindSMMove reassigns an SM between kernels (spatial baseline):
	// A = receiving slot.
	KindSMMove

	// --- run-level events ---

	// KindKernelRelaunch marks a drained kernel re-executing
	// (Section 4.1): A = launch count so far.
	KindKernelRelaunch

	kindCount // number of kinds; keep last
)

// String returns the canonical event name used by both exporters.
func (k Kind) String() string {
	switch k {
	case KindEpochRoll:
		return "epoch_roll"
	case KindQuotaGrant:
		return "quota_grant"
	case KindQuotaCarry:
		return "quota_carry"
	case KindQuotaConsumed:
		return "quota_consumed"
	case KindAlpha:
		return "alpha"
	case KindElasticEpoch:
		return "elastic_epoch"
	case KindReplenish:
		return "replenish"
	case KindArtificialGoal:
		return "artificial_goal"
	case KindGoalCheck:
		return "goal_check"
	case KindTBDispatch:
		return "tb_dispatch"
	case KindTBRestore:
		return "tb_restore"
	case KindTBPreempt:
		return "tb_preempt"
	case KindGateStall:
		return "gate_stall"
	case KindSMDrain:
		return "sm_drain"
	case KindTBAdjust:
		return "tb_adjust"
	case KindSMMove:
		return "sm_move"
	case KindKernelRelaunch:
		return "kernel_relaunch"
	}
	return "invalid"
}

// Event is one fixed-size trace record. SM and Slot are -1 when the
// event is device-wide or not slot-specific; Epoch is the epoch index in
// force when the event fired. A and B are kind-specific payloads
// (documented per Kind).
type Event struct {
	Cycle int64
	Kind  Kind
	SM    int16
	Slot  int16
	Epoch int32
	A, B  float64
}

// Tracer collects events into a bounded ring buffer and owns a counter
// registry. Make one with New; the nil *Tracer is the disabled
// collector: every method is nil-safe, so emit sites never test for
// tracing themselves.
type Tracer struct {
	ring    []Event // appended to until it holds size events, then overwritten in place
	size    int     // the ring's capacity
	next    int     // oldest event once the ring is full: the next to overwrite; 0 before
	dropped int64   // events overwritten after the ring filled
	epoch   int32   // current epoch index, stamped into events

	reg Registry
}

// DefaultRingSize is the default event capacity. The ring grows to it
// only as events arrive (~40 bytes each), so a run that records few
// events pays for few; a full ring is ~2.6 MB.
const DefaultRingSize = 1 << 16

// New returns a Tracer whose ring holds at most ringSize events (<=0
// means DefaultRingSize); it allocates none of them yet.
func New(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{size: ringSize}
}

// Enabled reports whether emits are collected: whether t is not nil.
func (t *Tracer) Enabled() bool { return t != nil }

// SetEpoch stamps subsequent events with the given epoch index. The GPU
// loop calls this at every epoch roll. Nil-safe.
func (t *Tracer) SetEpoch(epoch int) {
	if t != nil {
		t.epoch = int32(epoch)
	}
}

// emit is the internal fast path shared by the typed helpers.
func (t *Tracer) emit(cycle int64, kind Kind, sm, slot int, a, b float64) {
	if t == nil {
		return
	}
	ev := Event{Cycle: cycle, Kind: kind, SM: int16(sm), Slot: int16(slot), Epoch: t.epoch, A: a, B: b}
	if len(t.ring) < t.size {
		t.ring = append(t.ring, ev)
		return
	}
	t.dropped++ // overwriting the oldest event
	t.ring[t.next] = ev
	if t.next++; t.next == t.size {
		t.next = 0
	}
}

// Typed emit helpers — one per Kind, so call sites stay readable and the
// no-op path is a single nil test with no argument boxing.

// EpochRoll records one kernel slot's closed epoch.
func (t *Tracer) EpochRoll(cycle int64, slot int, instrs int64, tbsHeld int) {
	t.emit(cycle, KindEpochRoll, -1, slot, float64(instrs), float64(tbsHeld))
}

// QuotaGrant records a slot's per-epoch quota and the α in force.
func (t *Tracer) QuotaGrant(cycle int64, slot int, quota, alpha float64) {
	t.emit(cycle, KindQuotaGrant, -1, slot, quota, alpha)
}

// QuotaCarry records carry across an epoch boundary and the resulting
// allowance.
func (t *Tracer) QuotaCarry(cycle int64, slot int, carry, allowance float64) {
	t.emit(cycle, KindQuotaCarry, -1, slot, carry, allowance)
}

// QuotaConsumed records how much of the previous allowance was consumed.
func (t *Tracer) QuotaConsumed(cycle int64, slot int, consumed, leftover float64) {
	t.emit(cycle, KindQuotaConsumed, -1, slot, consumed, leftover)
}

// Alpha records a history-adjustment update.
func (t *Tracer) Alpha(cycle int64, slot int, alpha, prev float64) {
	t.emit(cycle, KindAlpha, -1, slot, alpha, prev)
}

// ElasticEpoch records an elastic early epoch start.
func (t *Tracer) ElasticEpoch(cycle int64, epochLen int64) {
	t.emit(cycle, KindElasticEpoch, -1, -1, float64(epochLen), 0)
}

// Replenish records a mid-epoch non-QoS top-up on one SM.
func (t *Tracer) Replenish(cycle int64, smID, slot int, share float64) {
	t.emit(cycle, KindReplenish, smID, slot, share, 0)
}

// ArtificialGoal records the searched non-QoS IPC goal.
func (t *Tracer) ArtificialGoal(cycle int64, slot int, goal, prev float64) {
	t.emit(cycle, KindArtificialGoal, -1, slot, goal, prev)
}

// GoalCheck records per-epoch goal attainment of a QoS slot.
func (t *Tracer) GoalCheck(cycle int64, slot int, ipc, goal float64) {
	t.emit(cycle, KindGoalCheck, -1, slot, ipc, goal)
}

// TBDispatch records a fresh TB placement.
func (t *Tracer) TBDispatch(cycle int64, smID, slot, gridIdx int) {
	t.emit(cycle, KindTBDispatch, smID, slot, float64(gridIdx), 0)
}

// TBRestore records a preempted context resuming.
func (t *Tracer) TBRestore(cycle int64, smID, slot, gridIdx int) {
	t.emit(cycle, KindTBRestore, smID, slot, float64(gridIdx), 0)
}

// TBPreempt records one TB being saved for later resumption.
func (t *Tracer) TBPreempt(cycle int64, smID, slot, gridIdx, ctxBytes int) {
	t.emit(cycle, KindTBPreempt, smID, slot, float64(gridIdx), float64(ctxBytes))
}

// GateStall records a slot transitioning to quota-denied on an SM.
func (t *Tracer) GateStall(cycle int64, smID, slot int, counter float64) {
	t.emit(cycle, KindGateStall, smID, slot, counter, 0)
}

// SMDrain records a whole-SM drain for spatial repartitioning.
func (t *Tracer) SMDrain(cycle int64, smID, tbs, ctxBytes int) {
	t.emit(cycle, KindSMDrain, smID, -1, float64(tbs), float64(ctxBytes))
}

// TBAdjust records a static-management cap change on one SM.
func (t *Tracer) TBAdjust(cycle int64, smID, slot, newCap, oldCap int) {
	t.emit(cycle, KindTBAdjust, smID, slot, float64(newCap), float64(oldCap))
}

// SMMove records an SM changing owner under the spatial baseline.
func (t *Tracer) SMMove(cycle int64, smID, recvSlot int) {
	t.emit(cycle, KindSMMove, smID, recvSlot, 0, 0)
}

// KernelRelaunch records a drained kernel re-executing.
func (t *Tracer) KernelRelaunch(cycle int64, slot int, launches int64) {
	t.emit(cycle, KindKernelRelaunch, -1, slot, float64(launches), 0)
}

// Events returns the buffered events in emission order (oldest first).
// Nil-safe: a nil tracer returns nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return slices.Concat(t.ring[t.next:], t.ring[:t.next])
}

// Len returns the number of buffered events. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Dropped returns how many events were overwritten after the ring
// wrapped. Nil-safe.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Registry returns the tracer's counter/gauge registry, or nil for a nil
// tracer (the registry's methods are themselves nil-safe).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return &t.reg
}
