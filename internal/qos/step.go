package qos

// slotIn is what one slot's finished epoch measured, as step reads it.
type slotIn struct {
	instrs int64   // thread instructions executed in the epoch
	dur    int64   // the epoch's duration in cycles (Elastic ends epochs early)
	hist   float64 // active-window IPC, the paper's IPChistory

	// The quota counters at the epoch's end, summed over SMs: leftover
	// is their sum (what quota_consumed reports), surplus and debt pool
	// their positive and negative parts.
	leftover, surplus, debt float64
}

// step is the paper's epoch boundary (Sections 3.4 and 3.5) as
// arithmetic. From the finished epoch in[slot] it updates each non-QoS
// slot's artificial goal and each QoS slot's α, then grants every slot
// its next quota and carry. opts must be resolved. It reads no device
// and emits nothing: the Manager gathers in, emits what step decided and
// splits it across SMs.
func step(scheme Scheme, opts Options, epochLen int64, peakIPC float64, in []slotIn, st []slotState) {
	for slot := range st {
		sl := &st[slot]
		if sl.isQoS {
			continue
		}
		// The artificial goal (Section 3.5) follows how completely each
		// QoS kernel drained its allowance (quota plus carry): one that
		// could not is squeezed by interference and the goal scales down;
		// one that did is scheme-throttled. This is the paper's
		// IPCepoch/(α·IPCgoal) factor with the carry in the denominator,
		// which keeps the repayment margin Rollover relies on; it counts
		// raw instructions so shortened elastic epochs compare correctly,
		// and an EWMA keeps one bursty epoch from whipsawing the search.
		factor := 1.0
		for q, qs := range st {
			if !qs.isQoS || qs.allowance <= 0 {
				continue
			}
			f := float64(in[q].instrs) / qs.allowance
			if f > 0.995 {
				f = 1
			}
			factor *= f
		}
		next := float64(in[slot].instrs) / float64(in[slot].dur) * factor
		next = min(max(next, opts.NonQoSInitIPC), peakIPC)
		sl.nonQoSGoal = float64(0.5*sl.nonQoSGoal) + float64(0.5*next) // rounded, never fused: make arch-check
	}
	// History adjustment (Section 3.4.2): α = max(IPCgoal/IPChistory, 1),
	// capped. IPChistory is the active-window IPC: a kernel held off the
	// SMs by a relaunch gate or a pending context restore would otherwise
	// be judged on cycles it could not issue in.
	for q := range st {
		sl := &st[q]
		if !sl.isQoS {
			continue
		}
		sl.alpha = 1
		if scheme.historyAdjusted() && !opts.DisableHistory {
			if hist := in[q].hist; hist > 0 {
				sl.alpha = min(max(sl.goal/hist, 1), opts.AlphaCap)
			} else {
				sl.alpha = opts.AlphaCap
			}
		}
	}
	grant(scheme, opts, epochLen, in, st)
}

// grant sets each slot's quota for the next epoch (Section 3.4.1) and the
// carry its scheme keeps of in's pooled leftovers. The paper's quotas
// are kernel-level, the per-SM split only their distribution, so carry
// is pooled GPU-wide: Rollover keeps a QoS kernel's unused quota
// (Figure 4c), Elastic carries every kernel's debt (Figure 4b), and
// Naive discards both. Pooling also keeps a slow SM from hoarding quota
// that faster SMs could have consumed.
func grant(scheme Scheme, opts Options, epochLen int64, in []slotIn, st []slotState) {
	for slot := range st {
		sl := &st[slot]
		if sl.isQoS {
			sl.quota = sl.alpha * sl.goal * float64(epochLen) * (1 + opts.QuotaMargin)
		} else {
			sl.quota = sl.nonQoSGoal * float64(epochLen)
		}
		switch {
		case scheme == Elastic:
			sl.carry = in[slot].debt
		case (scheme == Rollover || scheme == RolloverTime) && sl.isQoS:
			sl.carry = in[slot].surplus
		default:
			sl.carry = 0
		}
		// At most one quota carries, so an unreachable goal cannot bank
		// unlimited allowance.
		sl.carry = min(sl.carry, sl.quota)
		sl.allowance = sl.quota + sl.carry
	}
}
