package gpu

import "context"

// RunCtx advances the GPU for the given number of cycles, driving the TB
// scheduler, the SMs, idle-warp sampling and the controller hooks. It can
// be called repeatedly to extend a simulation. Cancellation is
// cooperative: the context is checked once per quota epoch (the natural
// consistency point — counters have just been rolled and the controller
// consulted), so a cancel mid-window returns within one epoch of
// simulated work rather than after the full window. When the context
// carries a deadline — the sweep engine's per-case timeout — it is
// additionally polled at every idle-warp sample boundary, so a case that
// stops making progress (for example an epoch whose simulated work
// degenerates) is reaped at sub-epoch granularity instead of pinning its
// worker slot for a whole epoch. It returns the context's error when
// canceled, nil otherwise.
func (g *GPU) RunCtx(ctx context.Context, cycles int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	// SMs batch ThrottledCycles attribution while idle-skipping; settle
	// before control returns so results read a consistent snapshot.
	defer func() {
		for _, s := range g.SMs {
			s.SettleIdle()
		}
	}()
	_, deadlined := ctx.Deadline()
	end := g.Now + cycles
	sampleEvery := g.Cfg.EpochLength / int64(g.Cfg.IdleWarpSamples)
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	// Event-wheel stepping: after each processed cycle the loop asks
	// every event source for its next interesting cycle and jumps
	// straight there when that is in the future.
	wheel := !g.wheelOff
	for g.Now < end {
		now := g.Now
		// The TB scheduler runs when work completed or controllers
		// changed allocation; the periodic fallback picks up launch
		// gates and context-restore completions.
		if g.needDispatch || now%64 == 0 {
			g.dispatch(now)
		}
		// Rotate the SM service order every cycle: memory backpressure is
		// evaluated at issue time, so a fixed order would hand the
		// whole under-cap admission budget to the lowest-numbered SMs
		// every cycle and starve the rest. The modulo must happen in
		// int64: int(now)%n goes negative past 2^31 cycles on 32-bit
		// ints, turning the rotation index into a panic-grade offset.
		n := len(g.SMs)
		start := int(now % int64(n))
		// Two bounds-check-free sweeps replace the per-SM modulo of the
		// rotated index walk; this loop runs once per simulated cycle per
		// SM and the division was visible in profiles.
		for _, s := range g.SMs[start:] {
			s.Cycle(now)
		}
		for _, s := range g.SMs[:start] {
			s.Cycle(now)
		}
		if g.controller != nil {
			g.controller.OnCycle(now)
		}
		if now%sampleEvery == 0 {
			for _, s := range g.SMs {
				s.SampleIdleWarps(now, g.idleAcc[s.ID])
			}
			g.idleSamples++
			if deadlined {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		if now >= g.nextEpochAt {
			// Scheduled roll. A controller that already forced a roll
			// this interval pushed nextEpochAt past now, so the two can
			// never fire for the same epoch.
			g.rollEpoch(now)
			g.nextEpochAt = now + g.Cfg.EpochLength
			g.cEpochs.Inc()
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		g.Now++
		if wheel {
			if next := g.nextEventAt(g.Now, end, sampleEvery); next > g.Now {
				// Every cycle in [g.Now, next) is provably a no-op for
				// every source; the only legacy effect — per-SM idle
				// skip counting — is credited in bulk.
				for _, s := range g.SMs {
					s.CreditIdle(g.Now, next)
				}
				g.WheelJumps++
				g.WheelSkipped += next - g.Now
				g.Now = next
			}
		}
	}
	return nil
}

// nextEventAt returns the earliest cycle in [a, end] any event source has
// scheduled work for. A cycle t is "scheduled" when processing it with
// the per-cycle body could change state or emit observable effects:
//
//   - the TB scheduler must run (needDispatch, or a kernel-relaunch gate
//     crossing that the periodic now%64 fallback would pick up);
//   - an SM leaves its blocked/idle window (sm.NextEventAt);
//   - the controller's OnCycle hook could act (NextControlEvent);
//   - the memory system requires attention (mem.System.NextEventAt);
//   - an idle-warp sample boundary (now % sampleEvery == 0) — sampling,
//     idleSamples and the deadline poll must observe every boundary;
//   - the scheduled epoch roll (nextEpochAt).
//
// Every skipped cycle in between is a no-op in the legacy loop apart from
// per-SM idle-skip counting, which CreditIdle reproduces exactly.
func (g *GPU) nextEventAt(a, end int64, sampleEvery int64) int64 {
	if g.needDispatch {
		return a
	}
	next := end
	if g.nextEpochAt < next {
		next = g.nextEpochAt
	}
	if sb := ((a + sampleEvery - 1) / sampleEvery) * sampleEvery; sb < next {
		next = sb
	}
	if next <= a {
		return a
	}
	// The SM scan comes first: the min over sources is order-independent,
	// and on a busy machine the first active SM already pins the loop to
	// per-cycle stepping, so checking SMs before the controller, memory
	// and launch-gate sources lets the dense case return after one probe
	// instead of paying every scan every cycle.
	for _, s := range g.SMs {
		if t := s.NextEventAt(a); t < next {
			next = t
		}
		if next <= a {
			return a
		}
	}
	if g.controller != nil {
		if t := g.controller.NextControlEvent(a); t < next {
			next = t
		}
	}
	if t := g.Mem.NextEventAt(a); t < next {
		next = t
	}
	if next <= a {
		return a
	}
	// Kernel relaunches re-enter dispatch through the periodic now%64
	// fallback once their launch gate passes. A gate crossing not yet
	// seen by a dispatch run schedules the first %64 cycle at/after it;
	// all other dispatch triggers (retires, preemptions, mask and cap
	// changes, context restores becoming placeable) set needDispatch.
	for slot := range g.Kernels {
		if g.nextGridIdx[slot] >= g.Kernels[slot].Profile.GridTBs {
			continue
		}
		gate := g.launchGateAt[slot]
		if g.lastDispatchAt >= gate {
			continue
		}
		t := gate
		if t < a {
			t = a
		}
		if t = (t + 63) &^ 63; t < next {
			next = t
		}
	}
	if next < a {
		return a
	}
	return next
}

// rollEpoch snapshots per-kernel epoch counters, traces them, and fires
// the controller's epoch hook.
func (g *GPU) rollEpoch(now int64) {
	g.epochIdx++
	g.tracer.SetEpoch(g.epochIdx)
	for slot, st := range g.Stats {
		g.tracer.EpochRoll(now, slot, st.BeginEpoch(), g.TotalResidentTBs(slot))
	}
	if g.controller != nil {
		g.controller.OnEpoch(now)
	}
}

// ForceEpochRoll rolls the epoch immediately — counters, epoch_roll
// events, controller hook — and restarts the scheduled epoch clock a full
// epoch from now. Controllers that shorten epochs (Elastic) call this
// instead of duplicating the roll locally, so the traced epoch rolls and
// the controller's OnEpoch observations always describe the same
// interval.
func (g *GPU) ForceEpochRoll(now int64) {
	g.rollEpoch(now)
	g.nextEpochAt = now + g.Cfg.EpochLength
	g.cForcedEpochs.Inc()
}

// EpochIndex returns the number of epoch rolls (scheduled plus forced) so
// far.
func (g *GPU) EpochIndex() int { return g.epochIdx }

// NextEpochAt returns the cycle of the next scheduled epoch roll.
func (g *GPU) NextEpochAt() int64 { return g.nextEpochAt }

// IdleWarpAverages returns the mean sampled idle-warp count per SM and
// kernel slot since the last call, then resets the accumulators. The
// static resource manager consumes this once per epoch (Section 3.6).
// The matrix is the device's own: it is valid until the next call.
func (g *GPU) IdleWarpAverages() [][]float64 {
	for i, acc := range g.idleAcc {
		for j, v := range acc {
			avg := 0.0
			if g.idleSamples > 0 {
				avg = float64(v) / float64(g.idleSamples)
			}
			g.idleAvg[i][j] = avg
			acc[j] = 0
		}
	}
	g.idleSamples = 0
	return g.idleAvg
}

// IPC returns kernel slot's thread-IPC over its active window (first
// issue through last issue). A kernel that launched late (relaunch
// delay, deferred context restore) or drained early is judged on the
// cycles it could actually issue in, not on wall-clock cycles it never
// saw — the dilution previously made goal-attainment checks pass or
// fail on scheduling artifacts.
func (g *GPU) IPC(slot int) float64 { return g.Stats[slot].ActiveIPC() }

// CheckInvariants validates cross-SM accounting; tests call this after
// runs. It returns "" when healthy.
func (g *GPU) CheckInvariants() string {
	for slot := range g.Kernels {
		resident := g.TotalResidentTBs(slot)
		if resident != g.outstanding[slot] {
			return "outstanding TB accounting mismatch"
		}
	}
	for _, s := range g.SMs {
		if msg := s.CheckInvariants(); msg != "" {
			return msg
		}
	}
	return ""
}
