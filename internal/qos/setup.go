package qos

import "repro/internal/gpu"

// SetupFineGrained applies the initial TB allocation for fine-grained
// sharing (Section 3.6):
//
//   - QoS kernels are distributed to every SM;
//   - non-QoS kernels split the SMs into equal partitions, one kernel per
//     partition (having too many kernels per SM is not beneficial);
//   - within an SM, resident kernels receive thread budgets weighted by
//     their QoS goals, expressed as per-kernel TB caps.
//
// fracs[i] is kernel i's goal as a fraction of its isolated IPC (0 for
// non-QoS kernels). The paper starts from an equal split and lets the
// run-time adjuster converge; with our shorter measurement windows the
// ramp would dominate, so the initial budget uses the same goal
// information the spatial baseline's seeded partition gets (both
// managers receive goals when the kernel is dispatched, Section 3.2).
// Pass nil fracs for the equal split. The caps are a starting point; the
// run-time adjuster moves them.
func SetupFineGrained(g *gpu.GPU, goals, fracs []float64) {
	isQoS := func(slot int) bool { return goals[slot] > 0 }
	nonQoS := 0
	for slot := range goals {
		if !isQoS(slot) {
			nonQoS++
		}
	}
	numSMs := g.Cfg.NumSMs
	// owns reports whether slot, a non-QoS kernel, owns SM i: the non-QoS
	// kernels split the SMs into equal partitions, in slot order.
	owns := func(slot, i int) bool {
		per := max(numSMs/nonQoS, 1)
		idx := min(i/per, nonQoS-1)
		for s := range slot {
			if !isQoS(s) {
				idx--
			}
		}
		return idx == 0
	}
	// resident reports whether slot may hold TBs on SM i.
	resident := func(slot, i int) bool { return isQoS(slot) || owns(slot, i) }

	mask := make([]bool, numSMs)
	for slot := range g.Kernels {
		for i := range mask {
			mask[i] = resident(slot, i)
		}
		g.SetMask(slot, mask)
	}

	// weight is slot's thread-budget weight on SM i (0: not resident).
	weight := func(slot, i int) float64 {
		switch {
		case !resident(slot, i):
			return 0
		case fracs == nil:
			return 1
		case isQoS(slot):
			return max(fracs[slot], 0.15)
		}
		return 0.25 // non-QoS starts small; the search grows it
	}
	for i, s := range g.SMs {
		sum := 0.0
		for slot := range g.Kernels {
			sum += weight(slot, i)
		}
		if sum == 0 {
			continue
		}
		for slot, k := range g.Kernels {
			w := weight(slot, i)
			if w == 0 {
				s.SetTBCap(slot, 0)
				continue
			}
			budget := int(float64(g.Cfg.MaxThreadsPerSM) * w / sum)
			s.SetTBCap(slot, max(budget/k.Profile.ThreadsPerTB, 1))
		}
	}
	g.RequestDispatch()
}
