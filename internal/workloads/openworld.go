package workloads

import "repro/internal/kern"

// Open-world workload classes: behavioural kernels beyond the paper's
// Parboil suite, modelling the two traffic shapes ROADMAP's
// open-world item names — serving-style LLM inference (latency-SLO'd,
// memory-bandwidth-bound, phase-bursty) and real-time periodic
// processing (hard per-activation deadlines, in the spirit of
// contention-aware real-time GPU partitioning). They live outside the
// paper `table` on purpose: Names/Profiles/Pairs/Trios still enumerate
// exactly the paper's suite (golden traces and figure drivers are
// untouched), while ByName/Kernel — and therefore qosd, the fleet and
// the stream driver — resolve them like any other benchmark.

var openWorld = []kern.Profile{
	{
		// infer models an LLM decode step: weight streaming dominates
		// (high global-mem fraction, near-ideal coalescing, almost no
		// reuse outside the hot KV region), softmax/activation work shows
		// as SFU, and attention/FFN alternation produces pronounced
		// memory-boost phases — the bursty epoch-to-epoch IPC that makes
		// latency SLOs hard under sharing.
		Name: "infer", Class: kern.ClassInfer,
		BodyInstrs: 40, Iterations: 120,
		FracGlobalMem: 0.30, FracStore: 0.10, FracShared: 0.06, FracSFU: 0.04,
		DepDensity: 0.40, DivergenceFrac: 0.04,
		CoalesceDegree: 1.2, ReuseFrac: 0.15,
		HotBytes: 1 << 20, FootprintBytes: 448 << 20,
		BarrierEvery: 0,
		PhasePeriod:  16, PhaseMemBoost: 0.18,
		ThreadsPerTB: 128, RegsPerThread: 40, SharedMemPerTB: 8 << 10, GridTBs: 512,
	},
	{
		// rtdet models a real-time detection/control activation: short,
		// tiled convolution-style work (frequent barriers, high shared-mem
		// traffic, good reuse) with a moderate streaming component. Its
		// per-activation deadline comes from a periodic goal, not the
		// profile.
		Name: "rtdet", Class: kern.ClassRT,
		BodyInstrs: 36, Iterations: 90,
		FracGlobalMem: 0.12, FracStore: 0.25, FracShared: 0.16, FracSFU: 0.06,
		DepDensity: 0.36, DivergenceFrac: 0.06,
		CoalesceDegree: 1.5, ReuseFrac: 0.60,
		HotBytes: 96 << 10, FootprintBytes: 48 << 20,
		BarrierEvery: 18,
		ThreadsPerTB: 128, RegsPerThread: 32, SharedMemPerTB: 6 << 10, GridTBs: 288,
	},
}

// OpenWorldPairs enumerates the open-world pair grid: each open-world
// kernel as the QoS kernel against every paper benchmark. It is the
// sweep grid of the `sweep -suite openworld` study, deliberately
// separate from Pairs() so the paper's 90-pair enumeration (and every
// golden artifact keyed to it) is unchanged.
func OpenWorldPairs() []Pair {
	var out []Pair
	for _, q := range openWorld {
		for _, n := range table {
			out = append(out, Pair{QoS: q.Name, NonQoS: n.Name})
		}
	}
	return out
}
