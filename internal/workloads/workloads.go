// Package workloads defines the benchmark suite used in the evaluation.
//
// The paper evaluates 10 kernels from Parboil (bfs excluded as too small).
// We cannot run the real Parboil binaries — there is no PTX front end —
// so each benchmark is modelled as a kern.Profile whose instruction mix,
// memory behaviour and geometry match the benchmark's published character:
// cutcp/mri-q/sgemm/sad/tpacf are compute-intensive, and
// histo/lbm/mri-gridding/spmv/stencil are memory-intensive. histo is
// deliberately short-running (the paper notes neither scheme handles its
// short kernels well, Figure 7).
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/kern"
)

// Seed is the deterministic seed used to expand every profile.
const Seed = 0x5eed_15ca_2017

// Names lists the benchmark names in the paper's figure order.
func Names() []string {
	names := make([]string, len(table))
	for i, p := range table {
		names[i] = p.Name
	}
	return names
}

var table = []kern.Profile{
	{
		Name: "cutcp", Class: kern.ClassCompute,
		BodyInstrs: 48, Iterations: 160,
		FracGlobalMem: 0.03, FracStore: 0.15, FracShared: 0.13, FracSFU: 0.08,
		DepDensity: 0.42, DivergenceFrac: 0.05,
		CoalesceDegree: 1.3, ReuseFrac: 0.80,
		HotBytes: 20 << 10, FootprintBytes: 96 << 20,
		BarrierEvery: 24,
		ThreadsPerTB: 128, RegsPerThread: 38, SharedMemPerTB: 4 << 10, GridTBs: 640,
	},
	{
		Name: "histo", Class: kern.ClassMemory,
		BodyInstrs: 26, Iterations: 28,
		FracGlobalMem: 0.22, FracStore: 0.45, FracShared: 0.12, FracSFU: 0.00,
		DepDensity: 0.35, DivergenceFrac: 0.12,
		CoalesceDegree: 3.0, ReuseFrac: 0.35,
		HotBytes: 256 << 10, FootprintBytes: 128 << 20,
		BarrierEvery: 0,
		ThreadsPerTB: 256, RegsPerThread: 22, SharedMemPerTB: 8 << 10, GridTBs: 88,
	},
	{
		Name: "lbm", Class: kern.ClassMemory,
		BodyInstrs: 64, Iterations: 110,
		FracGlobalMem: 0.28, FracStore: 0.40, FracShared: 0.00, FracSFU: 0.02,
		DepDensity: 0.30, DivergenceFrac: 0.02,
		CoalesceDegree: 2.0, ReuseFrac: 0.06,
		HotBytes: 128 << 10, FootprintBytes: 384 << 20,
		BarrierEvery: 0,
		PhasePeriod:  24, PhaseMemBoost: 0.12,
		ThreadsPerTB: 128, RegsPerThread: 46, SharedMemPerTB: 0, GridTBs: 720,
	},
	{
		Name: "mri-gridding", Class: kern.ClassMemory,
		BodyInstrs: 40, Iterations: 140,
		FracGlobalMem: 0.22, FracStore: 0.30, FracShared: 0.06, FracSFU: 0.06,
		DepDensity: 0.38, DivergenceFrac: 0.18,
		CoalesceDegree: 4.0, ReuseFrac: 0.25,
		HotBytes: 256 << 10, FootprintBytes: 192 << 20,
		BarrierEvery: 0,
		PhasePeriod:  32, PhaseMemBoost: 0.10,
		ThreadsPerTB: 256, RegsPerThread: 30, SharedMemPerTB: 2 << 10, GridTBs: 448,
	},
	{
		Name: "mri-q", Class: kern.ClassCompute,
		BodyInstrs: 44, Iterations: 170,
		FracGlobalMem: 0.03, FracStore: 0.10, FracShared: 0.06, FracSFU: 0.16,
		DepDensity: 0.48, DivergenceFrac: 0.01,
		CoalesceDegree: 1.1, ReuseFrac: 0.85,
		HotBytes: 16 << 10, FootprintBytes: 48 << 20,
		BarrierEvery: 0,
		ThreadsPerTB: 256, RegsPerThread: 26, SharedMemPerTB: 0, GridTBs: 416,
	},
	{
		Name: "sad", Class: kern.ClassCompute,
		BodyInstrs: 36, Iterations: 130,
		FracGlobalMem: 0.06, FracStore: 0.20, FracShared: 0.14, FracSFU: 0.00,
		DepDensity: 0.34, DivergenceFrac: 0.08,
		CoalesceDegree: 1.8, ReuseFrac: 0.65,
		HotBytes: 24 << 10, FootprintBytes: 64 << 20,
		BarrierEvery: 18,
		ThreadsPerTB: 64, RegsPerThread: 32, SharedMemPerTB: 2 << 10, GridTBs: 1024,
	},
	{
		Name: "sgemm", Class: kern.ClassCompute,
		BodyInstrs: 56, Iterations: 150,
		FracGlobalMem: 0.04, FracStore: 0.08, FracShared: 0.25, FracSFU: 0.00,
		DepDensity: 0.30, DivergenceFrac: 0.00,
		CoalesceDegree: 1.0, ReuseFrac: 0.90,
		HotBytes: 24 << 10, FootprintBytes: 64 << 20,
		BarrierEvery: 14,
		ThreadsPerTB: 128, RegsPerThread: 48, SharedMemPerTB: 8 << 10, GridTBs: 576,
	},
	{
		Name: "spmv", Class: kern.ClassMemory,
		BodyInstrs: 30, Iterations: 120,
		FracGlobalMem: 0.28, FracStore: 0.12, FracShared: 0.00, FracSFU: 0.00,
		DepDensity: 0.46, DivergenceFrac: 0.22,
		CoalesceDegree: 5.0, ReuseFrac: 0.30,
		HotBytes: 384 << 10, FootprintBytes: 256 << 20,
		BarrierEvery: 0,
		ThreadsPerTB: 192, RegsPerThread: 20, SharedMemPerTB: 0, GridTBs: 576,
	},
	{
		Name: "stencil", Class: kern.ClassMemory,
		BodyInstrs: 42, Iterations: 125,
		FracGlobalMem: 0.24, FracStore: 0.30, FracShared: 0.10, FracSFU: 0.00,
		DepDensity: 0.33, DivergenceFrac: 0.03,
		CoalesceDegree: 1.6, ReuseFrac: 0.45,
		HotBytes: 512 << 10, FootprintBytes: 320 << 20,
		BarrierEvery: 20,
		PhasePeriod:  28, PhaseMemBoost: 0.10,
		ThreadsPerTB: 128, RegsPerThread: 28, SharedMemPerTB: 4 << 10, GridTBs: 640,
	},
	{
		Name: "tpacf", Class: kern.ClassCompute,
		BodyInstrs: 50, Iterations: 145,
		FracGlobalMem: 0.04, FracStore: 0.05, FracShared: 0.18, FracSFU: 0.10,
		DepDensity: 0.44, DivergenceFrac: 0.15,
		CoalesceDegree: 1.4, ReuseFrac: 0.75,
		HotBytes: 20 << 10, FootprintBytes: 32 << 20,
		BarrierEvery: 25,
		ThreadsPerTB: 256, RegsPerThread: 34, SharedMemPerTB: 4 << 10, GridTBs: 384,
	},
}

// Profiles returns a copy of the suite's profiles in figure order.
func Profiles() []kern.Profile {
	out := make([]kern.Profile, len(table))
	copy(out, table)
	return out
}

// ByName returns the profile with the given name, searching the paper
// suite first and then the open-world set (openworld.go).
func ByName(name string) (kern.Profile, error) {
	for _, p := range table {
		if p.Name == name {
			return p, nil
		}
	}
	for _, p := range openWorld {
		if p.Name == name {
			return p, nil
		}
	}
	return kern.Profile{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Pair is one evaluation case: a QoS kernel co-running with a non-QoS one.
type Pair struct {
	QoS    string
	NonQoS string
}

// Pairs enumerates the paper's 90 ordered pairs (every QoS benchmark with
// every distinct non-QoS benchmark).
func Pairs() []Pair {
	var out []Pair
	for _, q := range table {
		for _, n := range table {
			if q.Name == n.Name {
				continue
			}
			out = append(out, Pair{QoS: q.Name, NonQoS: n.Name})
		}
	}
	return out
}

// Trio is one three-kernel evaluation case. Members are benchmark names;
// the harness decides which of them carry QoS goals (the first one for
// 1-QoS trios, the first two for 2-QoS trios, Section 4.1).
type Trio struct {
	A, B, C string
}

// Trios enumerates 60 deterministic trios. The paper tests "60 trios of
// all possible combinations" out of the C(10,3)=120 unordered triples; we
// take every second triple of the lexicographic enumeration, which keeps
// every benchmark represented in every role.
func Trios() []Trio {
	names := Names()
	sort.Strings(names)
	var all []Trio
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			for k := j + 1; k < len(names); k++ {
				all = append(all, Trio{A: names[i], B: names[j], C: names[k]})
			}
		}
	}
	out := make([]Trio, 0, 60)
	for i := 0; i < len(all) && len(out) < 60; i += 2 {
		out = append(out, all[i])
	}
	return out
}

// PairClass returns the pairing class label. For the paper suite these
// are its figure labels "C+C", "C+M" and "M+M" (the C/M order is merged
// regardless of which kernel carries the goal); pairs involving an
// open-world class keep the QoS kernel's class first ("I+M", "R+C", …)
// since those grids are not merged in any paper figure.
func PairClass(qos, nonqos string) (string, error) {
	q, err := ByName(qos)
	if err != nil {
		return "", err
	}
	n, err := ByName(nonqos)
	if err != nil {
		return "", err
	}
	paper := func(c kern.Class) bool { return c == kern.ClassCompute || c == kern.ClassMemory }
	if !paper(q.Class) || !paper(n.Class) {
		return q.Class.String() + "+" + n.Class.String(), nil
	}
	switch {
	case q.Class == kern.ClassCompute && n.Class == kern.ClassCompute:
		return "C+C", nil
	case q.Class == kern.ClassMemory && n.Class == kern.ClassMemory:
		return "M+M", nil
	default:
		return "C+M", nil
	}
}
