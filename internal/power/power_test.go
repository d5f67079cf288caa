package power

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
)

func run(t *testing.T, cycles int64, memHeavy bool) *gpu.GPU {
	t.Helper()
	cfg := config.Base()
	cfg.NumSMs = 4
	p := kern.Profile{
		Name: "p", Class: kern.ClassCompute,
		BodyInstrs: 12, Iterations: 10,
		DepDensity:     0.2,
		CoalesceDegree: 1.5, ReuseFrac: 0.3,
		HotBytes: 4 << 10, FootprintBytes: 1 << 20,
		ThreadsPerTB: 64, RegsPerThread: 16, GridTBs: 24,
	}
	if memHeavy {
		p.FracGlobalMem = 0.4
		p.FracStore = 0.3
	}
	k, err := kern.Build(0, p, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.New(cfg, []*kern.Kernel{k})
	if err != nil {
		t.Fatal(err)
	}
	g.RunCtx(context.Background(), cycles)
	return g
}

func TestReportBasics(t *testing.T) {
	g := run(t, 10_000, false)
	r := Measure(g, DefaultCosts())
	if r.Cycles != 10_000 {
		t.Fatalf("cycles = %d", r.Cycles)
	}
	if r.ThreadInstrs <= 0 {
		t.Fatal("no work measured")
	}
	if r.DynamicPJ <= 0 || r.StaticPJ <= 0 {
		t.Fatalf("energy components: dyn=%v static=%v", r.DynamicPJ, r.StaticPJ)
	}
	if r.TotalPJ != r.DynamicPJ+r.StaticPJ {
		t.Fatal("total energy != dynamic + static")
	}
	if r.AvgPowerW <= 0 || r.InstrPerWatt <= 0 || r.InstrPerJoule <= 0 {
		t.Fatalf("derived metrics: %+v", r)
	}
}

func TestIdleChipBurnsOnlyLeakage(t *testing.T) {
	cfg := config.Base()
	cfg.NumSMs = 4
	p := kern.Profile{
		Name: "idle", Class: kern.ClassCompute,
		BodyInstrs: 12, Iterations: 1,
		CoalesceDegree: 1, HotBytes: 1 << 10, FootprintBytes: 1 << 20,
		ThreadsPerTB: 32, RegsPerThread: 8, GridTBs: 1,
	}
	k, _ := kern.Build(0, p, 1, nil)
	g, _ := gpu.New(cfg, []*kern.Kernel{k})
	// Do not run: zero cycles, zero work.
	r := Measure(g, DefaultCosts())
	if r.DynamicPJ != 0 {
		t.Fatalf("dynamic energy %v with no work", r.DynamicPJ)
	}
	if r.StaticPJ != 0 {
		t.Fatalf("static energy %v with no cycles", r.StaticPJ)
	}
}

func TestMemoryTrafficCostsMore(t *testing.T) {
	compute := Measure(run(t, 20_000, false), DefaultCosts())
	memory := Measure(run(t, 20_000, true), DefaultCosts())
	dynPerInstrC := compute.DynamicPJ / float64(compute.ThreadInstrs)
	dynPerInstrM := memory.DynamicPJ / float64(memory.ThreadInstrs)
	if dynPerInstrM <= dynPerInstrC {
		t.Fatalf("memory-heavy kernel cheaper per instr (%v vs %v)", dynPerInstrM, dynPerInstrC)
	}
}

func TestHigherUtilizationBetterInstrPerWatt(t *testing.T) {
	// The same kernel run for the same cycles, but one run is mostly
	// idle (work finished early): instructions/watt must favor the
	// busy configuration since leakage dominates idle time.
	busy := Measure(run(t, 5_000, false), DefaultCosts())
	idle := Measure(run(t, 200_000, false), DefaultCosts()) // grid re-launches, but with launch gaps
	if busy.InstrPerWatt <= 0 || idle.InstrPerWatt <= 0 {
		t.Fatal("invalid instr/watt")
	}
}

func TestCostScaling(t *testing.T) {
	g := run(t, 10_000, true)
	base := Measure(g, DefaultCosts())
	expensive := DefaultCosts()
	expensive.DRAMAccess *= 10
	scaled := Measure(g, expensive)
	if scaled.DynamicPJ <= base.DynamicPJ {
		t.Fatal("raising DRAM energy did not raise dynamic energy")
	}
}
