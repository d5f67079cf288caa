// Package power is an event-energy power model in the spirit of
// GPUWattch (Leng et al., ISCA'13), which the paper uses for its
// Figure 14 energy-efficiency comparison. Dynamic energy is charged per
// architectural event (instruction class, cache access, DRAM burst) and
// static energy per SM-cycle; instructions-per-watt falls out of total
// work over average power. Absolute joules are not calibrated to any real
// part — only the *relative* efficiency between management schemes
// matters for the reproduction, and that is driven by utilization, which
// the event counts capture.
package power

import (
	"repro/internal/gpu"
)

// Energy costs in picojoules per event. Values are in the range reported
// by GPUWattch-era literature for a 28nm part.
type Costs struct {
	ALUOp      float64 // integer/float ALU thread-op
	SFUOp      float64 // special-function thread-op
	SharedOp   float64 // shared-memory thread-op
	L1Access   float64 // per 128B L1 probe
	L2Access   float64 // per 128B L2 probe
	DRAMAccess float64 // per 128B DRAM burst
	IssueBase  float64 // per warp instruction (fetch/decode/issue)
	SMLeakage  float64 // per SM per cycle (static)
	BaseLeak   float64 // per cycle, rest of chip (MCs, NoC, PLLs)
}

// DefaultCosts returns the model's default energy table.
func DefaultCosts() Costs {
	return Costs{
		ALUOp:      8,
		SFUOp:      40,
		SharedOp:   16,
		L1Access:   60,
		L2Access:   180,
		DRAMAccess: 2600,
		IssueBase:  120,
		SMLeakage:  900,
		BaseLeak:   9000,
	}
}

// Report summarizes a run's energy.
type Report struct {
	Cycles        int64
	ThreadInstrs  int64
	DynamicPJ     float64
	StaticPJ      float64
	TotalPJ       float64
	AvgPowerW     float64 // with the configured core clock
	InstrPerJoule float64
	// InstrPerWatt is the paper's Figure 14 metric: instructions per
	// watt of average power = instrs * T / E.
	InstrPerWatt float64
}

// Measure computes the energy report for a finished GPU run.
func Measure(g *gpu.GPU, c Costs) Report {
	var r Report
	r.Cycles = g.Now
	var dyn float64
	for _, st := range g.Stats {
		r.ThreadInstrs += st.ThreadInstrs
		// Per-thread-op energies scale with the kernel's mean active
		// lanes; divergent kernels burn less datapath energy.
		lanes := 32.0
		if st.WarpInstrs > 0 {
			lanes = float64(st.ThreadInstrs) / float64(st.WarpInstrs)
		}
		// Every product is rounded before it is added, so no target
		// fuses it into the sum (make arch-check).
		dyn += float64(float64(st.ALUInstrs) * lanes * c.ALUOp)
		dyn += float64(float64(st.SFUInstrs) * lanes * c.SFUOp)
		dyn += float64(float64(st.SharedInstrs) * lanes * c.SharedOp)
		dyn += float64(float64(st.WarpInstrs) * c.IssueBase)
		dyn += float64(float64(st.L1Accesses) * c.L1Access)
	}
	l2 := g.Mem.L2Stats()
	dyn += float64(float64(l2.Accesses) * c.L2Access)
	dyn += float64(float64(l2.Misses) * c.DRAMAccess)
	r.DynamicPJ = dyn
	r.StaticPJ = float64(float64(r.Cycles) * (float64(float64(g.Cfg.NumSMs)*c.SMLeakage) + c.BaseLeak))
	r.TotalPJ = r.DynamicPJ + r.StaticPJ

	if r.TotalPJ > 0 {
		r.InstrPerJoule = float64(r.ThreadInstrs) / (r.TotalPJ * 1e-12)
	}
	// Average power: E/T with T = cycles / f.
	f := float64(g.Cfg.CoreClockMHz) * 1e6
	if r.Cycles > 0 && f > 0 {
		seconds := float64(r.Cycles) / f
		r.AvgPowerW = r.TotalPJ * 1e-12 / seconds
		if r.AvgPowerW > 0 {
			r.InstrPerWatt = float64(r.ThreadInstrs) / r.AvgPowerW
		}
	}
	return r
}
