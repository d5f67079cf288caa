package workloads

import (
	"context"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
)

// calibrationWindow is the isolated run length. The orderings checked
// here hold at 200 K cycles too (EXPERIMENTS.md, "Commands and examples
// removed"); 50 K keeps the test under two seconds.
const calibrationWindow = 50_000

// calibration is one profile measured alone on the base device.
type calibration struct {
	name  string
	class kern.Class // the class the profile declares
	ipc   float64    // isolated thread-IPC with full TB residency
	// retention is the share of ipc kept at two TBs per SM: how little
	// the profile needs thread-level parallelism.
	retention float64
}

// calibrationIPC runs p alone on the base device for calibrationWindow
// cycles, with at most tbCap thread blocks per SM when tbCap > 0.
func calibrationIPC(t *testing.T, p kern.Profile, tbCap int) float64 {
	t.Helper()
	k, err := kern.Build(0, p, Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.New(config.Base(), []*kern.Kernel{k})
	if err != nil {
		t.Fatal(err)
	}
	if tbCap > 0 {
		for _, s := range g.SMs {
			s.SetTBCap(0, tbCap)
		}
	}
	g.RunCtx(context.Background(), calibrationWindow)
	return g.IPC(0)
}

// calibrate measures every profile of the table.
func calibrate(t *testing.T, table []kern.Profile) []calibration {
	t.Helper()
	out := make([]calibration, len(table))
	for i, p := range table {
		ipc := calibrationIPC(t, p, 0)
		out[i] = calibration{name: p.Name, class: p.Class, ipc: ipc, retention: calibrationIPC(t, p, 2) / ipc}
	}
	return out
}

// measuredClass is the C/M class a profile's measurements put it in,
// judged against the suite it was measured with, so no threshold is a
// literal: compute-bound when its isolated IPC is above the geometric
// midpoint of the suite's IPC range and it keeps less than the midpoint of
// the suite's cap-2 retention range, memory-bound when both say the
// opposite. ok is false when the two measurements disagree.
func measuredClass(c calibration, suite []calibration) (class kern.Class, ok bool) {
	ipcLo, ipcHi := math.Inf(1), math.Inf(-1)
	retLo, retHi := math.Inf(1), math.Inf(-1)
	for _, s := range suite {
		ipcLo, ipcHi = min(ipcLo, s.ipc), max(ipcHi, s.ipc)
		retLo, retHi = min(retLo, s.retention), max(retHi, s.retention)
	}
	fast := c.ipc > math.Sqrt(ipcLo*ipcHi)
	needsTLP := c.retention < (retLo+retHi)/2
	switch {
	case fast && needsTLP:
		return kern.ClassCompute, true
	case !fast && !needsTLP:
		return kern.ClassMemory, true
	}
	return 0, false
}

// TestProfileCalibration is the evidence for the workload substitution:
// isolated, the synthetic compute profiles issue faster than every memory
// profile, and the memory profiles lose less than every compute profile
// when held to two thread blocks per SM. Every profile's measurements put
// it in the class it declares. Run with -v for the table.
func TestProfileCalibration(t *testing.T) {
	suite := calibrate(t, Profiles())
	var c, m []calibration
	for _, r := range suite {
		t.Logf("%-14s %-3s IPC %7.1f  cap-2 retention %.2f", r.name, r.class, r.ipc, r.retention)
		if r.class == kern.ClassCompute {
			c = append(c, r)
		} else {
			m = append(m, r)
		}
	}
	if len(c) == 0 || len(m) == 0 {
		t.Fatalf("%d C and %d M profiles; the suite needs both", len(c), len(m))
	}
	for _, hi := range c {
		for _, lo := range m {
			if hi.ipc <= lo.ipc {
				t.Errorf("C profile %s at %.1f IPC is not above M profile %s at %.1f", hi.name, hi.ipc, lo.name, lo.ipc)
			}
			if lo.retention <= hi.retention {
				t.Errorf("M profile %s keeps %.2f at cap 2, not more than C profile %s's %.2f", lo.name, lo.retention, hi.name, hi.retention)
			}
		}
	}
	for _, r := range suite {
		if got, ok := measuredClass(r, suite); !ok || got != r.class {
			t.Errorf("%s declares class %s but measures as %s (decided: %v)", r.name, r.class, got, ok)
		}
	}
}
