package benchgate

import (
	"path/filepath"
	"testing"
)

// gateTolFrac / gateLatTolFrac mirror the cmd/benchgate defaults wired
// into `make bench-gate`; keep them in sync with cmd/benchgate/main.go.
const (
	gateTolFrac    = 0.10
	gateLatTolFrac = 0.50
)

// preWheelCyclesPerSec are the committed throughput baselines from
// before the event-wheel conversion (the values BENCH_core.json carried
// through PR 7). The self-test below freezes them so reverting either
// the wheel or the ratchet is caught even if the revert is "clean".
var preWheelCyclesPerSec = map[string]float64{
	"SimulatorCycles": 220_000,
}

// loadCommittedBaseline loads the repo's real BENCH_core.json, not a
// fixture: the whole point is to gate the committed file.
func loadCommittedBaseline(t *testing.T) *File {
	t.Helper()
	f, err := Load(filepath.Join("..", "..", "BENCH_core.json"))
	if err != nil {
		t.Fatalf("loading committed baseline: %v", err)
	}
	return f
}

// TestBaselineRatchetTripsOnRevert is the tripwire self-test for the
// event-wheel ratchet: a tree reverted to pre-wheel throughput must
// fail the gate against the committed baseline. Equivalently, the
// committed floors must sit strictly above the pre-wheel numbers — if a
// revert also rolls BENCH_core.json back, this test fails instead of
// the gate, so the regression cannot land silently either way.
func TestBaselineRatchetTripsOnRevert(t *testing.T) {
	base := loadCommittedBaseline(t)

	reverted := *base
	reverted.Benchmarks = append([]Entry(nil), base.Benchmarks...)
	found := 0
	for i, e := range reverted.Benchmarks {
		if old, ok := preWheelCyclesPerSec[e.Name]; ok {
			reverted.Benchmarks[i].CyclesPerSec = old
			found++
		}
	}
	if found != len(preWheelCyclesPerSec) {
		t.Fatalf("committed baseline gates %d of the %d simulator throughput benchmarks",
			found, len(preWheelCyclesPerSec))
	}

	bad := Compare(base, &reverted, gateTolFrac, gateLatTolFrac)
	trips := map[string]bool{}
	for _, v := range bad {
		for name := range preWheelCyclesPerSec {
			if len(v) >= len(name) && v[:len(name)] == name {
				trips[name] = true
			}
		}
	}
	for name, old := range preWheelCyclesPerSec {
		if !trips[name] {
			t.Errorf("pre-wheel throughput (%s at %.0f cycles/s) passes the gate; "+
				"ratchet BENCH_core.json so the floor exceeds it", name, old)
		}
	}
}

// TestBaselineSelfConsistent pins the other half of the tripwire: the
// committed baseline must pass its own gate (a run reproducing the
// baseline exactly is by definition not a regression), and the CI
// handicap — the synthetic 40% revert `BENCHGATE_HANDICAP=0.6` injects —
// must trip it. Together with the pre-wheel test above this proves the
// gate is live in both directions.
func TestBaselineSelfConsistent(t *testing.T) {
	base := loadCommittedBaseline(t)
	if bad := Compare(base, base, gateTolFrac, gateLatTolFrac); len(bad) != 0 {
		t.Fatalf("committed baseline fails its own gate: %v", bad)
	}

	handicapped := *base
	handicapped.Benchmarks = append([]Entry(nil), base.Benchmarks...)
	ApplyHandicap(&handicapped, 0.6)
	if bad := Compare(base, &handicapped, gateTolFrac, gateLatTolFrac); len(bad) == 0 {
		t.Fatal("60% throughput handicap passes the gate; the tripwire is dead")
	}
}
