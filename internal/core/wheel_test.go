package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/trace"
)

// TestGoalOnlyPairLetsTheWheelSkip: in a Naive pair whose two kernels
// both carry goals of at most 0.3 there is no non-QoS kernel to top up,
// so once both quotas are spent the QoS controller has nothing to do
// until the epoch rolls, and the event wheel must skip that stretch: at
// least half of a 60 K-cycle window. Skipping must not change what the
// run observes: trace and result equal the per-cycle oracle's byte for
// byte.
func TestGoalOnlyPairLetsTheWheelSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const window = 60_000
	specs := []KernelSpec{{Workload: "sgemm", GoalFrac: 0.2}, {Workload: "histo", GoalFrac: 0.2}}
	cache := NewIsolatedCache()
	run := func(wheel bool) (res, events []byte, g *gpu.GPU) {
		s, err := NewSession(WithWindow(window), WithEventWheel(wheel), WithIsolatedCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		build := s.newGPU
		s.newGPU = func(prev *gpu.GPU, cfg config.GPU, kernels []*kern.Kernel) (*gpu.GPU, error) {
			g, err = build(prev, cfg, kernels) // the last device built is the co-run's
			return g, err
		}
		tr := trace.New(trace.DefaultRingSize)
		r, err := s.RunTraced(context.Background(), specs, SchemeNaive, tr)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("ring dropped %d events; the trace comparison would be partial", tr.Dropped())
		}
		var buf bytes.Buffer
		if err := trace.Export(&buf, tr, trace.FormatJSONL); err != nil {
			t.Fatal(err)
		}
		if res, err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes(), g
	}
	refRes, refEvents, _ := run(false)
	res, events, g := run(true)
	if !bytes.Equal(events, refEvents) {
		t.Fatal("the wheel's trace differs from the per-cycle oracle's")
	}
	if !bytes.Equal(res, refRes) {
		t.Fatalf("the wheel's result differs from the per-cycle oracle's:\n    wheel: %s\nper-cycle: %s", res, refRes)
	}
	if g.WheelSkipped < window/2 {
		t.Fatalf("the wheel skipped %d of %d cycles, want at least half", g.WheelSkipped, window)
	}
	t.Logf("the wheel skipped %d of %d cycles in %d jumps", g.WheelSkipped, window, g.WheelJumps)
}
