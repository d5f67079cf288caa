package repro_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestDisabledTracerOverheadUnderTwoPercent bounds the cost tracing adds
// to the simulator hot loop when it is off. The bound is computed
// analytically rather than by differencing two noisy wall-clock runs:
//
//	overhead ≈ E × t_emit  vs  t_sim
//
// where E is the number of emit calls one window actually makes (counted
// by running the same co-run with tracing ON), t_emit is the measured
// cost of an emit on the nil tracer, the one off state and what the
// untraced path passes (a nil check, no argument boxing), and
// t_sim is the measured time to simulate the window. E × t_emit must
// stay under 2% of t_sim with a wide margin.
func TestDisabledTracerOverheadUnderTwoPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark")
	}
	const window = 30_000
	ctx := context.Background()
	s, err := core.NewSession(core.WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	specs := []core.KernelSpec{
		{Workload: "sgemm", GoalFrac: 0.7},
		{Workload: "lbm"},
	}
	// Count the emit calls one window makes (enabled run, no drops).
	tr := trace.New(1 << 20)
	if _, err := s.RunTraced(ctx, specs, core.SchemeRollover, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; grow the ring so E is exact", tr.Dropped())
	}
	emits := tr.Len()

	// Cost of one emit with tracing off.
	var off *trace.Tracer
	bEmit := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			off.QuotaGrant(int64(i), 0, 1, 1)
		}
	})
	// NsPerOp truncates to whole nanoseconds and the no-op emit is
	// sub-nanosecond, so compute the exact per-op cost.
	tEmit := float64(bEmit.T.Nanoseconds()) / float64(bEmit.N)

	// Cost of simulating one window (untraced, the production path).
	bSim := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(ctx, specs, core.SchemeRollover); err != nil {
				b.Fatal(err)
			}
		}
	})
	tSim := float64(bSim.NsPerOp())

	overhead := float64(emits) * tEmit
	frac := overhead / tSim
	t.Logf("%d emits × %.2f ns = %.0f ns against %.0f ns/window → %.4f%% overhead",
		emits, tEmit, overhead, tSim, 100*frac)
	if frac >= 0.02 {
		t.Fatalf("disabled tracer costs %.2f%% of the hot loop, budget is 2%%", 100*frac)
	}
}
