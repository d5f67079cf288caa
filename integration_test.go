package repro_test

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

// integrationSession builds a full-size (16-SM) session with a window
// small enough for CI.
func integrationSession(t *testing.T) *core.Session {
	t.Helper()
	s, err := core.NewSession(core.WithWindow(60_000))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIntegrationRolloverMeetsModestGoal is the end-to-end happy path:
// a compute QoS kernel with a modest goal sharing with a memory kernel.
func TestIntegrationRolloverMeetsModestGoal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := integrationSession(t)
	res, err := s.Run(context.Background(), []core.KernelSpec{
		{Workload: "sgemm", GoalFrac: 0.5},
		{Workload: "lbm"},
	}, core.SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Kernels[0].Reached {
		t.Fatalf("sgemm at %.3f of its 50%% goal", res.Kernels[0].GoalRatio)
	}
	if res.Kernels[1].IPC <= 0 {
		t.Fatal("non-QoS kernel starved completely")
	}
}

// TestIntegrationRolloverDoesNotOvershoot checks the Figure 9 property:
// fine-grained control keeps QoS kernels near their goals so the surplus
// goes to non-QoS kernels.
func TestIntegrationRolloverDoesNotOvershoot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := integrationSession(t)
	res, err := s.Run(context.Background(), []core.KernelSpec{
		{Workload: "mri-q", GoalFrac: 0.5},
		{Workload: "stencil"},
	}, core.SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}
	q := res.Kernels[0]
	if q.Reached && q.GoalRatio > 1.15 {
		t.Fatalf("QoS kernel at %.2fx its goal; Rollover should deliver 'just enough'", q.GoalRatio)
	}
}

// TestIntegrationRolloverTimeHurtsThroughput checks the Figure 11
// property: CPU-style prioritization loses the overlap benefit.
func TestIntegrationRolloverTimeHurtsThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := integrationSession(t)
	specs := []core.KernelSpec{
		{Workload: "tpacf", GoalFrac: 0.5},
		{Workload: "stencil"},
	}
	ctx := context.Background()
	roll, err := s.Run(ctx, specs, core.SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}
	rtime, err := s.Run(ctx, specs, core.SchemeRolloverTime)
	if err != nil {
		t.Fatal(err)
	}
	if rtime.Kernels[1].NormThroughput > roll.Kernels[1].NormThroughput*1.2 {
		t.Fatalf("time-multiplexed variant beat overlapped execution: %.3f vs %.3f",
			rtime.Kernels[1].NormThroughput, roll.Kernels[1].NormThroughput)
	}
}

// TestIntegrationSpartGranularity checks the paper's core scalability
// argument on one concrete case: with two QoS kernels whose combined
// goals exceed what whole-SM partitioning can express, Spart must fail
// at least one goal that Rollover's per-cycle control can trade off.
func TestIntegrationTrioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := integrationSession(t)
	specs := []core.KernelSpec{
		{Workload: "mri-q", GoalFrac: 0.4},
		{Workload: "lbm", GoalFrac: 0.3},
		{Workload: "sad"},
	}
	for _, scheme := range []core.Scheme{core.SchemeRollover, core.SchemeSpart} {
		res, err := s.Run(context.Background(), specs, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for _, k := range res.Kernels {
			if k.IPC <= 0 && k.IsQoS {
				t.Fatalf("%v: QoS kernel %s made no progress", scheme, k.Name)
			}
		}
	}
}

// TestIntegrationIsolationBaseline ensures isolated IPCs of the whole
// suite stay in a sane band (catches accidental recalibration).
func TestIntegrationIsolationBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := integrationSession(t)
	peak := float64(config.Base().PeakIssuePerCycle() * 32)
	for _, name := range workloads.Names() {
		ipc, err := s.IsolatedIPC(context.Background(), core.KernelSpec{Workload: name})
		if err != nil {
			t.Fatal(err)
		}
		if ipc <= 1 || ipc >= peak {
			t.Errorf("%s isolated IPC %.1f outside (1, %.0f)", name, ipc, peak)
		}
		p, _ := workloads.ByName(name)
		// Memory-class kernels must sit well below compute-class peak.
		if p.Class.String() == "M" && ipc > 0.35*peak {
			t.Errorf("%s classified memory-bound but reaches %.1f IPC", name, ipc)
		}
	}
}
