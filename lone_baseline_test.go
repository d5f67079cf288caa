package repro_test

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestLoneUnmanagedRunIsIsolatedBaseline pins the identity RunTraced's
// one-simulation path rests on: for every suite workload, the two
// open-world items and two micro profiles, on both configurations, a lone
// goal-less SchemeNone run on a fresh session reports exactly the IPC a
// fresh session's IsolatedIPC measures, traced or not, and files it as
// the baseline. It lives here, not in internal/core, so the race pass
// (which has nothing concurrent to check in it) does not run its 84
// simulations.
func TestLoneUnmanagedRunIsIsolatedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	var specs []core.KernelSpec
	for _, name := range append(workloads.Names(), "infer", "rtdet") {
		specs = append(specs, core.KernelSpec{Workload: name})
	}
	pchase, alu := workloads.MicroPChase(), workloads.MicroALU()
	specs = append(specs, core.KernelSpec{Profile: &pchase}, core.KernelSpec{Profile: &alu})
	ctx := context.Background()
	for _, gpuCfg := range []config.GPU{config.Base(), config.Scale56()} {
		for _, spec := range specs {
			fresh := func() *core.Session {
				s, err := core.NewSession(core.WithGPU(gpuCfg), core.WithWindow(20_000))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			want, err := fresh().IsolatedIPC(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*trace.Tracer{nil, trace.New(1 << 12)} {
				s := fresh()
				res, err := s.RunTraced(ctx, []core.KernelSpec{spec}, core.SchemeNone, tr)
				if err != nil {
					t.Fatal(err)
				}
				k := res.Kernels[0]
				if k.IPC != want || k.IsolatedIPC != want {
					t.Errorf("%d SMs, %s, traced %v: lone run IPC %v, isolated %v; IsolatedIPC %v",
						gpuCfg.NumSMs, k.Name, tr != nil, k.IPC, k.IsolatedIPC, want)
				}
				if got, err := s.IsolatedIPC(ctx, spec); err != nil || got != want {
					t.Errorf("%d SMs, %s: filed baseline (%v, %v), want %v", gpuCfg.NumSMs, k.Name, got, err, want)
				}
			}
		}
	}
}
