package repro_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestWheelEquivalenceSchemes runs each co-run twice — reference: the
// per-cycle loop (core.WithEventWheel(false)); subject: the default
// event-wheel stepper — and requires bit-identical results: the full
// JSONL event trace (epoch rolls, quota grants, carries, replenishes,
// gate stalls — every control decision at its cycle), the final
// per-kernel IPCs, and the complete per-kernel stats. The mixes are the
// ones where the wheel actually jumps: gate-stalled Naive pairs (both
// goals <= 0.3, so quota runs out early and the SMs sit idle until the
// roll) and rollover-time, as the sim-sparse benchmark workload times
// them, plus Elastic's forced rolls, Spart's drains and the golden
// Rollover co-run. A wheel that skips one cycle it should not moves an
// event's cycle stamp or a throttle count and fails here.
func TestWheelEquivalenceSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	// One session per stepper for every mix: each measures its own
	// baselines, once.
	sessions := map[bool]*core.Session{}
	for _, wheel := range []bool{false, true} {
		s, err := core.NewSession(core.WithWindow(30_000), core.WithEventWheel(wheel))
		if err != nil {
			t.Fatal(err)
		}
		sessions[wheel] = s
	}
	for _, tc := range []struct {
		name   string
		scheme core.Scheme
		specs  []core.KernelSpec
	}{
		{"rollover", core.SchemeRollover, goldenSpecs()},
		{"elastic", core.SchemeElastic, goldenSpecs()},
		{"naive-gated", core.SchemeNaive, []core.KernelSpec{
			{Workload: "sgemm", GoalFrac: 0.1}, {Workload: "lbm", GoalFrac: 0.3}}},
		{"rollover-time", core.SchemeRolloverTime, []core.KernelSpec{
			{Workload: "mri-q", GoalFrac: 0.7}, {Workload: "lbm"}}},
		{"spart", core.SchemeSpart, []core.KernelSpec{
			{Workload: "sgemm", GoalFrac: 0.6}, {Workload: "spmv"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				res   *core.Result
				trace []byte
			}
			run := func(wheel bool) outcome {
				tr := trace.New(trace.DefaultRingSize)
				res, err := sessions[wheel].RunTraced(context.Background(), tc.specs, tc.scheme, tr)
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
				return outcome{res, buf.Bytes()}
			}
			ref, got := run(false), run(true)
			if !bytes.Equal(got.trace, ref.trace) {
				gl, rl := bytes.Split(got.trace, []byte("\n")), bytes.Split(ref.trace, []byte("\n"))
				for i := 0; i < len(gl) && i < len(rl); i++ {
					if !bytes.Equal(gl[i], rl[i]) {
						t.Fatalf("trace diverges at line %d:\n    wheel: %s\nper-cycle: %s", i+1, gl[i], rl[i])
					}
				}
				t.Fatalf("trace length %d lines, per-cycle %d", len(gl), len(rl))
			}
			if got.res.Cycles != ref.res.Cycles || got.res.TotalIPC != ref.res.TotalIPC {
				t.Fatalf("cycles/IPC %d/%v, per-cycle %d/%v",
					got.res.Cycles, got.res.TotalIPC, ref.res.Cycles, ref.res.TotalIPC)
			}
			for i := range ref.res.Kernels {
				if got.res.Kernels[i].IPC != ref.res.Kernels[i].IPC {
					t.Errorf("kernel %d IPC %v, per-cycle %v", i, got.res.Kernels[i].IPC, ref.res.Kernels[i].IPC)
				}
				if !reflect.DeepEqual(got.res.Kernels[i].Stats, ref.res.Kernels[i].Stats) {
					t.Errorf("kernel %d stats diverged\n    wheel: %+v\nper-cycle: %+v",
						i, got.res.Kernels[i].Stats, ref.res.Kernels[i].Stats)
				}
			}
		})
	}
}
