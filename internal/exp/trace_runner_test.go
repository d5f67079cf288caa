package exp

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestPairSweepWritesPerCaseTraces runs a small pair sweep on a parallel
// worker pool with per-case tracing on. Each case gets its own Tracer
// (tracers are deliberately unsynchronized), so this test doubles as the
// race-detector coverage for tracing under the concurrent sweep engine —
// `make ci` runs this package with -race.
func TestPairSweepWritesPerCaseTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	dir := t.TempDir()
	r, err := NewRunner(4,
		WithSessionOptions(core.WithWindow(20_000)),
		WithTraceDir(dir, trace.FormatJSONL))
	if err != nil {
		t.Fatal(err)
	}
	pairs := []workloads.Pair{
		{QoS: "sgemm", NonQoS: "lbm"},
		{QoS: "mri-q", NonQoS: "stencil"},
	}
	goals := []float64{0.3, 0.5}
	cases, err := r.Sweep(context.Background(), Grid{Pairs: pairs, Goals: goals}, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases.Pairs {
		if c.Res == nil {
			t.Fatalf("case %s/%s g=%.2f failed", c.Pair.QoS, c.Pair.NonQoS, c.Goal)
		}
	}

	files, err := filepath.Glob(filepath.Join(dir, "*"+trace.FormatJSONL.Ext()))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pairs) * len(goals); len(files) != want {
		t.Fatalf("%d trace files written, want %d (one per case)", len(files), want)
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("trace file %s is empty", f)
		}
	}
}

// TestTraceDirPropagatesThroughWith checks that a derived runner (the
// sweep engine clones runners via With for config overrides) keeps the
// trace destination.
func TestTraceDirPropagatesThroughWith(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRunner(1, WithTraceDir(dir, trace.FormatChrome))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.With(core.WithWindow(30_000))
	if err != nil {
		t.Fatal(err)
	}
	if d.traceDir != dir || d.traceFormat != trace.FormatChrome {
		t.Fatal("With dropped the trace configuration")
	}
}
