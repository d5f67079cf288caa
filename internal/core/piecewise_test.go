package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// TestPiecewiseRunMatchesWhole: a co-run's outcome at a cycle is a prefix
// of any longer run with the same goals and baselines, so a run extended
// piece by piece through gpu.RunCtx is the one whole run. Each case runs
// its window in three pieces (ending mid-epoch, on an epoch boundary and
// at the window) and its KernelStats and exported JSONL trace must equal,
// byte for byte, one whole run's: on a freshly built device, and on one
// gpu.Rebuild reset after another case's run, its controllers rebuilt in
// place.
func TestPiecewiseRunMatchesWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	if raceEnabled {
		t.Skip("one goroutine, so nothing for the race detector")
	}
	const window = 30_000
	pieces := []int64{7_001, 12_999, 10_000}
	s, err := NewSession(WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	cases := []reuseStep{
		{specs: []KernelSpec{{Workload: "sad", GoalFrac: 0.7}, {Workload: "lbm"}}, scheme: SchemeRollover},
		{specs: []KernelSpec{{Workload: "histo", GoalFrac: 0.6}, {Workload: "cutcp"}}, scheme: SchemeRollover},
		{specs: []KernelSpec{{Workload: "sgemm", GoalFrac: 0.6}, {Workload: "spmv"}}, scheme: SchemeSpart},
		{specs: []KernelSpec{{Workload: "mri-q", GoalFrac: 0.7}, {Workload: "stencil"}}, scheme: SchemeElastic},
	}
	// run simulates c on d rebuilt (nil: a fresh device) in the given
	// pieces and returns its stats, its trace and the device.
	run := func(c reuseStep, d *device, pieces []int64) (stats, events []byte, _ *device) {
		t.Helper()
		goals := make([]float64, len(c.specs))
		isolated := make([]float64, len(c.specs))
		for i, sp := range c.specs {
			if isolated[i], err = s.IsolatedIPC(context.Background(), sp); err != nil {
				t.Fatal(err)
			}
			goals[i] = sp.GoalFrac * isolated[i]
		}
		if d == nil {
			d = new(device)
		}
		if err := rebuild(d, s.cfg.GPU, c.specs, s.Seed()); err != nil {
			t.Fatal(err)
		}
		g := d.g
		tr := trace.New(trace.DefaultRingSize)
		g.SetTracer(tr)
		if err := d.installScheme(c.scheme, goals, isolated, s.cfg.QoSOptions); err != nil {
			t.Fatal(err)
		}
		for _, p := range pieces {
			if err := g.RunCtx(context.Background(), p); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Dropped() != 0 {
			t.Fatalf("ring dropped %d events; the trace comparison would be partial", tr.Dropped())
		}
		var buf bytes.Buffer
		if err := trace.Export(&buf, tr, trace.FormatJSONL); err != nil {
			t.Fatal(err)
		}
		if stats, err = json.Marshal(g.Stats); err != nil {
			t.Fatal(err)
		}
		return stats, buf.Bytes(), d
	}
	_, _, used := run(cases[len(cases)-1], nil, []int64{window})
	for _, c := range cases {
		wantStats, wantEvents, _ := run(c, nil, []int64{window})
		for _, dev := range []struct {
			name string
			prev *device
		}{{"fresh", nil}, {"rebuilt", used}} {
			stats, events, d := run(c, dev.prev, pieces)
			if d.g.Now != window {
				t.Fatalf("%v %v on a %s device: ran %d cycles, want %d", c.scheme, c.specs, dev.name, d.g.Now, window)
			}
			if !bytes.Equal(stats, wantStats) {
				t.Errorf("%v %v on a %s device: stats in pieces differ from the whole run's:\npieces: %s\n whole: %s",
					c.scheme, c.specs, dev.name, stats, wantStats)
			}
			if !bytes.Equal(events, wantEvents) {
				t.Errorf("%v %v on a %s device: the trace in pieces differs from the whole run's", c.scheme, c.specs, dev.name)
			}
			used = d
		}
	}
}
