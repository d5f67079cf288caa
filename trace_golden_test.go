package repro_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files from the current simulator output")

// goldenSpecs is the 2-kernel Rollover micro-run the golden trace pins:
// a compute QoS kernel sharing with a memory kernel. The aggressive goal
// leaves unconsumed quota each epoch, so the golden stream exercises the
// full grant → consume → carry lifecycle.
func goldenSpecs() []core.KernelSpec {
	return []core.KernelSpec{
		{Workload: "sgemm", GoalFrac: 0.95},
		{Workload: "lbm"},
	}
}

// TestGoldenRolloverTrace byte-compares the JSONL export of a traced
// Rollover micro-run against testdata/rollover_trace.golden.jsonl. The
// simulator is deterministic, so any diff means the event stream changed:
// either intentionally (rerun with -update-golden and review the diff) or
// because an emit point moved, double-fired, or vanished.
func TestGoldenRolloverTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s, err := core.NewSession(core.WithWindow(30_000))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.DefaultRingSize)
	ctx := context.Background()
	if _, err := s.RunTraced(ctx, goldenSpecs(), core.SchemeRollover, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; grow the ring so the golden run is complete", tr.Dropped())
	}

	var buf bytes.Buffer
	if err := trace.Export(&buf, tr, trace.FormatJSONL); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	checkGolden(t, filepath.Join("testdata", "rollover_trace.golden.jsonl"), got)
}

// checkGolden compares got with the golden file at path, line by line,
// and fails on the first line that differs (with a count of the rest).
// Under -update-golden it rewrites the file instead.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run '^%s$' -update-golden .` to create it)", err, t.Name())
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	first, differing := -1, 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			if first < 0 {
				first = i
			}
			differing++
		}
	}
	if first < 0 {
		t.Fatalf("%s: %d lines, golden has %d", path, len(gotLines), len(wantLines))
	}
	t.Fatalf("%s diverges at line %d (%d lines differ; %d lines, golden has %d):\n got: %s\nwant: %s",
		path, first+1, differing, len(gotLines), len(wantLines), gotLines[first], wantLines[first])
}

// TestGoldenTraceHasQuotaLifecycle asserts the acceptance property
// directly on the event stream: every epoch of the micro-run carries a
// quota grant for the QoS slot, and consume/carry events appear once the
// run is under way.
func TestGoldenTraceHasQuotaLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s, err := core.NewSession(core.WithWindow(30_000))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.DefaultRingSize)
	if _, err := s.RunTraced(context.Background(), goldenSpecs(), core.SchemeRollover, tr); err != nil {
		t.Fatal(err)
	}
	grants := map[int32]bool{}
	var consumed, carried, rolls int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindQuotaGrant:
			if ev.Slot == 0 {
				grants[ev.Epoch] = true
			}
		case trace.KindQuotaConsumed:
			consumed++
		case trace.KindQuotaCarry:
			carried++
		case trace.KindEpochRoll:
			rolls++
		}
	}
	if rolls == 0 {
		t.Fatal("no epoch rolls traced in a 3-epoch window")
	}
	if len(grants) < 2 {
		t.Fatalf("QoS slot granted quota in %d epochs, want every epoch", len(grants))
	}
	if consumed == 0 {
		t.Fatal("no quota-consumed events traced")
	}
	if carried == 0 {
		t.Fatal("no quota-carry events traced under Rollover")
	}
}
