package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

var faultPairs = []workloads.Pair{
	{QoS: "sgemm", NonQoS: "lbm"},
	{QoS: "mri-q", NonQoS: "stencil"},
	{QoS: "lbm", NonQoS: "sgemm"},
}

// TestSweepPanicIsolation panics two chosen cases and runs the sweep with
// the default (collecting) policy: every other case must complete, the
// report must name exactly the panicking cases, and the recovered stacks
// must be attached and printed by PrintRows. A failed case is final:
// every case, failed or not, runs once.
func TestSweepPanicIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	goals := []float64{0.4, 0.7}
	r := testRunner(t, 3)
	var runs [6]atomic.Int32
	r.interceptCases(func(_ context.Context, i int) error {
		runs[i].Add(1)
		if i == 1 || i == 4 {
			panic(fmt.Sprintf("injected panic at case %d", i))
		}
		return nil
	})
	out, ret, err := sweep(context.Background(), r, Grid{Pairs: faultPairs, Goals: goals}, core.SchemeRollover, nil)

	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SweepError", err)
	}
	rep := se.Report
	if len(rep.Failed) != 2 || rep.Failed[0].Index != 1 || rep.Failed[1].Index != 4 {
		t.Fatalf("Failed = %+v, want cases 1 and 4", rep.Failed)
	}
	if rep.Completed != 4 || rep.Total != 6 {
		t.Fatalf("Completed/Total = %d/%d, want 4/6", rep.Completed, rep.Total)
	}
	for _, ce := range rep.Failed {
		var pe *core.PanicError
		if !errors.As(ce.Err, &pe) {
			t.Fatalf("case %d: err = %v, want *core.PanicError", ce.Index, ce.Err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("case %d: no stack captured", ce.Index)
		}
		if ce.Case == "" || ce.Stage == "" {
			t.Fatalf("case %d: missing coordinates: %+v", ce.Index, ce)
		}
	}
	for i, c := range out {
		failed := i == 1 || i == 4
		if failed && c.Res != nil {
			t.Fatalf("case %d: failed case has a result", i)
		}
		if !failed && c.Res == nil {
			t.Fatalf("case %d: healthy case missing its result", i)
		}
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("case %d ran %d times, want once", i, n)
		}
	}
	// The sweep's row carries the report, beside the error that carries it.
	if ret != rep {
		t.Fatalf("the row's report is %+v, want the SweepError's %+v", ret, rep)
	}
	// The account both binaries print names each panicking case, then
	// its stack, which runs through the closure that panicked.
	var buf bytes.Buffer
	PrintRows(&buf, []SweepRow{{Stage: rep.Stage, Report: rep}})
	printed := buf.String()
	for _, ce := range rep.Failed {
		line := "FAILED " + ce.Error() + "\n"
		at := strings.Index(printed, line)
		if at < 0 {
			t.Fatalf("PrintRows does not list case %d as %q:\n%s", ce.Index, line, printed)
		}
		if frame := "exp.TestSweepPanicIsolation.func1("; !strings.Contains(printed[at+len(line):], frame) {
			t.Fatalf("PrintRows prints no stack frame %q after case %d:\n%s", frame, ce.Index, printed)
		}
	}
}

// TestSweepCaseTimeout wedges one case (it waits for its context, far
// beyond the per-case deadline) and expects the engine to reap it as
// DeadlineExceeded while the rest of the sweep completes.
func TestSweepCaseTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	goals := []float64{0.5}
	// The deadline must be generous enough that healthy cases (fast, but
	// ~10x slower under -race) never trip it, while still reaping the
	// wedge quickly.
	r := testRunner(t, 2, WithCaseTimeout(5*time.Second))
	r.interceptCases(func(ctx context.Context, i int) error {
		if i != 1 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Minute):
			return nil
		}
	})
	start := time.Now()
	_, _, err := sweep(context.Background(), r, Grid{Pairs: faultPairs, Goals: goals}, core.SchemeRollover, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in the chain", err)
	}
	var se *SweepError
	if !errors.As(err, &se) || len(se.Report.Failed) != 1 || se.Report.Failed[0].Index != 1 {
		t.Fatalf("err = %v, want a SweepError failing exactly case 1", err)
	}
	if ce := se.Report.Failed[0]; ce.Case != "pair[1] mri-q+stencil @0.50" {
		t.Fatalf("failed case coordinates %q", ce.Case)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("sweep took %v; the wedged case was not reaped", elapsed)
	}
}

// TestRowStoreResume is the acceptance test for crash recovery over a
// row store. A sweep killed mid-flight (simulated crash via context
// cancel) leaves no file behind; a re-run in a fresh runner simulates the
// stage, bit-identical to an uninterrupted reference run, and writes it.
// A runner with another window over the same store finds no file: under
// a canceled context its Collect fails rather than splicing in rows of a
// foreign configuration.
func TestRowStoreResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	g := Grid{Pairs: faultPairs, Goals: []float64{0.4, 0.7}}
	scheme := core.SchemeElastic
	want, _, err := sweep(context.Background(), testRunner(t, 3), g, scheme, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sweeps := []Sweep{{Name: "elastic", Scheme: scheme}}
	study := func(r *Runner) Study { return Study{Runner: r, Pairs: g.Pairs, Goals: g.Goals, Rows: dir} }
	ctx, cancel := context.WithCancel(context.Background())
	crashed := study(testRunner(t, 2))
	crashed.Progress = func(p Progress) {
		if p.Done >= 2 {
			cancel()
		}
	}
	if _, err := crashed.Collect(ctx, sweeps); !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run: err = %v, want Canceled", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("crashed run left %d files in the row store", len(left))
	}

	rows, err := study(testRunner(t, 3)).Collect(context.Background(), sweeps)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].File == "" || !reflect.DeepEqual(rows[0].Cases, want) {
		t.Fatal("re-run differs from the uninterrupted reference run or wrote no file")
	}

	r3, err := NewRunner(2,
		WithSessionOptions(core.WithGPU(func() config.GPU {
			c := config.Base()
			c.NumSMs = 4
			return c
		}()), core.WithWindow(20_000)))
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if rows, err := study(r3).Collect(canceled, sweeps); !errors.Is(err, context.Canceled) || len(rows) != 0 {
		t.Fatalf("foreign-config runner: %d rows, err = %v; want no file found and the simulation canceled", len(rows), err)
	}
}

// TestSweepRate covers the satellite fix: no +Inf/NaN rates on cases that
// complete before the clock meaningfully advances.
func TestSweepRate(t *testing.T) {
	if cps, eta := sweepRate(1, 10, 0); cps != 0 || eta != 0 {
		t.Fatalf("zero elapsed: (%v, %v), want zeros", cps, eta)
	}
	if cps, eta := sweepRate(1, 10, 10*time.Nanosecond); cps != 0 || eta != 0 {
		t.Fatalf("sub-ms elapsed: (%v, %v), want zeros", cps, eta)
	}
	if cps, eta := sweepRate(0, 10, time.Second); cps != 0 || eta != 0 {
		t.Fatalf("nothing done: (%v, %v), want zeros", cps, eta)
	}
	cps, eta := sweepRate(5, 10, 10*time.Second)
	if cps != 0.5 || eta != 10*time.Second {
		t.Fatalf("(%v, %v), want (0.5, 10s)", cps, eta)
	}
	if _, eta := sweepRate(10, 10, time.Second); eta != 0 {
		t.Fatalf("finished sweep ETA = %v, want 0", eta)
	}
}
