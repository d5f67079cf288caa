package exp

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
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
// must be attached.
func TestSweepPanicIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	goals := []float64{0.4, 0.7}
	r := testRunner(t, 3)
	r.interceptCases(func(_ context.Context, i int) error {
		if i == 1 || i == 4 {
			panic(fmt.Sprintf("injected panic at case %d", i))
		}
		return nil
	})
	out, ret, err := r.Sweep(context.Background(), Grid{Pairs: faultPairs, Goals: goals}, core.SchemeRollover, nil)

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
		if len(ce.Stack) == 0 {
			t.Fatalf("case %d: no stack captured", ce.Index)
		}
		if ce.Case == "" || ce.Stage == "" {
			t.Fatalf("case %d: missing coordinates: %+v", ce.Index, ce)
		}
	}
	for i, c := range out.Pairs {
		failed := i == 1 || i == 4
		if failed && c.Res != nil {
			t.Fatalf("case %d: failed case has a result", i)
		}
		if !failed && c.Res == nil {
			t.Fatalf("case %d: healthy case missing its result", i)
		}
	}
	// Sweep also returns the report, beside the error that carries it.
	if ret != rep {
		t.Fatalf("Sweep returned report %+v, want the SweepError's %+v", ret, rep)
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
	r := testRunner(t, 2, WithFaultPolicy(FaultPolicy{CaseTimeout: 5 * time.Second}))
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
	_, _, err := r.Sweep(context.Background(), Grid{Pairs: faultPairs, Goals: goals}, core.SchemeRollover, nil)
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

// TestSweepJournalResume is the acceptance test for crash recovery: run a
// journaled sweep, kill it mid-flight (simulated crash via context
// cancel), then resume into a fresh runner from the journal file. The
// resumed sweep must skip the checkpointed cases and the merged results
// must be bit-identical to an uninterrupted reference run.
func TestSweepJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	g := Grid{Pairs: faultPairs, Goals: []float64{0.4, 0.7}}
	scheme := core.SchemeElastic
	hash := "exp-fault-test"

	// Reference: uninterrupted, no journal.
	want, _, err := testRunner(t, 3).Sweep(context.Background(), g, scheme, nil)
	if err != nil {
		t.Fatal(err)
	}

	// First run: journaled, "crashes" (ctx cancel) once ≥2 cases landed.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := journal.Create(path, hash)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r1 := testRunner(t, 2, WithFaultPolicy(FaultPolicy{Journal: j}))
	_, _, err = r1.Sweep(ctx, g, scheme, func(p Progress) {
		if p.Done >= 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run: err = %v, want Canceled", err)
	}
	j.Close()

	// Resume: reopen the journal (config hash must match) into a fresh
	// runner, as a restarted process would.
	j2, err := journal.Open(path, hash)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := journalCaseLines(t, path); n < 2 {
		t.Fatalf("journal holds %d cases after crash, want >= 2", n)
	}
	r2 := testRunner(t, 3, WithFaultPolicy(FaultPolicy{Journal: j2}))
	got, rep, err := r2.Sweep(context.Background(), g, scheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed sweep differs from the uninterrupted reference run")
	}
	if rep.Skipped < 2 || rep.Skipped+rep.Completed != rep.Total {
		t.Fatalf("resume accounting wrong: %s", rep.Summary())
	}

	// A journal written under a different session config must not be
	// spliced in: a runner with another window derives a different stage
	// key and re-runs everything.
	r3, err := NewRunner(2,
		WithSessionOptions(core.WithGPU(func() config.GPU {
			c := config.Base()
			c.NumSMs = 4
			return c
		}()), core.WithWindow(20_000)),
		WithFaultPolicy(FaultPolicy{Journal: j2}))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err = r3.Sweep(context.Background(), g, scheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 0 {
		t.Fatalf("foreign-config runner resumed %d cases from the journal", rep.Skipped)
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
