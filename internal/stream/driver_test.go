package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/schema"
)

// fakeBackend scripts outcomes by arrival seq and records the exact
// interleaving of submits and releases.
type fakeBackend struct {
	outcomes map[int]Outcome // by seq; missing = admitted
	log      []string
	nextID   int
	failOn   int // seq whose Submit returns an error; -1 = never
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{outcomes: map[int]Outcome{}, failOn: -1}
}

func (f *fakeBackend) Submit(_ context.Context, a Arrival) (Outcome, error) {
	if a.Seq == f.failOn {
		return Outcome{}, fmt.Errorf("backend down")
	}
	f.log = append(f.log, fmt.Sprintf("submit:%d", a.Seq))
	out, ok := f.outcomes[a.Seq]
	if !ok {
		out = Outcome{State: StateAdmitted}
	}
	if out.State == StateAdmitted && out.JobID == "" {
		f.nextID++
		out.JobID = fmt.Sprintf("job-%d", a.Seq)
	}
	return out, nil
}

func (f *fakeBackend) Release(_ context.Context, jobID string) error {
	f.log = append(f.log, "release:"+strings.TrimPrefix(jobID, "job-"))
	return nil
}

// handTrace builds a trace directly (no generator) for scripted tests.
func handTrace(events []Arrival) *Trace {
	return &Trace{
		Spec: GenSpec{
			Process: ProcessPoisson, RatePerSec: 1, DurationMs: 1_000_000, Seed: 1,
			Tenants: []TenantSpec{
				{Name: "a", Weight: 1, Workload: "sgemm", Goal: schema.FracGoal(0.5)},
				{Name: "b", Weight: 1, Workload: "lbm"},
			},
		},
		Events: events,
	}
}

func rejectWith(isQoS, reached bool) Outcome {
	return Outcome{State: StateRejected, Verdict: &schema.Verdict{
		Candidate: schema.KernelOutcome{IsQoS: isQoS, Reached: reached},
	}}
}

func TestStreamDriverStats(t *testing.T) {
	fb := newFakeBackend()
	fb.outcomes[1] = rejectWith(true, false)  // own-goal miss
	fb.outcomes[3] = rejectWith(false, false) // collateral (best-effort candidate)
	fb.outcomes[4] = Outcome{State: StateThrottled}
	fb.outcomes[5] = Outcome{State: StateFailed}
	tr := handTrace([]Arrival{
		{Seq: 0, TUs: 0, Tenant: "a", Workload: "sgemm", Goal: schema.FracGoal(0.5), HoldUs: 100},
		{Seq: 1, TUs: 10, Tenant: "a", Workload: "sgemm", Goal: schema.FracGoal(0.5)},
		{Seq: 2, TUs: 20, Tenant: "b", Workload: "lbm", HoldUs: 50},
		{Seq: 3, TUs: 30, Tenant: "b", Workload: "lbm"},
		{Seq: 4, TUs: 40, Tenant: "a", Workload: "sgemm"},
		{Seq: 5, TUs: 50, Tenant: "b", Workload: "lbm"},
	})
	d := &Driver{Backend: fb}
	rep, err := d.Run(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Arrivals != 6 || rep.Totals.Arrivals != 6 {
		t.Errorf("arrivals %d/%d, want 6/6", rep.Arrivals, rep.Totals.Arrivals)
	}
	if rep.Totals.Admitted != 2 || rep.Totals.Rejected != 2 || rep.Totals.Throttled != 1 || rep.Totals.Failed != 1 {
		t.Errorf("totals %+v", rep.Totals)
	}
	if rep.Totals.OwnGoalMisses != 1 || rep.Totals.CollateralRejects != 1 {
		t.Errorf("reject split %d/%d, want 1/1", rep.Totals.OwnGoalMisses, rep.Totals.CollateralRejects)
	}
	if rep.Totals.Released != 2 {
		t.Errorf("released %d, want 2", rep.Totals.Released)
	}
	if rep.Totals.AdmitRate != 0.5 || rep.Totals.ViolationRate != 0.25 {
		t.Errorf("rates %v/%v, want 0.5/0.25", rep.Totals.AdmitRate, rep.Totals.ViolationRate)
	}
	if rep.TraceHash == "" || rep.Process != ProcessPoisson {
		t.Errorf("report identity %q/%q", rep.Process, rep.TraceHash)
	}

	// Tenant rows are name-ordered with per-tenant splits.
	if len(rep.Tenants) != 2 || rep.Tenants[0].Name != "a" || rep.Tenants[1].Name != "b" {
		t.Fatalf("tenant rows %+v", rep.Tenants)
	}
	a, b := rep.Tenants[0].TenantStats, rep.Tenants[1].TenantStats
	if a.Arrivals != 3 || a.Admitted != 1 || a.Rejected != 1 || a.Throttled != 1 || a.OwnGoalMisses != 1 {
		t.Errorf("tenant a %+v", a)
	}
	if b.Arrivals != 3 || b.Admitted != 1 || b.Rejected != 1 || b.Failed != 1 || b.CollateralRejects != 1 {
		t.Errorf("tenant b %+v", b)
	}
	if a.VerdictP50Ns <= 0 || a.VerdictP99Ns < a.VerdictP50Ns {
		t.Errorf("tenant a verdict percentiles %d/%d", a.VerdictP50Ns, a.VerdictP99Ns)
	}
	if a.AdmitRate != 0.5 || a.ViolationRate != 0.5 {
		t.Errorf("tenant a rates %v/%v, want 0.5/0.5", a.AdmitRate, a.ViolationRate)
	}
}

func TestStreamDriverReleaseOrdering(t *testing.T) {
	fb := newFakeBackend()
	tr := handTrace([]Arrival{
		{Seq: 0, TUs: 0, Tenant: "a", Workload: "sgemm", HoldUs: 250},  // due 250
		{Seq: 1, TUs: 100, Tenant: "a", Workload: "sgemm", HoldUs: 50}, // due 150
		{Seq: 2, TUs: 200, Tenant: "b", Workload: "lbm", HoldUs: 50},   // due 250 (tie -> seq order)
		{Seq: 3, TUs: 300, Tenant: "b", Workload: "lbm"},               // never released: HoldUs 0
		{Seq: 4, TUs: 400, Tenant: "a", Workload: "sgemm", HoldUs: 1},  // drained at end
	})
	d := &Driver{Backend: fb}
	rep, err := d.Run(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"submit:0", "submit:1",
		"release:1", // due 150 <= arrival t 200
		"submit:2",
		"release:0", "release:2", // both due 250 <= t 300; seq tiebreak
		"submit:3", "submit:4",
		"release:4", // final drain
	}
	if got := strings.Join(fb.log, ","); got != strings.Join(want, ",") {
		t.Errorf("interleaving\n got %s\nwant %s", got, strings.Join(want, ","))
	}
	if rep.Totals.Released != 4 {
		t.Errorf("released %d, want 4 (HoldUs 0 stays admitted)", rep.Totals.Released)
	}
}

func TestStreamDriverMixSlotsEarlyRelease(t *testing.T) {
	fb := newFakeBackend()
	// Three arrivals in one burst, capacity 2: the third submit must be
	// preceded by an early release of the earliest-due held job (seq 0,
	// due 1000) even though virtual time is still 20.
	tr := handTrace([]Arrival{
		{Seq: 0, TUs: 0, Tenant: "a", Workload: "sgemm", HoldUs: 1000},
		{Seq: 1, TUs: 10, Tenant: "a", Workload: "sgemm", HoldUs: 2000},
		{Seq: 2, TUs: 20, Tenant: "b", Workload: "lbm", HoldUs: 1000},
	})
	d := &Driver{Backend: fb, MixSlots: 2}
	rep, err := d.Run(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Final drain is due-time ordered: seq 2 (due 1020) before seq 1
	// (due 2010).
	want := "submit:0,submit:1,release:0,submit:2,release:2,release:1"
	if got := strings.Join(fb.log, ","); got != want {
		t.Errorf("interleaving\n got %s\nwant %s", got, want)
	}
	if rep.Totals.Released != 3 {
		t.Errorf("released %d, want 3", rep.Totals.Released)
	}
}

func TestStreamDriverMixDeadlock(t *testing.T) {
	fb := newFakeBackend()
	// Capacity 1 and a permanently-held admit (HoldUs 0): the second
	// submit could never be decided — the driver must say so instead of
	// hanging.
	tr := handTrace([]Arrival{
		{Seq: 0, TUs: 0, Tenant: "a", Workload: "sgemm"},
		{Seq: 1, TUs: 10, Tenant: "b", Workload: "lbm"},
	})
	d := &Driver{Backend: fb, MixSlots: 1}
	_, err := d.Run(context.Background(), tr)
	if !errors.Is(err, ErrMixDeadlock) {
		t.Fatalf("err = %v, want ErrMixDeadlock", err)
	}
}

func TestStreamDriverBackendError(t *testing.T) {
	fb := newFakeBackend()
	fb.failOn = 2
	tr := handTrace([]Arrival{
		{Seq: 0, TUs: 0, Tenant: "a", Workload: "sgemm"},
		{Seq: 1, TUs: 1, Tenant: "a", Workload: "sgemm"},
		{Seq: 2, TUs: 2, Tenant: "b", Workload: "lbm"},
	})
	d := &Driver{Backend: fb}
	_, err := d.Run(context.Background(), tr)
	if err == nil {
		t.Fatal("driver swallowed a backend error")
	}
	if !strings.Contains(err.Error(), "arrival 2") || !strings.Contains(err.Error(), "tenant b") {
		t.Errorf("error %q lacks arrival context", err)
	}
}

func TestStreamDriverNeedsBackend(t *testing.T) {
	d := &Driver{}
	if _, err := d.Run(context.Background(), handTrace(nil)); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func TestStreamDriverContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &Driver{Backend: newFakeBackend()}
	_, err := d.Run(ctx, handTrace([]Arrival{{Seq: 0, Tenant: "a", Workload: "sgemm"}}))
	if err == nil {
		t.Fatal("cancelled context not honored")
	}
}
