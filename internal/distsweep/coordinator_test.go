package distsweep

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/schema"
	"repro/internal/workloads"
)

// testSpec is a small pair grid (2 pairs x 2 goals = 4 cases) on the
// CI-sized device.
func testSpec() Spec {
	cfg := config.Base()
	cfg.NumSMs = 4
	return Spec{
		Mode: ModePairs,
		Pairs: []workloads.Pair{
			{QoS: "sgemm", NonQoS: "lbm"},
			{QoS: "mri-q", NonQoS: "stencil"},
		},
		Goals:  schema.FracGoals([]float64{0.4, 0.7}),
		Scheme: "rollover",
		GPU:    cfg,
		Window: 30_000,
	}
}

// fakeClock is a mutable test clock for Config.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fakePayload fabricates a committed-looking case payload for index i
// without running the simulator: unit tests exercise the bookkeeping,
// the chaos suite exercises real execution.
func fakePayload(t *testing.T, sp Spec, i int) json.RawMessage {
	t.Helper()
	scheme, err := core.ParseScheme(sp.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	c := exp.PairCase{
		Pair:   sp.Pairs[i/len(sp.Goals)],
		Goal:   sp.Goals[i%len(sp.Goals)].Frac,
		Scheme: scheme,
		Res:    &core.Result{},
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sealedCase(t *testing.T, sp Spec, i int) CaseResult {
	t.Helper()
	cr := CaseResult{Index: i, Data: fakePayload(t, sp, i)}
	cr.Seal()
	return cr
}

func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Spec.Mode == "" {
		cfg.Spec = testSpec()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestGrantContiguousRanges(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoordinator(t, Config{Now: clk.Now, LeaseCases: 3})
	l1, resp, err := c.Grant("w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Start != 0 || l1.End != 3 {
		t.Fatalf("lease 1 = [%d,%d), want [0,3)", l1.Start, l1.End)
	}
	if resp.Remaining != 4 || resp.Done {
		t.Fatalf("resp = %+v", resp)
	}
	l2, _, err := c.Grant("w2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Start != 3 || l2.End != 4 {
		t.Fatalf("lease 2 = [%d,%d), want [3,4)", l2.Start, l2.End)
	}
	if l1.ID == l2.ID {
		t.Fatal("lease ids must be unique")
	}
	// Everything is leased: no work, not done.
	l3, resp, err := c.Grant("w3", 0)
	if err != nil || l3 != nil || resp.Done {
		t.Fatalf("Grant with all leased = (%v, %+v, %v), want nil lease", l3, resp, err)
	}
}

func TestLeaseExpiryReissuesOnlyUncommitted(t *testing.T) {
	clk := newFakeClock()
	ttl := 10 * time.Second
	c := newTestCoordinator(t, Config{Now: clk.Now, LeaseCases: 4, LeaseTTL: ttl})
	l1, _, err := c.Grant("w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Commit case 1 under the live lease, then let it expire.
	if _, err := c.Report(ReportRequest{Lease: l1.ID, Worker: "w1", Cases: []CaseResult{sealedCase(t, c.Spec(), 1)}}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(ttl + time.Second)
	l2, _, err := c.Grant("w2", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Contiguous prefix of the free pool is [0,1); case 1 must be gone.
	if l2.Start != 0 || l2.End != 1 {
		t.Fatalf("re-issued lease = [%d,%d), want [0,1) — committed case re-leased?", l2.Start, l2.End)
	}
	l3, _, err := c.Grant("w2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if l3.Start != 2 || l3.End != 4 {
		t.Fatalf("next lease = [%d,%d), want [2,4)", l3.Start, l3.End)
	}
	if st := c.State(); st.Expired != 1 {
		t.Fatalf("expired leases = %d, want 1", st.Expired)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clk := newFakeClock()
	ttl := 10 * time.Second
	c := newTestCoordinator(t, Config{Now: clk.Now, LeaseTTL: ttl, LeaseCases: 4})
	l, _, err := c.Grant("w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clk.Advance(ttl / 2)
		if hr := c.Heartbeat(l.ID); hr.Expired {
			t.Fatalf("heartbeat %d reported expired", i)
		}
	}
	clk.Advance(ttl + time.Second)
	if hr := c.Heartbeat(l.ID); !hr.Expired {
		t.Fatal("missed heartbeat must expire the lease")
	}
}

// TestDoubleReportAfterReissueIsDeduped is the regression test for
// idempotent result merging: after a lease expires and its range is
// re-issued, BOTH the presumed-dead worker and the new worker report the
// same case. The journal must record the case exactly once and the
// second delivery must count as a duplicate — a duplicate append would
// poison bit-identical resume.
func TestDoubleReportAfterReissueIsDeduped(t *testing.T) {
	clk := newFakeClock()
	ttl := 5 * time.Second
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	c := newTestCoordinator(t, Config{Now: clk.Now, LeaseTTL: ttl, LeaseCases: 2, Journal: path})
	sp := c.Spec()

	l1, _, err := c.Grant("slow", 0) // [0,2)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(ttl + time.Second) // slow worker misses its heartbeat
	l2, _, err := c.Grant("fast", 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Start != l1.Start || l2.End != l1.End {
		t.Fatalf("re-issued lease [%d,%d) != original [%d,%d)", l2.Start, l2.End, l1.Start, l1.End)
	}

	// Fast worker completes the re-issued range first.
	r2, err := c.Report(ReportRequest{Lease: l2.ID, Worker: "fast",
		Cases: []CaseResult{sealedCase(t, sp, 0), sealedCase(t, sp, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Accepted != 2 || r2.Duplicates != 0 {
		t.Fatalf("fast report = %+v", r2)
	}
	merged := c.Results()

	// Slow worker wakes up and double-reports the same cases under its
	// expired lease.
	r1, err := c.Report(ReportRequest{Lease: l1.ID, Worker: "slow",
		Cases: []CaseResult{sealedCase(t, sp, 0), sealedCase(t, sp, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Accepted != 0 || r1.Duplicates != 2 || !r1.Orphaned {
		t.Fatalf("late report = %+v, want 0 accepted / 2 duplicates / orphaned", r1)
	}

	// Merged results are unchanged by the duplicate delivery.
	for i, raw := range c.Results() {
		if !bytes.Equal(raw, merged[i]) {
			t.Fatalf("case %d changed after duplicate delivery", i)
		}
	}

	// The journal holds exactly one line per committed case: count raw
	// case lines, not just the (last-wins) restored map.
	perIndex := journalCaseLines(t, path)
	for i, n := range perIndex {
		if n != 1 {
			t.Fatalf("journal has %d lines for case %d, want exactly 1", n, i)
		}
	}
	if len(perIndex) != 2 {
		t.Fatalf("journal holds %d cases, want 2", len(perIndex))
	}
}

func TestJournalResumeSkipsCommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	clk := newFakeClock()
	c := newTestCoordinator(t, Config{Now: clk.Now, Journal: path, LeaseCases: 4})
	sp := c.Spec()
	l, _, err := c.Grant("w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(ReportRequest{Lease: l.ID, Worker: "w1",
		Cases: []CaseResult{sealedCase(t, sp, 0), sealedCase(t, sp, 2)}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Without Resume, a journal with prior results is refused (the same
	// contract as cmd/sweep's -resume flag).
	if _, err := New(Config{Spec: sp, Journal: path}); err == nil {
		t.Fatal("reopening a non-empty journal without Resume must fail")
	}

	c2 := newTestCoordinator(t, Config{Spec: sp, Now: clk.Now, Journal: path, Resume: true, LeaseCases: 4})
	if st := c2.State(); st.Committed != 2 {
		t.Fatalf("restored committed = %d, want 2", st.Committed)
	}
	// Only the uncommitted cases are ever leased again.
	seen := map[int]bool{}
	for {
		l, resp, err := c2.Grant("w2", 0)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			if resp.Done {
				t.Fatal("done before uncommitted cases leased")
			}
			break
		}
		for i := l.Start; i < l.End; i++ {
			seen[i] = true
		}
	}
	if seen[0] || seen[2] || !seen[1] || !seen[3] {
		t.Fatalf("re-leased cases = %v, want exactly {1,3}", seen)
	}
}

func TestPermanentFailureAfterMaxAttempts(t *testing.T) {
	clk := newFakeClock()
	ttl := 5 * time.Second
	c := newTestCoordinator(t, Config{Now: clk.Now, LeaseTTL: ttl, LeaseCases: 4, MaxCaseAttempts: 2})
	sp := c.Spec()
	for attempt := 0; attempt < 2; attempt++ {
		l, _, err := c.Grant("w1", 0)
		if err != nil {
			t.Fatal(err)
		}
		if l.Start != 0 {
			t.Fatalf("attempt %d leased [%d,%d), want start 0", attempt, l.Start, l.End)
		}
		var cases []CaseResult
		for i := l.Start + 1; i < l.End; i++ {
			if attempt == 0 {
				cases = append(cases, sealedCase(t, sp, i))
			}
		}
		if _, err := c.Report(ReportRequest{Lease: l.ID, Worker: "w1",
			Cases:  cases,
			Failed: []CaseFailure{{Index: 0, Error: "injected"}}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("sweep must be done once every case is committed or permanently failed")
	}
	failed := c.FailedCases()
	if len(failed) != 1 || failed[0] != "injected" {
		t.Fatalf("failed = %v, want case 0 injected", failed)
	}
	if st := c.State(); !st.Done || st.Committed != 3 || st.Failed != 1 {
		t.Fatalf("state = %+v", st)
	}
}

func TestDrainStopsGrantsKeepsReports(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoordinator(t, Config{Now: clk.Now, LeaseCases: 2})
	sp := c.Spec()
	l, _, err := c.Grant("w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if _, _, err := c.Grant("w2", 0); err != ErrDraining {
		t.Fatalf("Grant while draining = %v, want ErrDraining", err)
	}
	// In-flight results still land.
	r, err := c.Report(ReportRequest{Lease: l.ID, Worker: "w1", Cases: []CaseResult{sealedCase(t, sp, 0)}})
	if err != nil || r.Accepted != 1 {
		t.Fatalf("Report while draining = (%+v, %v)", r, err)
	}
}

func TestMaxLeasesBackpressure(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoordinator(t, Config{Now: clk.Now, LeaseCases: 1, MaxLeases: 2})
	for i := 0; i < 2; i++ {
		if _, _, err := c.Grant("w", 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Grant("w", 0); err != ErrBusy {
		t.Fatalf("Grant beyond MaxLeases = %v, want ErrBusy", err)
	}
}

func TestReportRejectsOutOfGridIndex(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoordinator(t, Config{Now: clk.Now, LeaseCases: 4})
	l, _, err := c.Grant("w1", 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := CaseResult{Index: 99, Data: fakePayload(t, c.Spec(), 0)}
	bad.Seal()
	if _, err := c.Report(ReportRequest{Lease: l.ID, Worker: "w1", Cases: []CaseResult{bad}}); err == nil {
		t.Fatal("out-of-grid index must be rejected")
	}
}

// TestStageKeyMatchesRunner pins the journal-interop contract: the
// coordinator's stage key equals the key a local Runner derives for the
// same grid, so journals written by either are interchangeable, and both
// equal the keys journals have always been written under.
func TestStageKeyMatchesRunner(t *testing.T) {
	trios := testSpec()
	trios.Mode, trios.NQoS = ModeTrios, 2
	trios.Trios = []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}}
	for _, tc := range []struct {
		sp   Spec
		want string
	}{
		{testSpec(), "pairs/rollover/0f3707296f5c/508ef24092c9"},
		{trios, "trios/rollover/0f3707296f5c/e882363bd538"},
	} {
		stage, err := tc.sp.StageKey()
		if err != nil {
			t.Fatal(err)
		}
		if stage != tc.want {
			t.Errorf("%s stage key %q, journals hold %q", tc.sp.Mode, stage, tc.want)
		}
		r, err := exp.NewRunner(1, exp.WithSessionOptions(tc.sp.SessionOptions()...))
		if err != nil {
			t.Fatal(err)
		}
		s := r.Session()
		runner, err := tc.sp.grid().StageKey(s.Config(), s.Seed(), core.SchemeRollover)
		if err != nil {
			t.Fatal(err)
		}
		if stage != runner {
			t.Errorf("%s stage key %q != runner's %q", tc.sp.Mode, stage, runner)
		}
	}
}
