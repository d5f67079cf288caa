package distsweep

// The deterministic chaos harness: real coordinator + real workers over
// real HTTP (httptest), with scripted failures at every seam —
// worker kills (context cancel at the Nth case), dropped / duplicated /
// delayed result deliveries (a chaos RoundTripper), blackholed
// heartbeats and lease expiries, and injected simulation faults
// (core.WithFaultInjector). Lease time belongs to the test: the
// coordinator reads a fakeClock through Config.Now, so a lease expires
// exactly when a scenario steps the clock past the TTL and never because
// the machine was slow. Every scenario ends with the same two assertions:
//
//  1. the merged results are byte-identical to a serial in-process run
//     of the same grid (the headline robustness guarantee), and
//  2. the journal holds exactly one line per case — no committed case
//     was ever re-executed into a duplicate append.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/schema"
	"repro/internal/workloads"
)

// chaosSpec is the reference chaos grid: 3 pairs x 2 goals = 6 cases on
// the CI-sized device, small enough to sweep serially in-process for
// the byte-identity oracle.
func chaosSpec() Spec {
	cfg := config.Base()
	cfg.NumSMs = 4
	return Spec{
		Mode: ModePairs,
		Pairs: []workloads.Pair{
			{QoS: "sgemm", NonQoS: "lbm"},
			{QoS: "mri-q", NonQoS: "stencil"},
			{QoS: "lbm", NonQoS: "sgemm"},
		},
		Goals:  schema.FracGoals([]float64{0.4, 0.7}),
		Scheme: "rollover",
		GPU:    cfg,
		Window: 30_000,
	}
}

// serialOracle runs the grid serially in-process and returns the
// marshaled per-case payloads every distributed run must reproduce
// byte for byte.
func serialOracle(t *testing.T, sp Spec) [][]byte {
	t.Helper()
	s, err := core.NewSession(sp.SessionOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.ParseScheme(sp.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := exp.PairSweep(context.Background(), s, sp.Pairs, sp.grid().Goals, scheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(cases))
	for i, c := range cases {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// assertMergedIdentical is the headline check: merged distributed
// results == serial run, byte for byte, in grid order.
func assertMergedIdentical(t *testing.T, c *Coordinator, want [][]byte) {
	t.Helper()
	got := c.Results()
	if len(got) != len(want) {
		t.Fatalf("merged %d cases, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == nil {
			t.Fatalf("case %d missing from merge", i)
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("case %d differs from serial run:\n serial: %s\n merged: %s", i, want[i], got[i])
		}
	}
}

// journalCaseLines reads the raw journal up to its pad (the NUL bytes
// past the last line) and counts the case lines per index, failing on a
// damaged line.
func journalCaseLines(t *testing.T, path string) map[int]int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexByte(raw, 0); i >= 0 {
		raw = raw[:i]
	}
	perIndex := map[int]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		rec, err := journal.Decode([]byte(line))
		if err != nil {
			t.Fatalf("journal line damaged: %v", err)
		}
		if !rec.Header {
			perIndex[rec.Index]++
		}
	}
	return perIndex
}

// assertJournalSingleLines parses the raw journal and fails on any
// duplicate case append — the bit-identical-resume poison the dedupe
// layer exists to prevent.
func assertJournalSingleLines(t *testing.T, path string, total int) {
	t.Helper()
	perIndex := journalCaseLines(t, path)
	if len(perIndex) != total {
		t.Fatalf("journal holds %d cases, want %d", len(perIndex), total)
	}
	for i, n := range perIndex {
		if n != 1 {
			t.Fatalf("journal has %d lines for case %d, want exactly 1", n, i)
		}
	}
}

// chaosRule scripts one transport fault. Kind selects the request
// ("results", "heartbeat", "leases", "spec"); Nth is the 1-based match
// ordinal it fires on (0 = every match).
type chaosRule struct {
	kind   string
	nth    int
	action string // "drop" | "dupfail" | "delay"
	delay  time.Duration
}

// chaosTransport applies scripted faults to a worker's HTTP requests:
//
//	drop    — the request never reaches the coordinator; the worker sees
//	          a transport error (tests retry + degraded local execution)
//	dupfail — the request IS delivered, but the worker sees an error and
//	          retries, producing a duplicated delivery
//	delay   — the request is held before delivery, reordering it against
//	          other workers' traffic
type chaosTransport struct {
	base   http.RoundTripper
	mu     sync.Mutex
	counts map[string]int
	rules  []chaosRule
}

func newChaosTransport(rules ...chaosRule) *chaosTransport {
	return &chaosTransport{base: http.DefaultTransport, counts: map[string]int{}, rules: rules}
}

func reqKind(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/results"):
		return "results"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(p, "/leases"):
		return "leases"
	case strings.HasSuffix(p, "/spec"):
		return "spec"
	}
	return "other"
}

func (c *chaosTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	kind := reqKind(r)
	c.mu.Lock()
	c.counts[kind]++
	n := c.counts[kind]
	var rule *chaosRule
	for i := range c.rules {
		if c.rules[i].kind == kind && (c.rules[i].nth == 0 || c.rules[i].nth == n) {
			rule = &c.rules[i]
			break
		}
	}
	c.mu.Unlock()
	if rule == nil {
		return c.base.RoundTrip(r)
	}
	switch rule.action {
	case "drop":
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, fmt.Errorf("chaos: dropped %s #%d", kind, n)
	case "dupfail":
		resp, err := c.base.RoundTrip(r)
		if err != nil {
			return nil, err
		}
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: delivered-then-failed %s #%d", kind, n)
	case "delay":
		select {
		case <-r.Context().Done():
			return nil, r.Context().Err()
		case <-time.After(rule.delay):
		}
		return c.base.RoundTrip(r)
	}
	return c.base.RoundTrip(r)
}

// execRecorder tracks per-case execution counts across all workers, for
// the no-committed-case-re-executed assertion.
type execRecorder struct {
	mu    sync.Mutex
	count map[int]int
}

func newExecRecorder() *execRecorder { return &execRecorder{count: map[int]int{}} }

func (r *execRecorder) record(i int) {
	r.mu.Lock()
	r.count[i]++
	r.mu.Unlock()
}

func (r *execRecorder) snapshot() map[int]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]int, len(r.count))
	for k, v := range r.count {
		out[k] = v
	}
	return out
}

// chaosWorkerOpts configures one spawned test worker.
type chaosWorkerOpts struct {
	name      string
	transport *chaosTransport
	faults    core.FaultInjector
	onCase    func(w *Worker, ev WorkerEvent)
	flush     int
	retries   retry.Policy
	sessions  int // the runner's session pool (0 = one)
}

// startWorker fetches the spec over the (possibly chaotic) transport,
// builds the worker's runner (one session unless o.sessions says more),
// and runs the worker in a goroutine.
func startWorker(t *testing.T, ctx context.Context, addr string, o chaosWorkerOpts, rec *execRecorder) (*Worker, <-chan error) {
	t.Helper()
	client := http.DefaultClient
	if o.transport != nil {
		client = &http.Client{Transport: o.transport}
	}
	fetchPol := retry.Policy{MaxAttempts: 5, BaseDelay: 20 * time.Millisecond, Seed: 1}
	spec, _, err := FetchSpec(ctx, http.DefaultClient, addr, fetchPol) // spec fetch stays clean; chaos targets the work loop
	if err != nil {
		t.Fatal(err)
	}
	sessOpts := spec.SessionOptions()
	if o.faults != nil {
		sessOpts = append(sessOpts, core.WithFaultInjector(o.faults))
	}
	runner, err := exp.NewRunner(max(o.sessions, 1),
		exp.WithSessionOptions(sessOpts...),
		exp.WithFaultPolicy(exp.FaultPolicy{Retry: retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Seed: 7}}))
	if err != nil {
		t.Fatal(err)
	}
	pol := o.retries
	if pol.MaxAttempts == 0 {
		pol = retry.Policy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond, Multiplier: 2, Jitter: 0.2, Seed: uint64(len(o.name))}
	}
	var w *Worker
	w, err = NewWorker(WorkerConfig{
		Addr:         addr,
		Name:         o.name,
		Runner:       runner,
		Spec:         spec,
		Client:       client,
		Retry:        pol,
		FlushCases:   o.flush,
		PollInterval: 50 * time.Millisecond,
		OnEvent: func(ev WorkerEvent) {
			if ev.Kind == "case" {
				rec.record(ev.Index)
				if o.onCase != nil {
					o.onCase(w, ev)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- w.Run(ctx) }()
	return w, errCh
}

// chaosCoordinator builds a journaled coordinator + HTTP server for the
// chaos grid. Lease deadlines run on clk: the TTL still sets the workers'
// real heartbeat cadence (TTL/3), but nothing expires until the test
// advances the clock.
func chaosCoordinator(t *testing.T, sp Spec, leaseCases int, ttl time.Duration, clk *fakeClock) (*Coordinator, *httptest.Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chaos.ckpt")
	c, err := New(Config{Spec: sp, Journal: path, LeaseCases: leaseCases, LeaseTTL: ttl, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() { ts.Close(); c.Close() })
	return c, ts, path
}

func waitDone(t *testing.T, c *Coordinator, timeout time.Duration) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(timeout):
		t.Fatalf("sweep did not complete: state %+v", c.State())
	}
}

// TestCoordinationCostPerCase is the harness's fault-free baseline and
// the pin on what coordination costs: one worker sweeps the chaos grid
// and the control plane may exchange exactly
//
//	leases  = ⌈total / LeaseCases⌉
//	reports = Σ over leases ⌈lease size / FlushCases⌉
//
// messages, with nothing duplicated, expired or orphaned. Counts, not a
// distributed-vs-local wall-clock ratio: simulation dominates both sides
// of that ratio, so it reads the noise of two timings, and counts are
// the same on any runner.
func TestCoordinationCostPerCase(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sp := chaosSpec() // 6 cases
	want := serialOracle(t, sp)
	for _, tc := range []struct {
		name              string
		leaseCases, flush int // 0 = package default
		leases, reports   int64
	}{
		{"defaults", 0, 0, 1, 2},      // one lease of 6, flushed as 4+2
		{"lease2-flush1", 2, 1, 3, 6}, // three leases of 2, one report per case
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, ts, jpath := chaosCoordinator(t, sp, tc.leaseCases, 5*time.Second, newFakeClock())
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			_, errW := startWorker(t, ctx, ts.URL, chaosWorkerOpts{name: "solo", flush: tc.flush}, newExecRecorder())
			waitDone(t, coord, 55*time.Second)
			if err := <-errW; err != nil {
				t.Fatalf("worker: %v", err)
			}

			assertMergedIdentical(t, coord, want)
			assertJournalSingleLines(t, jpath, sp.grid().Len())
			coord.mu.Lock()
			granted, reports, dups := coord.granted, coord.reports, coord.duplicates
			coord.mu.Unlock()
			if granted != tc.leases || reports != tc.reports {
				t.Errorf("control plane used %d leases and %d reports for %d cases, want %d and %d",
					granted, reports, sp.grid().Len(), tc.leases, tc.reports)
			}
			if st := coord.State(); dups != 0 || st.Expired != 0 || st.Orphans != 0 {
				t.Errorf("fault-free sweep saw %d duplicates, state %+v", dups, st)
			}
		})
	}
}

// TestChaosDeliveryFaults drives two workers through dropped,
// duplicated and delayed result deliveries plus an injected transient
// simulation fault — and requires a byte-identical merge anyway.
func TestChaosDeliveryFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sp := chaosSpec()
	want := serialOracle(t, sp)
	coord, ts, jpath := chaosCoordinator(t, sp, 2, 5*time.Second, newFakeClock())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rec := newExecRecorder()

	// Worker A: first delivery dropped (retry heals it), second delivered
	// twice (dedupe absorbs it). Case 3 also fails its first simulation
	// attempt via the deterministic injector (runner-level retry heals it).
	faults := exp.NewScriptedFaults(map[int][]exp.FaultSpec{
		3: {{Err: fmt.Errorf("injected transient sim fault")}},
	})
	wA, errA := startWorker(t, ctx, ts.URL, chaosWorkerOpts{
		name: "chaos-a",
		transport: newChaosTransport(
			chaosRule{kind: "results", nth: 1, action: "drop"},
			chaosRule{kind: "results", nth: 2, action: "dupfail"},
		),
		faults: faults,
		flush:  2,
	}, rec)
	// Worker B: first delivery delayed behind A's traffic (reordering).
	_, errB := startWorker(t, ctx, ts.URL, chaosWorkerOpts{
		name: "chaos-b",
		transport: newChaosTransport(
			chaosRule{kind: "results", nth: 1, action: "delay", delay: 150 * time.Millisecond},
		),
		flush: 2,
	}, rec)

	waitDone(t, coord, 55*time.Second)
	if err := <-errA; err != nil {
		t.Fatalf("worker A: %v", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("worker B: %v", err)
	}

	assertMergedIdentical(t, coord, want)
	assertJournalSingleLines(t, jpath, sp.grid().Len())
	if st := coord.State(); !st.Done || st.Failed != 0 {
		t.Fatalf("state = %+v", st)
	}
	// The dupfail rule guarantees at least one duplicated delivery made
	// it to the coordinator and was absorbed.
	if wA.Stats().Duplicates == 0 {
		t.Fatal("chaos dupfail produced no observed duplicate — transport rule did not fire")
	}
}

// stallFirstCase is a core.FaultInjector that parks the first sweep case
// it sees — whichever index the worker was leased — until the test
// releases it: the hung worker of the lease-expiry scenario, without a
// sleep to size.
type stallFirstCase struct {
	once    sync.Once
	stalled chan struct{} // closed once the worker is parked inside its case
	release chan struct{} // closed by the test to let the case run
}

func newStallFirstCase() *stallFirstCase {
	return &stallFirstCase{stalled: make(chan struct{}), release: make(chan struct{})}
}

func (s *stallFirstCase) Inject(ctx context.Context) error {
	if _, ok := core.CaseIndexFromContext(ctx); !ok {
		return nil // an isolated baseline, not a sweep case
	}
	var err error
	s.once.Do(func() {
		close(s.stalled)
		select {
		case <-s.release:
		case <-ctx.Done():
			err = ctx.Err()
		}
	})
	return err
}

// TestChaosLeaseExpiryRace blackholes one worker's heartbeats and hangs
// its first case; the test then steps the lease clock past the TTL, so
// the lease expires mid-execution, the range is re-issued to a second
// worker, and — the hung case being released once the second worker has
// run one — both end up reporting overlapping cases. Dedupe must keep the
// journal single-lined and the merge byte-identical.
func TestChaosLeaseExpiryRace(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sp := chaosSpec()
	want := serialOracle(t, sp)
	ttl := 300 * time.Millisecond
	clk := newFakeClock()
	coord, ts, jpath := chaosCoordinator(t, sp, 2, ttl, clk)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rec := newExecRecorder()

	// Worker A: heartbeats never arrive, and its first case hangs inside
	// the simulator.
	stall := newStallFirstCase()
	_, errA := startWorker(t, ctx, ts.URL, chaosWorkerOpts{
		name:      "chaos-slow",
		transport: newChaosTransport(chaosRule{kind: "heartbeat", action: "drop"}),
		faults:    stall,
		flush:     1,
	}, rec)
	select {
	case <-stall.stalled:
	case <-ctx.Done():
		t.Fatal("worker A never started a case")
	}
	// A holds the only lease and cannot finish; time passes it by.
	clk.Advance(2 * ttl)
	if st := coord.State(); st.Expired != 1 {
		t.Fatalf("stepping the clock past the TTL expired %d leases, want A's one: %+v", st.Expired, st)
	}
	// Worker B picks up the re-issued range; A wakes once B has executed
	// a case, so the two overlap.
	var releaseA sync.Once
	_, errB := startWorker(t, ctx, ts.URL, chaosWorkerOpts{
		name:   "chaos-fast",
		flush:  1,
		onCase: func(*Worker, WorkerEvent) { releaseA.Do(func() { close(stall.release) }) },
	}, rec)

	waitDone(t, coord, 55*time.Second)
	if err := <-errA; err != nil {
		t.Fatalf("worker A: %v", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("worker B: %v", err)
	}

	assertMergedIdentical(t, coord, want)
	assertJournalSingleLines(t, jpath, sp.grid().Len())
	// A ran its hung case after B had already run one from the same
	// re-issued range: at least one case was executed by both.
	overlap := false
	for _, n := range rec.snapshot() {
		overlap = overlap || n > 1
	}
	if !overlap {
		t.Fatal("no case was executed twice — the expired and the re-issued lease never overlapped")
	}
}

// TestSoakKillOne is the acceptance soak: three workers, one killed
// mid-lease before it delivers anything. The test steps the lease clock
// past the TTL once it is dead, the range is re-issued, the survivors
// finish — and the merged report must be
// byte-identical to the serial run, with no journal-committed case
// re-executed afterwards (asserted by snapshotting execution counts at
// the kill and comparing against the committed set).
func TestSoakKillOne(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sp := chaosSpec()
	want := serialOracle(t, sp)
	ttl := 400 * time.Millisecond
	clk := newFakeClock()
	coord, ts, jpath := chaosCoordinator(t, sp, 2, ttl, clk)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rec := newExecRecorder()

	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	var killOnce sync.Once
	type killState struct {
		execAtKill      map[int]int
		committedAtKill map[int]bool
		victimIndex     int
	}
	var ks killState

	// The victim dies synchronously inside its first case event — after
	// executing one case, before any delivery (flush size 2).
	victim, errV := startWorker(t, victimCtx, ts.URL, chaosWorkerOpts{
		name:  "victim",
		flush: 2,
		onCase: func(_ *Worker, ev WorkerEvent) {
			killOnce.Do(func() {
				ks.execAtKill = rec.snapshot()
				ks.committedAtKill = map[int]bool{}
				for i, raw := range coord.Results() {
					if raw != nil {
						ks.committedAtKill[i] = true
					}
				}
				ks.victimIndex = ev.Index
				kill()
			})
		},
	}, rec)
	_, err1 := startWorker(t, ctx, ts.URL, chaosWorkerOpts{name: "survivor-1", flush: 2}, rec)
	_, err2 := startWorker(t, ctx, ts.URL, chaosWorkerOpts{name: "survivor-2", flush: 2}, rec)

	if err := <-errV; err == nil {
		t.Fatal("victim was never killed")
	}
	if victim.Stats().CasesDelivered != 0 {
		t.Fatalf("victim delivered %d cases before dying; kill schedule broken", victim.Stats().CasesDelivered)
	}
	// The dead worker's lease runs out. Leases the survivors hold at this
	// instant expire with it; only uncommitted cases return to the pool,
	// so that costs duplicate executions the dedupe layer absorbs, never
	// a re-run of a committed case.
	clk.Advance(2 * ttl)
	if st := coord.State(); st.Expired == 0 {
		t.Fatalf("victim's lease did not expire with the clock past the TTL: %+v", st)
	}
	waitDone(t, coord, 55*time.Second)
	if err := <-err1; err != nil {
		t.Fatalf("survivor 1: %v", err)
	}
	if err := <-err2; err != nil {
		t.Fatalf("survivor 2: %v", err)
	}

	// Headline guarantee: kill-any-single-worker changes nothing.
	assertMergedIdentical(t, coord, want)
	assertJournalSingleLines(t, jpath, sp.grid().Len())

	// No journal-committed case was re-executed: whatever was committed
	// at the kill kept its execution count to the end.
	final := rec.snapshot()
	for i := range ks.committedAtKill {
		if final[i] != ks.execAtKill[i] {
			t.Fatalf("committed case %d re-executed after the kill (%d -> %d executions)",
				i, ks.execAtKill[i], final[i])
		}
	}
	// The victim's in-flight case was lost with it and must have been
	// re-executed by a survivor.
	if final[ks.victimIndex] < 2 {
		t.Fatalf("victim's case %d executed %d times; lease re-issue never re-ran it", ks.victimIndex, final[ks.victimIndex])
	}

	// The merged CSV equals one built straight from the serial cases.
	var distCSV bytes.Buffer
	if err := coord.WriteCSV(&distCSV); err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	{
		s, err := core.NewSession(sp.SessionOptions()...)
		if err != nil {
			t.Fatal(err)
		}
		scheme, _ := core.ParseScheme(sp.Scheme)
		g := sp.grid()
		cases, err := exp.PairSweep(context.Background(), s, sp.Pairs, g.Goals, scheme, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantCSV.WriteString(strings.Join(g.CSVHeader(), ",") + "\n")
		for _, row := range g.CSVRows(exp.Cases{Pairs: cases}) {
			wantCSV.WriteString(strings.Join(row, ",") + "\n")
		}
	}
	if distCSV.String() != wantCSV.String() {
		t.Fatalf("merged CSV differs from serial CSV:\n--- serial ---\n%s\n--- merged ---\n%s", wantCSV.String(), distCSV.String())
	}
}

// meetTwo is a core.FaultInjector that holds every sweep case at the
// simulator's door until a second one has arrived: a worker that runs its
// lease one case at a time never gets past its first case.
type meetTwo struct {
	mu      sync.Mutex
	arrived int
	both    chan struct{} // closed when the second case arrives
}

func (m *meetTwo) Inject(ctx context.Context) error {
	if _, ok := core.CaseIndexFromContext(ctx); !ok {
		return nil // an isolated baseline, not a sweep case
	}
	m.mu.Lock()
	if m.arrived++; m.arrived == 2 {
		close(m.both)
	}
	m.mu.Unlock()
	select {
	case <-m.both:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestWorkerUsesWholePool gives a worker whose runner has two sessions one
// lease of four cases. A case leaves the simulator's door only once two
// cases stand there together, so the lease completes only if the worker
// runs it across its whole pool, not one case at a time.
func TestWorkerUsesWholePool(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sp := testSpec() // 4 cases
	want := serialOracle(t, sp)
	coord, ts, jpath := chaosCoordinator(t, sp, 4, 5*time.Second, newFakeClock())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	meet := &meetTwo{both: make(chan struct{})}
	_, errW := startWorker(t, ctx, ts.URL, chaosWorkerOpts{name: "pool", faults: meet, sessions: 2}, newExecRecorder())
	select {
	case <-meet.both:
	case <-ctx.Done():
		t.Fatal("no two cases of the lease were ever in the simulator together: the worker runs its lease one case at a time")
	}
	waitDone(t, coord, 25*time.Second)
	if err := <-errW; err != nil {
		t.Fatalf("worker: %v", err)
	}
	assertMergedIdentical(t, coord, want)
	assertJournalSingleLines(t, jpath, sp.grid().Len())
}
