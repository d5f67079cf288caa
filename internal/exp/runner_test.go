package exp

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

// testRunner builds a small-device runner sized for CI; extra runner
// options (WithCaseTimeout, WithTraceDir) apply after the base ones.
func testRunner(t *testing.T, workers int, ropts ...Option) *Runner {
	t.Helper()
	cfg := config.Base()
	cfg.NumSMs = 4
	opts := append([]Option{WithSessionOptions(core.WithGPU(cfg), core.WithWindow(30_000))}, ropts...)
	r, err := NewRunner(workers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sweep collects every case of g under scheme through Study.Collect, as
// cmd/sweep does, without a row store: the cases in case order, the
// sweep's report, nil when it did not run to the end, and its error.
func sweep(ctx context.Context, r *Runner, g Grid, scheme core.Scheme, progress ProgressFunc) ([]Case, *SweepReport, error) {
	st := Study{Runner: r, Pairs: g.Pairs, Trios: g.Trios, Goals: g.Goals, Goals2: g.Goals, Progress: progress}
	rows, err := st.Collect(ctx, []Sweep{{Name: scheme.String(), Scheme: scheme, NQoS: g.NQoS}})
	if len(rows) == 0 {
		return nil, nil, err
	}
	return rows[0].Cases, rows[0].Report, err
}

func TestNewRunnerDefaults(t *testing.T) {
	r := testRunner(t, 0)
	if r.workers < 1 {
		t.Fatalf("workers = %d", r.workers)
	}
	if r.Session().GPUConfig().NumSMs != 4 || r.Session().Window() != 30_000 {
		t.Fatal("runner did not propagate options to sessions")
	}
	if r.Session() == nil {
		t.Fatal("no session exposed")
	}
}

// TestPairSweepSerialParallelEquivalence is the engine's core guarantee:
// the parallel sweep produces results bit-identical to the serial
// reference implementation, in the same deterministic case order.
func TestPairSweepSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	pairs := []workloads.Pair{
		{QoS: "sgemm", NonQoS: "lbm"},
		{QoS: "mri-q", NonQoS: "stencil"},
		{QoS: "lbm", NonQoS: "sgemm"},
	}
	goals := []float64{0.4, 0.7}
	ctx := context.Background()

	serialSession, err := core.NewSession(core.WithGPU(func() config.GPU {
		c := config.Base()
		c.NumSMs = 4
		return c
	}()), core.WithWindow(30_000))
	if err != nil {
		t.Fatal(err)
	}
	want, err := PairSweep(ctx, serialSession, pairs, goals, core.SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}

	r := testRunner(t, 4)
	g := Grid{Pairs: pairs, Goals: goals}
	got, _, err := sweep(ctx, r, g, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel pair sweep diverged from the serial reference")
	}
	// A second run over the same runner must also be identical (the
	// isolated cache must not change results, only speed).
	again, _, err := sweep(ctx, r, g, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("repeat parallel sweep diverged")
	}
}

func TestTrioSweepSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	trios := []workloads.Trio{
		{A: "sgemm", B: "mri-q", C: "lbm"},
		{A: "lbm", B: "stencil", C: "sgemm"},
	}
	goals := []float64{0.3}
	ctx := context.Background()

	r := testRunner(t, 4)
	got, _, err := sweep(ctx, r, Grid{Trios: trios, Goals: goals, NQoS: 2}, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TrioSweep(ctx, r.Session(), trios, goals, 2, core.SchemeRollover)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel trio sweep diverged from the serial reference")
	}
}

// TestPairSweepProgress checks the progress stream: monotonic Done, one
// event per case, final event at Done == Total.
func TestPairSweepProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	pairs := []workloads.Pair{{QoS: "sgemm", NonQoS: "lbm"}}
	goals := []float64{0.4, 0.6, 0.8}
	var events []Progress
	r := testRunner(t, 2)
	_, rep, err := sweep(context.Background(), r, Grid{Pairs: pairs, Goals: goals}, core.SchemeRollover,
		func(p Progress) { events = append(events, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(pairs)*len(goals) {
		t.Fatalf("%d progress events, want %d", len(events), len(pairs)*len(goals))
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != 3 {
			t.Fatalf("event %d = %+v", i, p)
		}
	}
	last := events[len(events)-1]
	if last.CasesPerSec <= 0 || last.ETA != 0 {
		t.Fatalf("final event rate/ETA: %+v", last)
	}
	if rep.Total != 3 || rep.Completed != 3 || rep.Stage != core.SchemeRollover.String() || rep.Wall <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestPairSweepCancelMidSweep cancels from inside the first progress
// callback and expects a prompt context.Canceled, not a full sweep.
func TestPairSweepCancelMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	pairs := []workloads.Pair{
		{QoS: "sgemm", NonQoS: "lbm"},
		{QoS: "mri-q", NonQoS: "stencil"},
		{QoS: "lbm", NonQoS: "sgemm"},
		{QoS: "stencil", NonQoS: "mri-q"},
	}
	goals := Goals()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	_, _, err := sweep(ctx, testRunner(t, 2), Grid{Pairs: pairs, Goals: goals}, core.SchemeRollover,
		func(p Progress) {
			done = p.Done
			cancel()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if done >= len(pairs)*len(goals) {
		t.Fatal("sweep ran to completion despite cancellation")
	}
}

func TestPairSweepPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := sweep(ctx, testRunner(t, 2),
		Grid{Pairs: []workloads.Pair{{QoS: "sgemm", NonQoS: "lbm"}}, Goals: []float64{0.5}},
		core.SchemeRollover, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGridCheckRejectsBadNQoS: a grid is pairs (NQoS 0) or trios with one
// or two QoS kernels, and has at least one case; Collect refuses any other.
func TestGridCheckRejectsBadNQoS(t *testing.T) {
	trios := []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}}
	for _, n := range []int{-1, 3} {
		if err := (Grid{Trios: trios, Goals: []float64{0.3}, NQoS: n}).Check(); err == nil {
			t.Errorf("accepted nQoS=%d", n)
		}
	}
	if err := (Grid{Trios: trios, NQoS: 2}).Check(); err == nil {
		t.Error("accepted a grid without goals")
	}
	if err := (Grid{Trios: trios, Goals: []float64{0.3}, NQoS: 2}).Check(); err != nil {
		t.Errorf("refused a two-QoS trio grid: %v", err)
	}
	if _, _, err := sweep(context.Background(), testRunner(t, 1),
		Grid{Trios: trios, Goals: []float64{0.3}, NQoS: 3}, core.SchemeRollover, nil); err == nil {
		t.Error("Collect ran a grid Check refuses")
	}
}

// TestRunnerWith checks derived runners apply extra options on top of the
// base ones — the mechanism the ablation drivers use — and that a family
// of runners holds one runner per session configuration: the same options
// twice give the same runner, and options that change nothing give the
// base runner, from the base and from a derived runner alike.
func TestRunnerWith(t *testing.T) {
	r := testRunner(t, 2)
	big := config.Base() // 16 SMs, overrides the base 4-SM option
	d, err := r.With(core.WithGPU(big))
	if err != nil {
		t.Fatal(err)
	}
	if d.Session().GPUConfig().NumSMs != 16 {
		t.Fatalf("derived runner has %d SMs, want 16", d.Session().GPUConfig().NumSMs)
	}
	if d.workers != r.workers {
		t.Fatal("derived runner changed worker count")
	}
	if r.Session().GPUConfig().NumSMs != 4 {
		t.Fatal("derivation mutated the base runner")
	}
	small := r.Session().GPUConfig()
	for name, tc := range map[string]struct {
		from *Runner
		opts []core.Option
		want *Runner
	}{
		"same options again": {r, []core.Option{core.WithGPU(big)}, d},
		"no options":         {r, nil, r},
		"the base window":    {r, []core.Option{core.WithWindow(r.Session().Window())}, r},
		"back to the base":   {d, []core.Option{core.WithGPU(small)}, r},
	} {
		got, err := tc.from.With(tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: With derived a new runner, want the one the family has", name)
		}
	}
}

// TestRunnerDo checks the per-case fault boundary every worker runs its
// cases through: a completing case hands its result on, a panic becomes
// a *core.PanicError with its stack, a failure is final (the case runs
// once), and a run whose workers are all busy returns its context's error
// once it expires, without starting the queued case.
func TestRunnerDo(t *testing.T) {
	r := testRunner(t, 2)
	ctx := context.Background()
	if r.Session().GPUConfig().NumSMs != 4 {
		t.Fatal("runner's session has the wrong config")
	}
	g := Grid{Pairs: []workloads.Pair{{QoS: "sgemm", NonQoS: "lbm"}, {QoS: "mri-q", NonQoS: "stencil"}, {QoS: "lbm", NonQoS: "sgemm"}}, Goals: []float64{0.4}}
	todo := []int{0, 1, 2}

	var calls [3]int
	var mu sync.Mutex
	fault := errors.New("deterministic fault")
	want := &core.Result{}
	r.caseRun = func(_ context.Context, _ Grid, i int, _ core.Scheme) (*core.Result, error) {
		mu.Lock()
		calls[i]++
		mu.Unlock()
		switch i {
		case 0:
			return want, nil
		case 1:
			panic("boom")
		}
		return nil, fault
	}
	var res [3]*core.Result
	var ces [3]*CaseError
	rep, err := r.Run(ctx, g, core.SchemeRollover, todo, func(i int, got *core.Result, ce *CaseError) error {
		res[i], ces[i] = got, ce
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || len(rep.Failed) != 2 {
		t.Fatalf("Completed=%d Failed=%d, want 1 and 2", rep.Completed, len(rep.Failed))
	}
	if res[0] != want || ces[0] != nil {
		t.Fatalf("completing case: res=%v ce=%v", res[0], ces[0])
	}
	var pe *core.PanicError
	if ces[1] == nil || !errors.As(ces[1].Err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("panicking case: ce = %+v, want a *core.PanicError with a stack", ces[1])
	}
	if ces[2] == nil || !errors.Is(ces[2].Err, fault) {
		t.Fatalf("failing case: ce = %+v, want the fault", ces[2])
	}
	if calls != [3]int{1, 1, 1} {
		t.Fatalf("calls = %v, want each case once", calls)
	}

	// With every worker held, the queued case waits until ctx expires.
	calls = [3]int{}
	r.caseRun = func(ctx context.Context, _ Grid, i int, _ core.Scheme) (*core.Result, error) {
		mu.Lock()
		calls[i]++
		mu.Unlock()
		<-ctx.Done()
		return nil, ctx.Err()
	}
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := r.Run(shortCtx, g, core.SchemeRollover, todo, func(int, *core.Result, *CaseError) error { return nil }, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated workers: err = %v, want DeadlineExceeded", err)
	}
	if calls != [3]int{1, 1, 0} {
		t.Fatalf("calls = %v, want the two held cases once and the queued one never", calls)
	}
}

// TestStageKeysArePinned holds the stage keys row files have always been
// named by: a pair and a trio grid on the 4-SM, 30k-cycle test device. A
// key that moves orphans every row file of its grid, which then quietly
// re-simulates.
func TestStageKeysArePinned(t *testing.T) {
	s := testRunner(t, 1).Session()
	for _, tc := range []struct {
		g    Grid
		want string
	}{
		{Grid{Pairs: []workloads.Pair{{QoS: "sgemm", NonQoS: "lbm"}, {QoS: "mri-q", NonQoS: "stencil"}}, Goals: []float64{0.4, 0.7}},
			"pairs/rollover/0f3707296f5c/508ef24092c9"},
		{Grid{Trios: []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}}, Goals: []float64{0.4, 0.7}, NQoS: 2},
			"trios/rollover/0f3707296f5c/e882363bd538"},
	} {
		got, err := tc.g.StageKey(s.Config(), s.Seed(), core.SchemeRollover)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s stage key %q, row files are named by %q", tc.g.kind(), got, tc.want)
		}
	}
}

// meetTwo is a case hook (interceptCases) that holds every sweep case at
// the simulator's door until a second one has arrived: a sweep that runs
// its cases one at a time never gets past its first case.
type meetTwo struct {
	mu      sync.Mutex
	arrived int
	both    chan struct{} // closed when the second case arrives
}

func (m *meetTwo) hold(ctx context.Context, _ int) error {
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

// TestSweepUsesWholePool sweeps four cases on a runner with two workers.
// A case leaves the simulator's door only once two cases stand there
// together, so the sweep completes only if the engine runs cases on all
// its workers, not one at a time.
func TestSweepUsesWholePool(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	meet := &meetTwo{both: make(chan struct{})}
	r := testRunner(t, 2)
	r.interceptCases(meet.hold)
	g := Grid{Pairs: []workloads.Pair{{QoS: "sgemm", NonQoS: "lbm"}, {QoS: "mri-q", NonQoS: "stencil"}}, Goals: []float64{0.4, 0.7}}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type result struct {
		cases []Case
		err   error
	}
	swept := make(chan result, 1)
	go func() {
		c, _, err := sweep(ctx, r, g, core.SchemeRollover, nil)
		swept <- result{c, err}
	}()
	select {
	case <-meet.both:
	case <-ctx.Done():
		t.Fatal("no two cases were ever in the simulator together: the sweep runs one case at a time")
	}
	res := <-swept
	if res.err != nil {
		t.Fatal(res.err)
	}
	for i, c := range res.cases {
		if c.Res == nil {
			t.Fatalf("case %d has no result", i)
		}
	}
}
