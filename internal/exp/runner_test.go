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
// options (WithFaultPolicy, WithTraceDir) apply after the base ones.
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

func TestNewRunnerDefaults(t *testing.T) {
	r := testRunner(t, 0)
	if r.Workers() < 1 {
		t.Fatalf("Workers() = %d", r.Workers())
	}
	if r.GPUConfig().NumSMs != 4 || r.Window() != 30_000 {
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
	want, err := PairSweep(ctx, serialSession, pairs, goals, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}

	r := testRunner(t, 4)
	g := Grid{Pairs: pairs, Goals: goals}
	got, err := r.Sweep(ctx, g, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pairs, want) {
		t.Fatal("parallel pair sweep diverged from the serial reference")
	}
	// A second run over the same runner must also be identical (the
	// isolated cache must not change results, only speed).
	again, err := r.Sweep(ctx, g, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Pairs, want) {
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
	got, err := r.Sweep(ctx, Grid{Trios: trios, Goals: goals, NQoS: 2}, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TrioSweep(ctx, r.Session(), trios, goals, 2, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Trios, want) {
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
	_, err := r.Sweep(context.Background(), Grid{Pairs: pairs, Goals: goals}, core.SchemeRollover,
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
	ms := r.Metrics()
	if len(ms) != 1 || ms[0].Cases != 3 || ms[0].Stage != core.SchemeRollover.String() {
		t.Fatalf("metrics = %+v", ms)
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
	_, err := testRunner(t, 2).Sweep(ctx, Grid{Pairs: pairs, Goals: goals}, core.SchemeRollover,
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
	_, err := testRunner(t, 2).Sweep(ctx,
		Grid{Pairs: []workloads.Pair{{QoS: "sgemm", NonQoS: "lbm"}}, Goals: []float64{0.5}},
		core.SchemeRollover, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestGridCheckRejectsBadNQoS: a grid is pairs (NQoS 0) or trios with one
// or two QoS kernels, and has at least one case; Sweep refuses any other.
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
	if _, err := testRunner(t, 1).Sweep(context.Background(),
		Grid{Trios: trios, Goals: []float64{0.3}, NQoS: 3}, core.SchemeRollover, nil); err == nil {
		t.Error("Sweep ran a grid Check refuses")
	}
}

// TestRunnerWith checks derived runners apply extra options on top of the
// base ones — the mechanism the ablation drivers use.
func TestRunnerWith(t *testing.T) {
	r := testRunner(t, 2)
	big := config.Base() // 16 SMs, overrides the base 4-SM option
	d, err := r.With(core.WithGPU(big))
	if err != nil {
		t.Fatal(err)
	}
	if d.GPUConfig().NumSMs != 16 {
		t.Fatalf("derived runner has %d SMs, want 16", d.GPUConfig().NumSMs)
	}
	if d.Workers() != r.Workers() {
		t.Fatal("derived runner changed worker count")
	}
	if r.GPUConfig().NumSMs != 4 {
		t.Fatal("derivation mutated the base runner")
	}
}

// TestRunnerDo checks the fault boundary every sweep case runs through:
// do borrows pool sessions (blocking when all are busy), isolates panics
// as *core.PanicError, and runs a failing call exactly once.
func TestRunnerDo(t *testing.T) {
	r := testRunner(t, 2)
	ctx := context.Background()

	// Plain success sees a usable session.
	if err := r.do(ctx, func(_ context.Context, s *core.Session) error {
		if s.GPUConfig().NumSMs != 4 {
			t.Error("Do handed out a session with the wrong config")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A panic surfaces as a *core.PanicError value, not a crash.
	err := r.do(ctx, func(context.Context, *core.Session) error {
		panic("boom")
	})
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *core.PanicError", err)
	}

	// A failure is final: the call runs once.
	calls := 0
	fault := errors.New("deterministic fault")
	if err := r.do(ctx, func(context.Context, *core.Session) error {
		calls++
		return fault
	}); !errors.Is(err, fault) || calls != 1 {
		t.Fatalf("failing call: err=%v calls=%d, want the fault after one call", err, calls)
	}

	// With every slot held, Do must block until ctx cancels.
	hold := make(chan struct{})
	release := make(chan struct{})
	for i := 0; i < r.Workers(); i++ {
		go r.do(ctx, func(context.Context, *core.Session) error {
			hold <- struct{}{}
			<-release
			return nil
		})
	}
	for i := 0; i < r.Workers(); i++ {
		<-hold
	}
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := r.do(shortCtx, func(context.Context, *core.Session) error { return nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated pool: err = %v, want DeadlineExceeded", err)
	}
	close(release)
}

// TestRunnerSharesIsolatedCache checks all worker sessions see each
// other's isolated baselines (singleflight across the pool).
func TestRunnerSharesIsolatedCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	r := testRunner(t, 3)
	ctx := context.Background()
	spec := core.KernelSpec{Workload: "sgemm"}
	a, err := r.sessions[0].IsolatedIPC(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.sessions[2].IsolatedIPC(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("worker sessions disagree on the isolated baseline")
	}
}

// TestStageKeysArePinned holds the keys journals have always been written
// under: a pair and a trio grid on the 4-SM, 30k-cycle test device. A key
// that moves orphans every journaled case of its grid, which then quietly
// re-simulates on -resume.
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
			t.Errorf("%s stage key %q, journals hold %q", tc.g.kind(), got, tc.want)
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

// TestSweepUsesWholePool sweeps four cases on a runner with two sessions.
// A case leaves the simulator's door only once two cases stand there
// together, so the sweep completes only if the engine runs cases across
// its whole pool, not one at a time.
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
		cases Cases
		err   error
	}
	swept := make(chan result, 1)
	go func() {
		c, err := r.Sweep(ctx, g, core.SchemeRollover, nil)
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
	for i, c := range res.cases.Pairs {
		if c.Res == nil {
			t.Fatalf("case %d has no result", i)
		}
	}
}
