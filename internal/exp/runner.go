package exp

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/trace"
)

// Progress is one event of the sweep progress stream. Events are emitted
// after every resolved case (completed or failed); Done is monotonic even
// though cases finish out of order across workers. Rate fields describe
// only progress reporting — they never influence simulation results,
// which stay bit-identical to a serial run.
type Progress struct {
	// Stage labels the sweep (usually the scheme name; Study.Collect
	// relabels it with the declared sweep's name).
	Stage string
	// Done and Total count the cases the sweep was asked to run.
	Done, Total int
	// Elapsed is wall time since the sweep started.
	Elapsed time.Duration
	// CasesPerSec is the sweep's current completion rate (0 until enough
	// wall time has accumulated for a meaningful rate).
	CasesPerSec float64
	// ETA estimates the remaining wall time at the current rate.
	ETA time.Duration
}

// ProgressFunc receives progress events. The runner serializes calls, so
// implementations need no locking.
type ProgressFunc func(Progress)

// Runner is the parallel sweep engine: a fixed number of workers that
// fan the cases of a Grid out over one core.Session, which gives each
// concurrent case its own device and measures each workload's isolated
// baseline once. Each case hands its result on as it finishes, under its
// grid index, so a sweep's outcomes land in deterministic case order
// (pairs/trios outer, goals inner) regardless of completion order, and
// each case is bit-identical to what the serial sweep of the package
// tests produces: per-case determinism comes from the seeded RNG streams
// in internal/rng, not from scheduling.
//
// The runner is also the fault boundary of a study: each case executes
// under core.Guard, which converts a panic into a *core.PanicError and
// applies the per-case deadline (WithCaseTimeout), so one sick case costs
// one case, not the sweep: its error is collected into the SweepReport.
// A failed case is not retried: it is a pure function of its inputs and
// would fail again.
type Runner struct {
	workers     int
	opts        []core.Option
	session     *core.Session
	caseTimeout time.Duration
	// caseRun executes one case (runCase); tests wrap it to fail chosen
	// case indices.
	caseRun func(ctx context.Context, g Grid, i int, scheme core.Scheme) (*core.Result, error)

	// Per-case trace output (WithTraceDir). Every traced case gets its
	// own trace.Tracer — tracers are unsynchronized by design, so
	// sharing one across workers would race.
	traceDir    string
	traceFormat trace.Format

	// family holds every runner derived from one NewRunner, that one
	// included, by the hash of its session's configuration and seed.
	family *sync.Map
}

// runnerSettings collects everything a runner Option can configure
// before validation.
type runnerSettings struct {
	session     []core.Option
	caseTimeout time.Duration
	traceDir    string
	traceFormat trace.Format
}

// Option configures a Runner at construction (see NewRunner). A Runner
// is immutable once built, so everything it can be configured with is an
// option.
type Option func(*runnerSettings)

// WithSessionOptions appends the core session options the runner's
// session is built with (device, window, QoS tuning).
func WithSessionOptions(opts ...core.Option) Option {
	return func(s *runnerSettings) { s.session = append(s.session, opts...) }
}

// WithCaseTimeout bounds each sweep case; the deadline propagates into
// gpu.RunCtx, which polls it at sub-epoch granularity, so a case that
// stops progressing is reaped instead of pinning a worker slot. 0 means
// no per-case deadline.
func WithCaseTimeout(d time.Duration) Option {
	return func(s *runnerSettings) { s.caseTimeout = d }
}

// WithTraceDir enables per-case event tracing: every case runs with its
// own tracer and writes one trace file into dir, named by its grid
// coordinates (sweep kind, case index, workloads, goal, scheme). An
// empty dir disables tracing. NewRunner creates the directory.
func WithTraceDir(dir string, f trace.Format) Option {
	return func(s *runnerSettings) { s.traceDir, s.traceFormat = dir, f }
}

// NewRunner builds a Runner with the given worker count (0 or negative
// means runtime.GOMAXPROCS(0)), configured by runner options
// (WithSessionOptions, WithCaseTimeout, WithTraceDir). Every worker runs
// its cases on the runner's one session.
func NewRunner(workers int, opts ...Option) (*Runner, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var st runnerSettings
	for _, o := range opts {
		o(&st)
	}
	if st.traceDir != "" {
		if err := os.MkdirAll(st.traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	tmpl := &Runner{workers: workers, caseTimeout: st.caseTimeout, traceDir: st.traceDir,
		traceFormat: st.traceFormat, family: new(sync.Map)}
	return tmpl.derive(st.session)
}

// With derives a Runner with the same worker count, case timeout and base
// session options plus extra ones (later options override earlier, so
// e.g. core.WithQoSOptions replaces the base tuning). It returns one
// runner per session configuration and seed: the runner itself when the
// options change nothing, and the runner an earlier With derived for the
// same configuration, so sweeps on one configuration share its session
// and the baselines it has measured.
func (r *Runner) With(extra ...core.Option) (*Runner, error) {
	return r.derive(append(append([]core.Option(nil), r.opts...), extra...))
}

// derive returns r's family's runner for the session opts build, adding
// one with r's workers, case timeout and tracing when it has none.
func (r *Runner) derive(opts []core.Option) (*Runner, error) {
	s, err := core.NewSession(opts...)
	if err != nil {
		return nil, err
	}
	key, err := sessionHash(s.Config(), s.Seed())
	if err != nil {
		return nil, err
	}
	d := &Runner{workers: r.workers, opts: opts, session: s, caseTimeout: r.caseTimeout,
		traceDir: r.traceDir, traceFormat: r.traceFormat, family: r.family}
	d.caseRun = d.runCase
	got, _ := r.family.LoadOrStore(key, d)
	return got.(*Runner), nil
}

// runCase executes case i of g, with a per-case tracer and trace file
// (named by the case's grid coordinates) when WithTraceDir configured
// one.
func (r *Runner) runCase(ctx context.Context, g Grid, i int, scheme core.Scheme) (*core.Result, error) {
	specs := g.specs(i)
	if r.traceDir == "" {
		return r.session.Run(ctx, specs, scheme)
	}
	tr := trace.New(trace.DefaultRingSize)
	res, err := r.session.RunTraced(ctx, specs, scheme, tr)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.traceDir, g.traceName(i, scheme)+r.traceFormat.Ext())
	var buf bytes.Buffer
	werr := trace.Export(&buf, tr, r.traceFormat)
	if werr == nil {
		werr = journal.WriteFile(path, buf.Bytes())
	}
	if werr != nil {
		return nil, fmt.Errorf("exp: write trace %s: %w", path, werr)
	}
	return res, nil
}

// Session exposes the runner's session for work outside a sweep:
// isolated measurements, one-off runs, and the /v1 admission loop's
// what-ifs.
func (r *Runner) Session() *core.Session { return r.session }

// Run is the sweep engine: it executes the cases of g listed in todo
// under scheme, fanned out over the workers, and hands each case to done
// as it reaches a final state — res for a case that completed, ce for
// one that failed. Every case runs under core.Guard with the per-case
// deadline.
//
// done is called from the workers' goroutines, concurrently for different
// cases; an error from it aborts the run. Progress events are serialized
// and count the cases of todo, as does the report. External cancellation
// aborts the run and surfaces ctx's error.
func (r *Runner) Run(parent context.Context, g Grid, scheme core.Scheme, todo []int, done func(i int, res *core.Result, ce *CaseError) error, progress ProgressFunc) (*SweepReport, error) {
	stage := scheme.String()
	rep := &SweepReport{Stage: stage, Total: len(todo)}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	start := time.Now()
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		resolved int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	// resolve accounts for one case reaching a final state (ce == nil for
	// success) and emits the progress event under the lock, so the
	// callback never sees events out of order and needs no
	// synchronization.
	resolve := func(ce *CaseError) {
		mu.Lock()
		defer mu.Unlock()
		resolved++
		if ce != nil {
			rep.Failed = append(rep.Failed, ce)
		} else {
			rep.Completed++
		}
		if progress != nil {
			p := Progress{Stage: stage, Done: resolved, Total: rep.Total, Elapsed: time.Since(start)}
			p.CasesPerSec, p.ETA = sweepRate(resolved, rep.Total, p.Elapsed)
			progress(p)
		}
	}
	for w := 0; w < min(r.workers, len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var res *core.Result
				err := core.Guard(ctx, r.caseTimeout, func(ctx context.Context) (err error) {
					res, err = r.caseRun(ctx, g, i, scheme)
					return err
				})
				var ce *CaseError
				if err != nil {
					if cerr := ctx.Err(); cerr != nil {
						// The run itself is being torn down; the case error
						// is a cancellation artifact, not a result.
						fail(cerr)
						return
					}
					ce = &CaseError{Stage: stage, Index: i, Case: g.Describe(i), Err: err}
				}
				if err := done(i, res, ce); err != nil {
					fail(err)
					return
				}
				resolve(ce)
			}
		}()
	}
feed:
	for _, i := range todo {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err == nil {
		err = parent.Err()
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(rep.Failed, func(a, b int) bool { return rep.Failed[a].Index < rep.Failed[b].Index })
	rep.Wall = time.Since(start)
	return rep, nil
}
