package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/trace"
)

// Progress is one event of the sweep progress stream. Events are emitted
// after every resolved case (completed, failed or restored from the
// journal); Done is monotonic even though cases finish out of order
// across workers. Rate fields describe only progress reporting — they
// never influence simulation results, which stay bit-identical to a
// serial run.
type Progress struct {
	// Stage labels the sweep (usually the scheme name; Study.Collect
	// relabels it with the declared sweep's name).
	Stage string
	// Done and Total count cases.
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

// SweepMetrics summarizes one completed sweep stage. Cases counts only
// cases executed this run (journal-restored cases cost no simulation
// time and are excluded from the rate).
type SweepMetrics struct {
	Stage       string
	Cases       int
	Wall        time.Duration
	CasesPerSec float64
}

// FaultPolicy configures how a Runner treats failing cases. The zero
// value reproduces a study run with no safety nets beyond isolation:
// panics and errors are collected into the SweepReport instead of
// aborting the sweep, and nothing is journaled. A failed case is not
// retried: it is a pure function of its inputs and would fail again.
type FaultPolicy struct {
	// CaseTimeout bounds each case; the deadline propagates into
	// gpu.RunCtx, which polls it at sub-epoch granularity, so a case
	// that stops progressing is reaped instead of pinning a worker slot.
	// 0 means no per-case deadline.
	CaseTimeout time.Duration
	// Journal, when non-nil, records every completed case and is
	// consulted before sweeping to skip cases a previous (interrupted)
	// run already completed. Stage keys embed hashes of the session
	// configuration and the case grid, so one journal can safely back
	// several studies and derived (With) runners.
	Journal *journal.Journal
}

// Runner is the parallel sweep engine: a fixed pool of workers, each
// owning an independent core.Session, over which pair/trio case grids are
// fanned out. All sessions share one singleflight isolated-IPC cache, so
// the per-workload isolated baselines are measured exactly once no matter
// how many workers ask for them. Results are always merged in
// deterministic case order (pairs/trios outer, goals inner) regardless of
// completion order, and each case is bit-identical to what the serial
// PairSweep/TrioSweep functions produce: per-case determinism comes from
// the seeded RNG streams in internal/rng, not from scheduling.
//
// The runner is also the fault boundary of a study: each case executes
// under core.Guard, which converts a panic into a *core.PanicError and
// applies the FaultPolicy's per-case deadline, and behind the checkpoint
// journal — so one sick case costs one case, not the sweep.
type Runner struct {
	workers  int
	opts     []core.Option
	sessions []*core.Session
	// slots is the session pool every case borrows its session from.
	slots chan *core.Session
	fault FaultPolicy
	// caseRun executes one case (runCase); tests wrap it to fail chosen
	// case indices.
	caseRun func(ctx context.Context, s *core.Session, g Grid, i int, scheme core.Scheme) (*core.Result, error)

	// Per-case trace output (WithTraceDir). Every traced case gets its
	// own trace.Tracer — tracers are unsynchronized by design, so
	// sharing one across workers would race.
	traceDir    string
	traceFormat trace.Format

	mu      sync.Mutex
	metrics []SweepMetrics
	reports []*SweepReport
}

// runnerSettings collects everything a runner Option can configure
// before validation.
type runnerSettings struct {
	session     []core.Option
	fault       FaultPolicy
	traceDir    string
	traceFormat trace.Format
}

// Option configures a Runner at construction (see NewRunner). A Runner
// is immutable once built, so everything it can be configured with is an
// option.
type Option func(*runnerSettings)

// WithSessionOptions appends core session options applied identically to
// every worker session (device, window, QoS tuning, seed). Passing
// core.WithIsolatedCache is redundant — the runner always installs a
// shared singleflight cache after these options, so it wins.
func WithSessionOptions(opts ...core.Option) Option {
	return func(s *runnerSettings) { s.session = append(s.session, opts...) }
}

// WithFaultPolicy installs the fault policy governing sweeps: the
// per-case deadline and the checkpoint journal.
func WithFaultPolicy(p FaultPolicy) Option {
	return func(s *runnerSettings) { s.fault = p }
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
// (WithSessionOptions, WithFaultPolicy, WithTraceDir). All worker
// sessions share one singleflight isolated-IPC cache.
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
	r := &Runner{
		workers:     workers,
		opts:        append([]core.Option(nil), st.session...),
		slots:       make(chan *core.Session, workers),
		fault:       st.fault,
		traceDir:    st.traceDir,
		traceFormat: st.traceFormat,
	}
	r.caseRun = r.runCase
	cache := core.NewIsolatedCache()
	withCache := append(append([]core.Option(nil), r.opts...), core.WithIsolatedCache(cache))
	for i := 0; i < workers; i++ {
		s, err := core.NewSession(withCache...)
		if err != nil {
			return nil, err
		}
		r.sessions = append(r.sessions, s)
		r.slots <- s
	}
	return r, nil
}

// With derives a Runner with the same worker count, fault policy and base
// session options plus extra ones (later options override earlier, so
// e.g. core.WithQoSOptions replaces the base tuning). The derived runner
// gets a fresh isolated cache: changed options may change baselines.
func (r *Runner) With(extra ...core.Option) (*Runner, error) {
	session := append(append([]core.Option(nil), r.opts...), extra...)
	return NewRunner(r.workers,
		WithSessionOptions(session...),
		WithFaultPolicy(r.fault),
		WithTraceDir(r.traceDir, r.traceFormat))
}

// runCase executes case i of g, with a per-case tracer and trace file
// (named by the case's grid coordinates) when WithTraceDir configured
// one.
func (r *Runner) runCase(ctx context.Context, s *core.Session, g Grid, i int, scheme core.Scheme) (*core.Result, error) {
	specs := g.specs(i)
	if r.traceDir == "" {
		return s.Run(ctx, specs, scheme)
	}
	tr := trace.New(trace.DefaultRingSize)
	res, err := s.RunTraced(ctx, specs, scheme, tr)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.traceDir, g.traceName(i, scheme)+r.traceFormat.Ext())
	if werr := trace.WriteFile(path, tr, r.traceFormat); werr != nil {
		return nil, fmt.Errorf("exp: write trace %s: %w", path, werr)
	}
	return res, nil
}

// do borrows one worker session from the pool and runs fn on it under
// core.Guard with the fault policy's per-case deadline. It blocks while
// every session is busy and returns ctx's error if ctx is canceled before
// one frees up.
func (r *Runner) do(ctx context.Context, fn func(ctx context.Context, s *core.Session) error) error {
	var s *core.Session
	select {
	case s = <-r.slots:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { r.slots <- s }()
	return core.Guard(ctx, r.fault.CaseTimeout, func(ctx context.Context) error { return fn(ctx, s) })
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Session exposes one of the pool's sessions for serial work outside a
// sweep: isolated measurements, one-off runs, and the /v1 admission
// loop's what-ifs.
func (r *Runner) Session() *core.Session { return r.sessions[0] }

// GPUConfig returns the device configuration shared by all workers.
func (r *Runner) GPUConfig() config.GPU { return r.sessions[0].GPUConfig() }

// Window returns the measurement window shared by all workers.
func (r *Runner) Window() int64 { return r.sessions[0].Window() }

// Metrics returns per-stage wall-time summaries of every sweep this
// runner completed, in completion order.
func (r *Runner) Metrics() []SweepMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SweepMetrics(nil), r.metrics...)
}

// Reports returns the fault report of every sweep this runner completed,
// in completion order. Sweeps aborted by cancellation or a done callback
// error do not produce a report.
func (r *Runner) Reports() []*SweepReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*SweepReport(nil), r.reports...)
}

// Run is the sweep engine: it executes the cases of g listed in todo
// under scheme, fanned out over the session pool, and hands each case to
// done as it reaches a final state — res for a case that completed, ce
// for one that failed. Every case runs through do's fault boundary.
//
// done is called from the pool's goroutines, concurrently for different
// cases; an error from it aborts the run. Progress events are serialized,
// and cases outside todo count as already resolved. External
// cancellation aborts the run and surfaces ctx's error.
func (r *Runner) Run(parent context.Context, g Grid, scheme core.Scheme, todo []int, done func(i int, res *core.Result, ce *CaseError) error, progress ProgressFunc) (*SweepReport, error) {
	stage := scheme.String()
	rep := &SweepReport{Stage: stage, Total: g.Len(), Skipped: g.Len() - len(todo)}
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
		resolved = rep.Skipped
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
				err := r.do(ctx, func(ctx context.Context, s *core.Session) (err error) {
					res, err = r.caseRun(ctx, s, g, i, scheme)
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
					var pe *core.PanicError
					if errors.As(err, &pe) {
						ce.Stack = pe.Stack
					}
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
	return rep, nil
}

// Sweep runs every case of g under scheme across the worker pool and
// returns them in case order — identical, case for case, to the serial
// PairSweep/TrioSweep. With a journal in the fault policy, cases it holds
// for this stage are restored instead of run, and every completed case is
// appended to it.
//
// Under the fault policy, failed cases are left empty in the returned
// Cases (nil Res) and reported via a *SweepError; callers that can use
// partial grids inspect its Report, others treat it as fatal.
func (r *Runner) Sweep(ctx context.Context, g Grid, scheme core.Scheme, progress ProgressFunc) (Cases, error) {
	if err := g.Check(); err != nil {
		return Cases{}, err
	}
	out := g.Cases()
	var (
		key      string
		restored map[int]json.RawMessage
		todo     []int
	)
	j := r.fault.Journal
	if j != nil {
		var err error
		if key, err = r.stageKey(g, scheme); err != nil {
			return Cases{}, err
		}
		restored = j.Completed(key)
	}
	for i := 0; i < g.Len(); i++ {
		if raw, ok := restored[i]; !ok || !out.Restore(i, raw) {
			todo = append(todo, i)
		}
	}
	start := time.Now()
	rep, err := r.Run(ctx, g, scheme, todo, func(i int, res *core.Result, ce *CaseError) error {
		if ce != nil {
			return nil
		}
		c := g.Case(i, scheme, res)
		out.set(i, c)
		if j == nil {
			return nil
		}
		if err := j.Append(key, i, c); err != nil {
			// A broken checkpoint journal means completed work is
			// silently unprotected; stop rather than let the operator
			// find out after the next crash.
			return fmt.Errorf("exp: journal %s case %d: %w", scheme, i, err)
		}
		return nil
	}, progress)
	if err != nil {
		return Cases{}, err
	}
	m := SweepMetrics{Stage: rep.Stage, Cases: len(todo), Wall: time.Since(start)}
	if secs := m.Wall.Seconds(); secs > 0 {
		m.CasesPerSec = float64(m.Cases) / secs
	}
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.reports = append(r.reports, rep)
	r.mu.Unlock()
	return out, rep.Err()
}

// stageKey derives the journal key for one of this runner's sweep stages.
func (r *Runner) stageKey(g Grid, scheme core.Scheme) (string, error) {
	return g.StageKey(r.Session().Config(), r.Session().Seed(), scheme)
}
