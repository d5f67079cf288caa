package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/trace"
	"repro/internal/workloads"
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
// every case is attempted once, panics and errors are collected into the
// SweepReport instead of aborting the sweep, and nothing is journaled.
type FaultPolicy struct {
	// FailFast restores the pre-fault-tolerance behavior: the first
	// failing case cancels the sweep and is returned as the error.
	FailFast bool
	// CaseTimeout bounds each case attempt; the deadline propagates into
	// gpu.RunCtx, which polls it at sub-epoch granularity, so a case
	// that stops progressing is reaped instead of pinning a worker slot.
	// 0 means no per-case deadline.
	CaseTimeout time.Duration
	// Retry re-executes failed cases with backoff. The zero value means
	// one attempt, no retries.
	Retry retry.Policy
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
// under a recover() that converts panics into typed CaseErrors, under the
// FaultPolicy's per-case deadline and retry budget, and behind the
// checkpoint journal — so one sick case costs one case, not the sweep.
type Runner struct {
	workers  int
	opts     []core.Option
	sessions []*core.Session
	// slots is the session pool: sweeps and Do borrow sessions from it,
	// so a Runner shared by a daemon can interleave one-off evaluations
	// with sweeps without oversubscribing the worker budget.
	slots chan *core.Session
	fault FaultPolicy

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
// is immutable once built — the qosd daemon shares one across request
// goroutines — so everything the deprecated setters used to mutate is
// now an option.
type Option func(*runnerSettings)

// WithSessionOptions appends core session options applied identically to
// every worker session (device, window, QoS tuning, seed). Passing
// core.WithIsolatedCache is redundant — the runner always installs a
// shared singleflight cache after these options, so it wins.
func WithSessionOptions(opts ...core.Option) Option {
	return func(s *runnerSettings) { s.session = append(s.session, opts...) }
}

// WithFaultPolicy installs the fault policy governing sweeps and Do
// calls: per-case deadlines, retries, panic containment mode and the
// checkpoint journal.
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

// runCase executes one sweep case, with a per-case tracer and trace file
// when WithTraceDir configured one. name must be unique within the sweep
// (it keys the output file).
func (r *Runner) runCase(ctx context.Context, s *core.Session, name string, specs []core.KernelSpec, scheme core.Scheme) (*core.Result, error) {
	if r.traceDir == "" {
		return s.Run(ctx, specs, scheme)
	}
	tr := trace.New(trace.DefaultRingSize)
	res, err := s.RunTraced(ctx, specs, scheme, tr)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.traceDir, name+r.traceFormat.Ext())
	if werr := trace.WriteFile(path, tr, r.traceFormat); werr != nil {
		return nil, fmt.Errorf("exp: write trace %s: %w", path, werr)
	}
	return res, nil
}

// Do borrows one worker session from the pool and runs fn under the same
// fault boundary a sweep case gets: panics are converted to *PanicError,
// the fault policy's per-case deadline bounds the call, and its retry
// budget re-runs transient failures (stream disambiguates the retry
// jitter sequence between concurrent callers). Do blocks while every
// worker session is busy — this is the backpressure a serving layer
// (cmd/qosd) relies on — and returns ctx's error if it is canceled
// before a session frees up.
func (r *Runner) Do(ctx context.Context, stream uint64, fn func(ctx context.Context, s *core.Session) error) error {
	var s *core.Session
	select {
	case s = <-r.slots:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { r.slots <- s }()
	fp := r.fault
	return fp.Retry.Do(ctx, stream, func(int) error {
		return doShielded(ctx, s, fp.CaseTimeout, fn)
	})
}

// doShielded is runShielded without the sweep-case index tagging: the
// fault boundary for one-off Do work.
func doShielded(ctx context.Context, s *core.Session, timeout time.Duration, fn func(context.Context, *core.Session) error) (err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, s)
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// Session exposes one of the pool's sessions for serial work (isolated
// measurements, one-off runs) outside a sweep.
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
// in completion order. Sweeps aborted by cancellation or fail-fast do not
// produce a report.
func (r *Runner) Reports() []*SweepReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*SweepReport(nil), r.reports...)
}

// runShielded executes one case attempt inside the fault boundary: the
// context is tagged with the case index (for fault injectors), bounded by
// the per-case deadline, and panics are converted into *PanicError so a
// crashing case surfaces as a value instead of killing the process.
func runShielded(ctx context.Context, s *core.Session, i int, timeout time.Duration, runCase func(context.Context, *core.Session, int) error) (err error) {
	caseCtx := core.ContextWithCaseIndex(ctx, i)
	if timeout > 0 {
		var cancel context.CancelFunc
		caseCtx, cancel = context.WithTimeout(caseCtx, timeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return runCase(caseCtx, s, i)
}

// sweep fans total cases out over the worker pool. runCase must write its
// result into caller-owned storage at index i (indices never collide, so
// no locking is needed on the result slice). Cases listed in skip are
// counted as already resolved and never executed; record (if non-nil) is
// invoked after each successful case to checkpoint it.
//
// Failure semantics follow the fault policy: each case gets
// Retry.MaxAttempts isolated attempts under CaseTimeout; a case that
// still fails becomes a *CaseError in the returned report (or, with
// FailFast, cancels the sweep and is returned as the error). External
// cancellation always aborts and surfaces the parent context's error.
func (r *Runner) sweep(parent context.Context, stage string, total int, skip map[int]bool, describe func(i int) string, runCase func(ctx context.Context, s *core.Session, i int) error, record func(i int) error, progress ProgressFunc) (*SweepReport, error) {
	rep := &SweepReport{Stage: stage, Total: total, Skipped: len(skip)}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return rep, nil
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	fp := r.fault
	start := time.Now()
	pending := total - len(skip)
	workers := r.workers
	if workers > pending {
		workers = pending
	}
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     = len(skip)
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
	resolve := func(ce *CaseError, retried bool) {
		mu.Lock()
		done++
		if ce != nil {
			rep.Failed = append(rep.Failed, ce)
		} else {
			rep.Completed++
			if retried {
				rep.Retried++
			}
		}
		if progress != nil {
			p := Progress{Stage: stage, Done: done, Total: total, Elapsed: time.Since(start)}
			p.CasesPerSec, p.ETA = sweepRate(done, total, p.Elapsed)
			progress(p)
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Borrow a session from the shared pool (rather than pinning
			// sessions to workers) so sweeps and concurrent Do callers
			// split the same worker budget.
			var s *core.Session
			select {
			case s = <-r.slots:
			case <-ctx.Done():
				return
			}
			defer func() { r.slots <- s }()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				attempts := 0
				err := fp.Retry.Do(ctx, uint64(i), func(attempt int) error {
					attempts = attempt
					return runShielded(ctx, s, i, fp.CaseTimeout, runCase)
				})
				if err != nil {
					if cerr := ctx.Err(); cerr != nil {
						// The sweep itself is being torn down; the case
						// error is a cancellation artifact, not a result.
						fail(cerr)
						return
					}
					ce := &CaseError{Stage: stage, Index: i, Case: describe(i), Attempts: attempts, Err: err}
					var pe *PanicError
					if errors.As(err, &pe) {
						ce.Stack = pe.Stack
					}
					if fp.FailFast {
						fail(ce)
						return
					}
					resolve(ce, false)
					continue
				}
				if record != nil {
					if rerr := record(i); rerr != nil {
						// A broken checkpoint journal means completed work
						// is silently unprotected; stop rather than let
						// the operator find out after the next crash.
						fail(fmt.Errorf("exp: journal %s case %d: %w", stage, i, rerr))
						return
					}
				}
				resolve(nil, attempts > 1)
			}
		}()
	}
feed:
	for i := 0; i < total; i++ {
		if skip[i] {
			continue
		}
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
	wall := time.Since(start)
	m := SweepMetrics{Stage: stage, Cases: pending, Wall: wall}
	if secs := wall.Seconds(); secs > 0 {
		m.CasesPerSec = float64(pending) / secs
	}
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.reports = append(r.reports, rep)
	r.mu.Unlock()
	return rep, nil
}

// StageKey derives the journal key for one sweep stage: a readable prefix
// plus hashes of the session configuration (device, window, tuning, seed)
// and the case grid. Two sweeps share journaled cases only when both
// hashes agree, so derived runners and differently-subsampled studies can
// never splice each other's results. Exported so the distributed sweep
// coordinator (internal/distsweep) journals cases under exactly the keys
// a local Runner would use — a sweep may start local and finish
// distributed (or vice versa) against the same journal.
func StageKey(cfg core.Config, seed uint64, kind string, scheme core.Scheme, grid any) (string, error) {
	sess, err := journal.Hash(struct {
		Config core.Config
		Seed   uint64
	}{cfg, seed})
	if err != nil {
		return "", err
	}
	gh, err := journal.Hash(grid)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s/%s/%s/%s", kind, scheme.Name(), sess[:12], gh[:12]), nil
}

// stageKey derives the journal key for one of this runner's sweep stages.
func (r *Runner) stageKey(kind string, scheme core.Scheme, grid any) (string, error) {
	return StageKey(r.Session().Config(), r.Session().Seed(), kind, scheme, grid)
}

// journalHooks wires one sweep to the checkpoint journal: restore() is
// called for every journaled case of this stage (returning false rejects
// the payload), and the returned record hook checkpoints newly completed
// cases. With no journal configured both returns are nil.
func (r *Runner) journalHooks(kind string, scheme core.Scheme, grid any, total int, restore func(i int, raw json.RawMessage) bool, snapshot func(i int) any) (map[int]bool, func(i int) error, error) {
	j := r.fault.Journal
	if j == nil {
		return nil, nil, nil
	}
	key, err := r.stageKey(kind, scheme, grid)
	if err != nil {
		return nil, nil, err
	}
	skip := make(map[int]bool)
	for i, raw := range j.Completed(key) {
		if i < 0 || i >= total || !restore(i, raw) {
			continue
		}
		skip[i] = true
	}
	record := func(i int) error { return j.Append(key, i, snapshot(i)) }
	return skip, record, nil
}

// PairGrid is the hashed identity of a pair-sweep grid, shared with the
// distributed coordinator (internal/distsweep) so both journal cases
// under identical stage keys.
type PairGrid struct {
	Pairs []workloads.Pair
	Goals []float64
}

// PairSweep runs every pair at every goal under the scheme across the
// worker pool and returns the cases in deterministic (pair-major,
// goal-minor) order — identical, case for case, to the serial PairSweep.
//
// Under the fault policy, failed cases are left zero in the returned
// slice (Res == nil) and reported via a *SweepError; callers that can use
// partial grids inspect its Report, others treat it as fatal.
func (r *Runner) PairSweep(ctx context.Context, pairs []workloads.Pair, goals []float64, scheme core.Scheme, progress ProgressFunc) ([]PairCase, error) {
	out := make([]PairCase, len(pairs)*len(goals))
	describe := func(i int) string {
		p, g := pairs[i/len(goals)], goals[i%len(goals)]
		return fmt.Sprintf("pair[%d] %s+%s @%.2f", i/len(goals), p.QoS, p.NonQoS, g)
	}
	skip, record, err := r.journalHooks("pairs", scheme, PairGrid{pairs, goals}, len(out),
		func(i int, raw json.RawMessage) bool {
			var c PairCase
			if json.Unmarshal(raw, &c) != nil || c.Res == nil {
				return false
			}
			out[i] = c
			return true
		},
		func(i int) any { return out[i] })
	if err != nil {
		return nil, err
	}
	rep, err := r.sweep(ctx, scheme.String(), len(out), skip, describe, func(ctx context.Context, s *core.Session, i int) error {
		p, g := pairs[i/len(goals)], goals[i%len(goals)]
		name := fmt.Sprintf("pair%03d_%s+%s_g%.2f_%s", i, p.QoS, p.NonQoS, g, scheme.Name())
		res, err := r.runCase(ctx, s, name, PairSpecs(p, g), scheme)
		if err != nil {
			return err
		}
		out[i] = PairCase{Pair: p, Goal: g, Scheme: scheme, Res: res}
		return nil
	}, record, progress)
	if err != nil {
		return nil, err
	}
	if rerr := rep.Err(); rerr != nil {
		return out, rerr
	}
	return out, nil
}

// TrioGrid is the hashed identity of a trio-sweep grid, shared with the
// distributed coordinator (internal/distsweep).
type TrioGrid struct {
	Trios []workloads.Trio
	Goals []float64
	NQoS  int
}

// TrioSweep runs every trio at every goal with nQoS QoS kernels (1 or 2)
// across the worker pool, merging results in deterministic (trio-major,
// goal-minor) order — identical to the serial TrioSweep. Failure
// semantics match PairSweep.
func (r *Runner) TrioSweep(ctx context.Context, trios []workloads.Trio, goals []float64, nQoS int, scheme core.Scheme, progress ProgressFunc) ([]TrioCase, error) {
	if nQoS < 1 || nQoS > 2 {
		return nil, fmt.Errorf("exp: nQoS must be 1 or 2, got %d", nQoS)
	}
	out := make([]TrioCase, len(trios)*len(goals))
	describe := func(i int) string {
		t, g := trios[i/len(goals)], goals[i%len(goals)]
		return fmt.Sprintf("trio[%d] %s+%s+%s @%.2f", i/len(goals), t.A, t.B, t.C, g)
	}
	skip, record, err := r.journalHooks("trios", scheme, TrioGrid{trios, goals, nQoS}, len(out),
		func(i int, raw json.RawMessage) bool {
			var c TrioCase
			if json.Unmarshal(raw, &c) != nil || c.Res == nil {
				return false
			}
			out[i] = c
			return true
		},
		func(i int) any { return out[i] })
	if err != nil {
		return nil, err
	}
	rep, err := r.sweep(ctx, scheme.String(), len(out), skip, describe, func(ctx context.Context, s *core.Session, i int) error {
		t, g := trios[i/len(goals)], goals[i%len(goals)]
		specs, qg := TrioSpecs(t, g, nQoS)
		name := fmt.Sprintf("trio%03d_%s+%s+%s_g%.2f_q%d_%s", i, t.A, t.B, t.C, g, nQoS, scheme.Name())
		res, err := r.runCase(ctx, s, name, specs, scheme)
		if err != nil {
			return err
		}
		out[i] = TrioCase{Trio: t, QoSGoals: qg, Scheme: scheme, Res: res}
		return nil
	}, record, progress)
	if err != nil {
		return nil, err
	}
	if rerr := rep.Err(); rerr != nil {
		return out, rerr
	}
	return out, nil
}
