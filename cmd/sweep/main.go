// Command sweep runs pair or trio co-run studies and emits one CSV row
// per case, for offline plotting of the paper's figures. Cases fan out
// over a parallel worker pool (-workers, default one per CPU); rows are
// emitted in deterministic case order and are bit-identical to a serial
// run. Ctrl-C cancels mid-sweep.
//
// Sweeps are fault-tolerant: a crashing or erroring case is isolated and
// reported instead of aborting the study (restore the old behavior with
// -fail-fast), transient failures can be retried (-retries, with
// -retry-backoff), runaway cases can be reaped (-case-timeout), and with
// -journal every completed case is checkpointed so an interrupted sweep
// resumes (-resume) without recomputing — resumed results are
// bit-identical to an uninterrupted run.
//
// Usage:
//
//	sweep -mode pairs -schemes rollover,spart > pairs.csv
//	sweep -mode trios -nqos 2 -schemes rollover,spart -subsample 2 > trios2.csv
//	sweep -mode pairs -workers 1   # force serial execution
//	sweep -mode pairs -journal pairs.ckpt            # checkpoint as it goes
//	sweep -mode pairs -journal pairs.ckpt -resume    # pick up after a crash
//	sweep -mode pairs -schemes rollover -fit fit.json  # also emit a qosd model fit
//	sweep -mode pairs -suite openworld -schemes rollover > openworld.csv
//	sweep -mode stream -arrivals poisson,bursty -schemes rollover -window 30000 > stream.csv
//	sweep -mode pairs -schemes rollover -serve :9121 -journal pairs.ckpt > pairs.csv
//	sweep -worker http://host:9121 -workers 8        # on each worker machine
//
// -suite openworld swaps the pairs grid for the open-world classes
// (latency-SLO'd LLM inference, periodic real-time detection) co-run
// against every paper benchmark. -mode stream sweeps an arrival-process
// axis instead of a workload grid: each -arrivals process is expanded
// into a seeded trace at the same mean rate, driven through a fresh
// in-process qosd admission loop, and reported as per-tenant SLO rows
// (see internal/stream; trace_hash binds each row to its exact traffic).
//
// A grid sweep can also run distributed. With -serve the process is the
// coordinator of the grid its flags describe, under exactly one scheme:
// it owns the checkpoint journal (the same file format and stage keys as
// a local -journal run, so a sweep moves freely between the two), leases
// contiguous case ranges over HTTP to -worker processes, leases the
// ranges of workers that stop heartbeating again, and writes the merged
// CSV to stdout once every case is committed. SIGTERM/SIGINT drains it: grants
// stop, in-flight deliveries still land, and -resume continues. With
// -worker the process fetches the grid from a coordinator and runs each
// leased range across its whole pool; -workers, -case-timeout, -retries,
// -retry-backoff and -trace shape that local execution.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/distsweep"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/retry"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// options carries the parsed command line.
type options struct {
	mode        string
	nQoS        int
	schemes     string
	window      int64
	subsample   int
	goals       string
	gpu         config.GPU // -scale56 selects config.Scale56, else config.Base
	workers     int
	journalPath string
	resume      bool
	failFast    bool
	caseTimeout time.Duration
	retries     int
	backoff     time.Duration
	traceDir    string
	traceFmt    string
	pprofAddr   string
	fitPath     string
	serveAddr   string
	leaseCases  int
	leaseTTL    time.Duration
	drainWait   time.Duration
	workerAddr  string
	workerName  string
	suite       string
	arrivals    string
	rate        float64
	streamDur   time.Duration
	mix         int
}

func main() {
	var o options
	var scale56 bool
	flag.StringVar(&o.mode, "mode", "pairs", "pairs|trios|stream")
	flag.IntVar(&o.nQoS, "nqos", 1, "QoS kernels per trio (trios mode)")
	flag.StringVar(&o.schemes, "schemes", "rollover,spart", "comma-separated scheme list")
	flag.Int64Var(&o.window, "window", 200_000, "measurement window in cycles")
	flag.IntVar(&o.subsample, "subsample", 1, "take every k-th pair/trio")
	flag.StringVar(&o.goals, "goals", "", "comma-separated goal fractions (default: paper sweep)")
	flag.BoolVar(&scale56, "scale56", false, "use the 56-SM configuration")
	flag.IntVar(&o.workers, "workers", 0, "parallel sweep workers (0 = one per CPU)")
	flag.StringVar(&o.journalPath, "journal", "", "checkpoint journal file (completed cases are appended)")
	flag.BoolVar(&o.resume, "resume", false, "resume from the journal, skipping already-completed cases")
	flag.BoolVar(&o.failFast, "fail-fast", false, "abort the sweep on the first failing case")
	flag.DurationVar(&o.caseTimeout, "case-timeout", 0, "per-case deadline (0 = none)")
	flag.IntVar(&o.retries, "retries", 0, "extra attempts per failing case")
	flag.DurationVar(&o.backoff, "retry-backoff", 100*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
	flag.StringVar(&o.traceDir, "trace", "", "directory for per-case event traces (empty = tracing off)")
	flag.StringVar(&o.traceFmt, "trace-format", "jsonl", "trace encoding: jsonl|chrome")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&o.fitPath, "fit", "", "distill the pair sweep into a qosd performance-model fit at this path (pairs mode, exactly one scheme)")
	flag.StringVar(&o.serveAddr, "serve", "", "coordinate a distributed sweep of the grid on this address (exactly one scheme); workers join with -worker")
	flag.IntVar(&o.leaseCases, "lease-cases", distsweep.DefaultLeaseCases, "cases per lease (-serve)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", distsweep.DefaultLeaseTTL, "heartbeat deadline before a lease's unfinished cases are leased again (-serve)")
	flag.DurationVar(&o.drainWait, "drain-wait", 30*time.Second, "graceful drain budget on SIGTERM (-serve)")
	flag.StringVar(&o.workerAddr, "worker", "", "run as a distributed worker against this -serve coordinator URL")
	flag.StringVar(&o.workerName, "worker-name", "", "worker name reported to the coordinator (default sweep-<pid>)")
	flag.StringVar(&o.suite, "suite", "paper", "pair grid: paper (the 90-pair Parboil grid) | openworld (open-world classes vs every paper benchmark)")
	flag.StringVar(&o.arrivals, "arrivals", "poisson,diurnal,bursty", "comma-separated arrival processes to sweep (stream mode)")
	flag.Float64Var(&o.rate, "rate", 8, "mean arrivals per second per process (stream mode)")
	flag.DurationVar(&o.streamDur, "stream-duration", 30*time.Second, "virtual length of each generated trace (stream mode)")
	flag.IntVar(&o.mix, "mix", 3, "admitted-mix capacity of the in-process daemon (stream mode)")
	flag.Parse()
	o.gpu = config.Base()
	if scale56 {
		o.gpu = config.Scale56()
	}

	if o.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: pprof server:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func parseSchemes(s string) ([]core.Scheme, error) {
	var out []core.Scheme
	for _, name := range strings.Split(s, ",") {
		sc, err := core.ParseScheme(name)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func parseGoals(s string, def []float64) ([]float64, error) {
	if s == "" {
		return def, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func progress(p exp.Progress) {
	if p.Done%20 == 0 || p.Done == p.Total {
		fmt.Fprintf(os.Stderr, "\r%-30s %d/%d  %.1f case/s  ETA %-8s ",
			p.Stage, p.Done, p.Total, p.CasesPerSec, p.ETA.Round(time.Second))
	}
}

// every takes every k-th element of in, starting with the first.
func every[T any](in []T, k int) []T {
	var out []T
	for i := 0; i < len(in); i += max(k, 1) {
		out = append(out, in[i])
	}
	return out
}

// sweepGrid builds the case grid the grid flags describe: every k-th pair
// of the suite or trio, at the goals. Local runs sweep it under each
// scheme and -serve distributes it.
func sweepGrid(o options) (exp.Grid, error) {
	def := exp.Goals()
	if o.mode == "trios" && o.nQoS == 2 {
		def = exp.TwoQoSGoals()
	}
	goals, err := parseGoals(o.goals, def)
	if err != nil {
		return exp.Grid{}, err
	}
	switch o.mode {
	case "pairs":
		pairs := workloads.Pairs()
		if o.suite == "openworld" {
			pairs = workloads.OpenWorldPairs()
		}
		return exp.Grid{Pairs: every(pairs, o.subsample), Goals: goals}, nil
	case "trios":
		if o.nQoS < 1 || o.nQoS > 2 {
			return exp.Grid{}, fmt.Errorf("-nqos must be 1 or 2, got %d", o.nQoS)
		}
		return exp.Grid{Trios: every(workloads.Trios(), o.subsample), Goals: goals, NQoS: o.nQoS}, nil
	}
	return exp.Grid{}, fmt.Errorf("unknown mode %q", o.mode)
}

// sweepSpec describes g as a distributed sweep under scheme. Its header
// hash binds every journal of the grid, local or distributed.
func sweepSpec(o options, g exp.Grid, scheme core.Scheme) distsweep.Spec {
	return distsweep.Spec{
		Mode:   o.mode,
		Pairs:  g.Pairs,
		Trios:  g.Trios,
		Goals:  schema.FracGoals(g.Goals),
		NQoS:   o.nQoS,
		Scheme: scheme.Name(),
		GPU:    o.gpu,
		Window: o.window,
		Seed:   workloads.Seed,
	}
}

// openJournal opens (or creates) the checkpoint journal of a local run.
// The header hash binds the file to the device/window/mode; per-stage
// keys inside bind each case to the exact session config and grid.
// Without -resume an existing journal is refused rather than silently
// overwritten.
func openJournal(o options, sp distsweep.Spec) (*journal.Journal, error) {
	if o.journalPath == "" {
		return nil, nil
	}
	hash, err := sp.HeaderHash()
	if err != nil {
		return nil, err
	}
	if o.resume {
		return journal.Open(o.journalPath, hash)
	}
	if _, err := os.Stat(o.journalPath); err == nil {
		return nil, fmt.Errorf("journal %s exists; pass -resume to continue it or remove it first", o.journalPath)
	}
	return journal.Create(o.journalPath, hash)
}

// newRunner builds the session pool local sweeps and workers execute
// cases on.
func newRunner(o options, j *journal.Journal, session ...core.Option) (*exp.Runner, error) {
	traceFmt, err := trace.ParseFormat(o.traceFmt)
	if err != nil {
		return nil, err
	}
	return exp.NewRunner(o.workers,
		exp.WithSessionOptions(session...),
		exp.WithFaultPolicy(exp.FaultPolicy{
			FailFast:    o.failFast,
			CaseTimeout: o.caseTimeout,
			Journal:     j,
			Retry: retry.Policy{
				MaxAttempts: o.retries + 1,
				BaseDelay:   o.backoff,
				Seed:        workloads.Seed,
			},
		}),
		exp.WithTraceDir(o.traceDir, traceFmt))
}

func run(ctx context.Context, o options, stdout io.Writer) error {
	if o.workerAddr != "" {
		if o.failFast {
			// The coordinator decides when a case has failed for good:
			// after DefaultMaxCaseAttempts failure reports.
			return errors.New("-fail-fast does not apply to -worker; the coordinator fails a case after repeated failure reports")
		}
		return runWorker(ctx, o)
	}
	schemes, err := parseSchemes(o.schemes)
	if err != nil {
		return err
	}
	if o.suite != "paper" && o.suite != "openworld" {
		return fmt.Errorf("unknown suite %q (want paper or openworld)", o.suite)
	}
	if o.suite != "paper" && o.mode != "pairs" {
		return errors.New("-suite selects the pairs grid; it requires -mode pairs")
	}
	if o.mode == "stream" {
		if o.serveAddr != "" {
			return errors.New("-serve distributes grid sweeps, not -mode stream")
		}
		if o.journalPath != "" || o.resume {
			// Case checkpointing keys on grid indices; a stream drive is one
			// indivisible replay, already reproducible from (spec, seed).
			return errors.New("-journal/-resume apply to grid sweeps, not -mode stream")
		}
		if len(schemes) != 1 {
			return errors.New("-mode stream requires exactly one -schemes entry (stream rows carry no scheme column)")
		}
		return runStream(ctx, o, schemes[0], stdout)
	}
	if o.resume && o.journalPath == "" {
		return errors.New("-resume requires -journal")
	}
	if o.serveAddr != "" && len(schemes) != 1 {
		return errors.New("-serve requires exactly one -schemes entry (a coordinator distributes one scheme)")
	}
	if o.fitPath != "" && (o.mode != "pairs" || len(schemes) != 1) {
		return errors.New("-fit requires -mode pairs and exactly one -schemes entry (a fit is bound to one scheme)")
	}
	g, err := sweepGrid(o)
	if err != nil {
		return err
	}
	spec := sweepSpec(o, g, schemes[0])
	if o.serveAddr != "" {
		return serve(ctx, o, spec, stdout)
	}
	jnl, err := openJournal(o, spec)
	if err != nil {
		return err
	}
	if jnl != nil {
		defer jnl.Close()
	}
	runner, err := newRunner(o, jnl, core.WithGPU(o.gpu), core.WithWindow(o.window))
	if err != nil {
		return err
	}

	w := csv.NewWriter(stdout)
	defer w.Flush()
	w.Write(g.CSVHeader())
	// A sweep that completed with failed cases still emits its healthy
	// rows, but the run exits non-zero so scripts notice the holes.
	var failed int
	for _, sc := range schemes {
		cases, err := runner.Sweep(ctx, g, sc, progress)
		var se *exp.SweepError
		if errors.As(err, &se) {
			fmt.Fprintf(os.Stderr, "\n%s\n", se.Error())
			failed += len(se.Report.Failed)
		} else if err != nil {
			return err
		}
		if o.fitPath != "" {
			fit, ferr := exp.ModelFit(cases.Pairs, sc, runner.Session())
			if ferr != nil {
				return ferr
			}
			if ferr := fit.Save(o.fitPath); ferr != nil {
				return ferr
			}
			fmt.Fprintf(os.Stderr, "sweep: wrote model fit %s (version %.12s…, %d workloads, %d pairs)\n",
				o.fitPath, fit.Version, len(fit.Isolated), len(fit.Pairs))
		}
		if err := w.WriteAll(g.CSVRows(cases)); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr)
	for _, m := range runner.Metrics() {
		fmt.Fprintf(os.Stderr, "sweep %-24s %4d cases in %8s (%.1f case/s, %d workers)\n",
			m.Stage, m.Cases, m.Wall.Round(time.Millisecond), m.CasesPerSec, runner.Workers())
	}
	for _, rep := range runner.Reports() {
		if rep.Skipped > 0 || rep.Retried > 0 || len(rep.Failed) > 0 {
			fmt.Fprintf(os.Stderr, "sweep %-24s %s\n", rep.Stage, rep.Summary())
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d case(s) failed; completed rows were emitted", failed)
	}
	return nil
}

// serve coordinates the distributed sweep of spec until every case is
// committed or permanently failed, then writes the merged CSV to stdout.
// Cancellation drains instead: lease grants stop, in-flight result
// deliveries still land in the journal, then the listener closes.
func serve(ctx context.Context, o options, spec distsweep.Spec, stdout io.Writer) error {
	coord, err := distsweep.New(distsweep.Config{
		Spec:       spec,
		Journal:    o.journalPath,
		Resume:     o.resume,
		LeaseCases: o.leaseCases,
		LeaseTTL:   o.leaseTTL,
		Log:        log.New(os.Stderr, "sweep: ", 0),
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	hs := &http.Server{Addr: o.serveAddr, Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "sweep: serving on %s (%s, scheme %s, lease %d cases / %s ttl)\n",
			o.serveAddr, spec.Mode, spec.Scheme, o.leaseCases, o.leaseTTL)
		errCh <- hs.ListenAndServe()
	}()
	finished := false
	select {
	case err := <-errCh:
		return err
	case <-coord.Done():
		finished = true
	case <-ctx.Done():
	}

	if !finished {
		fmt.Fprintln(os.Stderr, "sweep: draining (in-flight results still accepted; journal keeps progress)")
	} else {
		// Linger a few worker poll intervals with the listener up so
		// workers observe Done on their next lease request and exit
		// cleanly, instead of finding a closed port and burning their
		// idle-poll budget on a sweep that actually finished.
		time.Sleep(3 * distsweep.DefaultPollInterval)
	}
	coord.Drain()
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainWait)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	st := coord.State()
	if !finished {
		fmt.Fprintf(os.Stderr, "sweep: drained at %d/%d committed; rerun with -resume to continue\n", st.Committed, st.Total)
		return nil
	}
	if err := coord.WriteCSV(stdout); err != nil {
		return err
	}
	if failed := coord.FailedCases(); len(failed) > 0 {
		for i, msg := range failed {
			fmt.Fprintf(os.Stderr, "sweep: case %d failed permanently: %s\n", i, msg)
		}
		return fmt.Errorf("%d case(s) failed; completed rows were emitted", len(failed))
	}
	fmt.Fprintf(os.Stderr, "sweep: complete: %d cases, %d leases expired, %d orphan reports\n",
		st.Total, st.Expired, st.Orphans)
	return nil
}

// runWorker joins a -serve coordinator: the spec (grid, scheme, device,
// window, seed) comes from the coordinator so every worker simulates
// identical cases; local flags only shape how this process executes
// them. The journal stays coordinator-side — a worker is stateless and
// safe to kill at any point.
func runWorker(ctx context.Context, o options) error {
	pol := retry.Policy{
		MaxAttempts: o.retries + 4,
		BaseDelay:   o.backoff,
		MaxDelay:    5 * time.Second,
		Multiplier:  2,
		Jitter:      0.2,
		Seed:        workloads.Seed,
	}
	spec, stage, err := distsweep.FetchSpec(ctx, nil, o.workerAddr, pol)
	if err != nil {
		return fmt.Errorf("fetch spec from %s: %w", o.workerAddr, err)
	}
	name := o.workerName
	if name == "" {
		name = fmt.Sprintf("sweep-%d", os.Getpid())
	}
	fmt.Fprintf(os.Stderr, "sweep: worker %s joining %s: %s stage %s\n", name, o.workerAddr, spec.Mode, stage)
	runner, err := newRunner(o, nil, spec.SessionOptions()...)
	if err != nil {
		return err
	}
	w, err := distsweep.NewWorker(distsweep.WorkerConfig{
		Addr:   o.workerAddr,
		Name:   name,
		Runner: runner,
		Spec:   spec,
		Retry:  pol,
		Log:    log.New(os.Stderr, "sweep: ", 0),
	})
	if err != nil {
		return err
	}
	err = w.Run(ctx)
	st := w.Stats()
	fmt.Fprintf(os.Stderr, "sweep: worker %s: %d leases, %d cases run, %d delivered, %d failed, %d dup, %d hb misses, %d degraded flushes\n",
		name, st.Leases, st.CasesRun, st.CasesDelivered, st.CasesFailed, st.Duplicates, st.HeartbeatMisses, st.DegradedFlushes)
	if st.CasesUndelivered > 0 {
		// Computed results the coordinator never acknowledged die with
		// this process; say so instead of letting the counts above imply
		// the work landed.
		fmt.Fprintf(os.Stderr, "sweep: worker %s: %d case result(s) computed but UNDELIVERED — lost with this worker\n",
			name, st.CasesUndelivered)
	}
	return err
}

// runStream sweeps the arrival-process axis: each process's seeded trace
// is driven through a fresh in-process qosd admission loop.
func runStream(ctx context.Context, o options, scheme core.Scheme, stdout io.Writer) error {
	runner, err := newRunner(o, nil, core.WithGPU(o.gpu), core.WithWindow(o.window))
	if err != nil {
		return err
	}
	w := csv.NewWriter(stdout)
	defer w.Flush()
	w.Write(stream.CSVHeader())
	for _, raw := range strings.Split(o.arrivals, ",") {
		proc := strings.TrimSpace(raw)
		tr, err := stream.Generate(stream.GenSpec{
			Process:    proc,
			RatePerSec: o.rate,
			DurationMs: o.streamDur.Milliseconds(),
			Seed:       workloads.Seed,
			Tenants:    stream.DefaultTenants(),
		})
		if err != nil {
			return err
		}
		// A fresh daemon per process: admission verdicts depend on the
		// admitted mix, so sharing one daemon would leak load from the
		// previous process's tail into the next process's head. The
		// evaluation runner is shared — Shutdown drains the daemon's
		// decision loop, not the worker pool.
		srv, err := server.New(server.Config{
			Runner:   runner,
			Scheme:   scheme,
			MaxMix:   o.mix,
			FastPath: true,
		})
		if err != nil {
			return err
		}
		d := &stream.Driver{
			Backend:  stream.ServerBackend{Server: srv},
			Registry: srv.Registry(),
			MixSlots: o.mix,
		}
		rep, runErr := d.Run(ctx, tr)
		shCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		shErr := srv.Shutdown(shCtx)
		cancel()
		if runErr != nil {
			return fmt.Errorf("drive %s: %w", proc, runErr)
		}
		if shErr != nil {
			return fmt.Errorf("shutdown after %s: %w", proc, shErr)
		}
		if err := w.WriteAll(stream.CSVRows(rep, tr.Spec)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep stream %-12s %4d arrivals, %d admitted, %d rejected (hash %.12s…)\n",
			proc, rep.Totals.Arrivals, rep.Totals.Admitted, rep.Totals.Rejected, rep.TraceHash)
	}
	fmt.Fprintln(os.Stderr)
	return nil
}
