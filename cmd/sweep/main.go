// Command sweep runs pair or trio co-run studies and emits one CSV row
// per case, for offline plotting of the paper's figures. Cases fan out
// over a parallel worker pool (-workers, default one per CPU); rows are
// emitted in deterministic case order and are bit-identical to a serial
// run. Ctrl-C cancels mid-sweep.
//
// Sweeps are fault-tolerant: a crashing or erroring case is isolated and
// reported instead of aborting the study (the healthy rows are emitted and
// the command exits non-zero), runaway cases can be reaped
// (-case-timeout), and with -journal every completed case is checkpointed
// so an interrupted sweep resumes (-resume) without recomputing — resumed
// results are bit-identical to an uninterrupted run. A failed case is not
// retried: a case is a pure function of its inputs and would fail again.
//
// Usage:
//
//	sweep -mode pairs -schemes rollover,spart > pairs.csv
//	sweep -mode trios -nqos 2 -schemes rollover,spart -subsample 2 > trios2.csv
//	sweep -mode pairs -workers 1   # force serial execution
//	sweep -mode pairs -journal pairs.ckpt            # checkpoint as it goes
//	sweep -mode pairs -journal pairs.ckpt -resume    # pick up after a crash
//	sweep -mode pairs -suite openworld -schemes rollover > openworld.csv
//
// -suite openworld swaps the pairs grid for the open-world classes
// (latency-SLO'd LLM inference, periodic real-time detection) co-run
// against every paper benchmark. Arrival streams are driven by
// cmd/stream (-mode drive -csv), not by this command.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
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
	"repro/internal/exp"
	"repro/internal/journal"
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
	caseTimeout time.Duration
	traceDir    string
	traceFmt    string
	pprofAddr   string
	suite       string
}

func main() {
	var o options
	var scale56 bool
	flag.StringVar(&o.mode, "mode", "pairs", "pairs|trios")
	flag.IntVar(&o.nQoS, "nqos", 1, "QoS kernels per trio (trios mode)")
	flag.StringVar(&o.schemes, "schemes", "rollover,spart", "comma-separated scheme list")
	flag.Int64Var(&o.window, "window", 200_000, "measurement window in cycles")
	flag.IntVar(&o.subsample, "subsample", 1, "take every k-th pair/trio")
	flag.StringVar(&o.goals, "goals", "", "comma-separated goal fractions (default: paper sweep)")
	flag.BoolVar(&scale56, "scale56", false, "use the 56-SM configuration")
	flag.IntVar(&o.workers, "workers", 0, "parallel sweep workers (0 = one per CPU)")
	flag.StringVar(&o.journalPath, "journal", "", "checkpoint journal file (completed cases are appended)")
	flag.BoolVar(&o.resume, "resume", false, "resume from the journal, skipping already-completed cases")
	flag.DurationVar(&o.caseTimeout, "case-timeout", 0, "per-case deadline (0 = none)")
	flag.StringVar(&o.traceDir, "trace", "", "directory for per-case event traces (empty = tracing off)")
	flag.StringVar(&o.traceFmt, "trace-format", "jsonl", "trace encoding: jsonl|chrome")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&o.suite, "suite", "paper", "pair grid: paper (the 90-pair Parboil grid) | openworld (open-world classes vs every paper benchmark)")
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
// of the suite or trio, at the goals. The sweep runs it under each scheme.
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

// openJournal opens (or creates) the checkpoint journal of a grid sweep.
// The header hash binds the file to the device, window, mode and -nqos;
// per-stage keys inside bind each case to the exact session config and
// grid. The hash keeps the form every grid journal has been written
// under, by this command and by the distributed coordinator it once had:
// pairs mode hashes -nqos too, unused as it is there, and -window 0 and
// -nqos 0 hash as the defaults they run as. Without -resume an existing
// journal is refused rather than silently overwritten.
func openJournal(o options) (*journal.Journal, error) {
	if o.journalPath == "" {
		return nil, nil
	}
	window, nqos := o.window, o.nQoS
	if window == 0 {
		window = 200_000
	}
	if nqos == 0 {
		nqos = 1
	}
	hash, err := journal.Hash(struct {
		GPU    config.GPU
		Window int64
		Mode   string
		NQoS   int
	}{o.gpu, window, o.mode, nqos})
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

// newRunner builds the session pool a sweep runs its cases on.
func newRunner(o options, j *journal.Journal) (*exp.Runner, error) {
	traceFmt, err := trace.ParseFormat(o.traceFmt)
	if err != nil {
		return nil, err
	}
	return exp.NewRunner(o.workers,
		exp.WithSessionOptions(core.WithGPU(o.gpu), core.WithWindow(o.window)),
		exp.WithFaultPolicy(exp.FaultPolicy{CaseTimeout: o.caseTimeout, Journal: j}),
		exp.WithTraceDir(o.traceDir, traceFmt))
}

func run(ctx context.Context, o options, stdout io.Writer) error {
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
	if o.resume && o.journalPath == "" {
		return errors.New("-resume requires -journal")
	}
	g, err := sweepGrid(o)
	if err != nil {
		return err
	}
	jnl, err := openJournal(o)
	if err != nil {
		return err
	}
	if jnl != nil {
		defer jnl.Close()
	}
	runner, err := newRunner(o, jnl)
	if err != nil {
		return err
	}

	w := csv.NewWriter(stdout)
	defer w.Flush()
	w.Write(g.CSVHeader())
	// A sweep that completed with failed cases still emits its healthy
	// rows, but the run exits non-zero so scripts notice the holes.
	var failed int
	var reps []*exp.SweepReport
	for _, sc := range schemes {
		cases, rep, err := runner.Sweep(ctx, g, sc, progress)
		var se *exp.SweepError
		if errors.As(err, &se) {
			fmt.Fprintf(os.Stderr, "\n%s\n", se.Error())
			failed += len(se.Report.Failed)
		} else if err != nil {
			return err
		}
		reps = append(reps, rep)
		if err := w.WriteAll(g.CSVRows(cases)); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr)
	for _, rep := range reps {
		n := rep.Total - rep.Skipped
		fmt.Fprintf(os.Stderr, "sweep %-24s %4d cases in %8s (%.1f case/s, %d workers)\n",
			rep.Stage, n, rep.Wall.Round(time.Millisecond), float64(n)/rep.Wall.Seconds(), runner.Workers())
	}
	for _, rep := range reps {
		if rep.Skipped > 0 || len(rep.Failed) > 0 {
			fmt.Fprintf(os.Stderr, "sweep %-24s %s\n", rep.Stage, rep.Summary())
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d case(s) failed; completed rows were emitted", failed)
	}
	return nil
}
