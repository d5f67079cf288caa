// Command sweep runs pair or trio co-run studies and emits one CSV row
// per case, for offline plotting of the paper's figures. Cases fan out
// over a parallel worker pool (-workers, default one per CPU); rows are
// emitted in deterministic case order and are bit-identical to a serial
// run. Ctrl-C cancels mid-sweep.
//
// Each scheme's sweep is collected on its own (exp.Study.Collect), so
// sweeps are fault-tolerant: a crashing or erroring case is isolated and
// reported instead of aborting the study (the healthy rows are emitted,
// the next scheme still runs and the command exits non-zero), and runaway
// cases can be reaped (-case-timeout). A failed case is not retried: a
// case is a pure function of its inputs and would fail again.
//
// -rows DIR backs the sweep with a row store, the one qossim reads: a
// scheme whose stage file is in DIR is read, not simulated, and one that
// simulates to the end is written there. So a killed sweep re-run with
// the same flags resumes after the last completed scheme, and
// -rows results/full with the committed window (-window 300000) prints
// the committed full-grid rows without simulating. Off by default.
//
// Usage:
//
//	sweep -mode pairs -schemes rollover,spart > pairs.csv
//	sweep -mode trios -nqos 2 -schemes rollover,spart -subsample 2 > trios2.csv
//	sweep -mode pairs -workers 1   # force serial execution
//	sweep -mode pairs -rows rows/ > pairs.csv   # re-run after a crash to resume
//	sweep -mode pairs -schemes rollover -window 300000 -rows results/full
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
	rows        string
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
	flag.StringVar(&o.rows, "rows", "", "row store: stage files are read from and written to it (empty = simulate all, write none)")
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

// newRunner builds the session pool a sweep runs its cases on.
func newRunner(o options) (*exp.Runner, error) {
	traceFmt, err := trace.ParseFormat(o.traceFmt)
	if err != nil {
		return nil, err
	}
	return exp.NewRunner(o.workers,
		exp.WithSessionOptions(core.WithGPU(o.gpu), core.WithWindow(o.window)),
		exp.WithCaseTimeout(o.caseTimeout),
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
	g, err := sweepGrid(o)
	if err != nil {
		return err
	}
	runner, err := newRunner(o)
	if err != nil {
		return err
	}
	// The study's grid for a sweep of g's NQoS is g itself: a 2-QoS trio
	// sweep runs at Goals2, every other at Goals.
	st := exp.Study{Runner: runner, Pairs: g.Pairs, Trios: g.Trios, Goals: g.Goals, Goals2: g.Goals,
		Rows: o.rows, Progress: progress}

	w := csv.NewWriter(stdout)
	defer w.Flush()
	w.Write(g.CSVHeader())
	// One Collect per scheme: a sweep that completed with failed cases
	// still emits its healthy rows and the next scheme still runs, but
	// the run exits non-zero so scripts notice the holes.
	var failed int
	var rows []exp.SweepRow
	for _, sc := range schemes {
		got, err := st.Collect(ctx, []exp.Sweep{{Name: sc.String(), Scheme: sc, NQoS: g.NQoS}})
		var se *exp.SweepError
		if errors.As(err, &se) {
			fmt.Fprintf(os.Stderr, "\n%s\n", se)
			failed += len(se.Report.Failed)
		} else if err != nil {
			return err
		}
		for _, row := range got {
			if err := w.WriteAll(g.CSVRows(row.Cases)); err != nil {
				return err
			}
		}
		rows = append(rows, got...)
	}
	fmt.Fprintln(os.Stderr)
	exp.PrintRows(os.Stderr, rows)
	if failed > 0 {
		return fmt.Errorf("%d case(s) failed; completed rows were emitted", failed)
	}
	return nil
}
