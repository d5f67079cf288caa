// Command qossim prints the paper's tables and figures and a scoreboard
// of every number the paper's Section 4 states against ours, each a
// reduction over a study's per-case rows: the selected experiments'
// sweeps are collected once, deduplicated, before any table prints.
//
// Rows come from a row store (-rows, default results/full: the committed
// study at the committed window). A sweep whose stage file is
// there is read, not simulated; a missing one is simulated on a parallel
// worker pool (-workers, default one per CPU), bit-identical to a serial
// run, and written there when it completes. So the store is also the
// resume point: a killed run loses at most the stage in flight. The
// stderr account names, per sweep, the cases simulated or the file read.
// -rows "" simulates everything and writes nothing. A file whose rows do
// not match its grid fails the run; no table is reduced from a partial
// grid.
//
// -case-timeout bounds an individual wedged case; a failing case fails
// the run and writes no file. A failed case is not retried: it is a pure
// function of its inputs and would fail again. -trace writes per-case
// event traces of the cases that simulate.
//
// Usage:
//
//	qossim -exp all                  # from results/full, simulates nothing
//	qossim -exp all -window 100000 -subsample 9 -rows /tmp/rows
//	qossim -exp fig6a -rows "" -subsample 30 -window 60000  # quick, unstored
//
// -exp takes an id of exp.Experiments (table1, fig5 … fig14,
// ablate-history/-static/-preempt/-epoch/-nqinit, scoreboard) or all. -subsample k
// takes every max(k, s)-th pair and trio, at every goal, where s is the
// stride the experiment's rows are committed at (exp.Experiment.Stride).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/trace"
)

// options carries the parsed command line.
type options struct {
	expName     string
	subsample   int
	window      int64
	workers     int
	quiet       bool
	rows        string
	caseTimeout time.Duration
	traceDir    string
	traceFmt    string
}

func main() {
	var o options
	flag.StringVar(&o.expName, "exp", "fig6a", "experiment to run (or 'all')")
	flag.IntVar(&o.subsample, "subsample", 1, "take every k-th pair/trio, or every committed-stride-th if sparser (1 = as committed)")
	flag.Int64Var(&o.window, "window", exp.CommittedWindow, "measurement window in cycles")
	flag.IntVar(&o.workers, "workers", 0, "parallel sweep workers (0 = one per CPU)")
	flag.BoolVar(&o.quiet, "q", false, "suppress progress output")
	flag.StringVar(&o.rows, "rows", "results/full", "row store: stage files are read from and written to it (\"\" = simulate all, write none)")
	flag.DurationVar(&o.caseTimeout, "case-timeout", 0, "per-case deadline (0 = none)")
	flag.StringVar(&o.traceDir, "trace", "", "directory for per-case event traces (empty = tracing off)")
	flag.StringVar(&o.traceFmt, "trace-format", "jsonl", "trace encoding: jsonl|chrome")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qossim:", err)
		os.Exit(1)
	}
}

// newStudy builds the study every selected experiment reduces. Sweeps
// on the 56-SM device and the ablations' variants run on runners derived
// from this one, and the row store backs them all: stage keys
// disambiguate the configurations.
func newStudy(o options) (exp.Study, error) {
	ropts := []exp.Option{
		exp.WithSessionOptions(core.WithGPU(config.Base()), core.WithWindow(o.window)),
		exp.WithCaseTimeout(o.caseTimeout),
	}
	if o.traceDir != "" {
		f, err := trace.ParseFormat(o.traceFmt)
		if err != nil {
			return exp.Study{}, err
		}
		ropts = append(ropts, exp.WithTraceDir(o.traceDir, f))
	}
	r, err := exp.NewRunner(o.workers, ropts...)
	if err != nil {
		return exp.Study{}, err
	}
	st := exp.NewStudy(r, o.subsample)
	st.Rows = o.rows
	if !o.quiet {
		st.Progress = func(p exp.Progress) {
			if p.Done == p.Total || p.Done%25 == 0 {
				fmt.Fprintf(os.Stderr, "\r[%6s] %-24s %d/%d  %.1f case/s  ETA %-8s ",
					p.Elapsed.Round(time.Second), p.Stage, p.Done, p.Total,
					p.CasesPerSec, p.ETA.Round(time.Second))
			}
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	return st, nil
}

func run(ctx context.Context, o options, stdout io.Writer) error {
	var selected []exp.Experiment
	for _, e := range exp.Experiments() {
		if e.ID == o.expName || o.expName == "all" {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", o.expName)
	}
	st, err := newStudy(o)
	if err != nil {
		return err
	}
	tables, rows, err := st.Tables(ctx, selected)
	if !o.quiet {
		exp.PrintRows(os.Stderr, rows)
	}
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Fprintln(stdout, t)
	}
	return nil
}
