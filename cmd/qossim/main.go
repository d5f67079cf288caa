// Command qossim regenerates the paper's tables and figures on the
// simulator. Each experiment prints the same rows/series the paper
// reports, next to a note quoting the paper's own numbers. Sweeps run on
// a parallel worker pool (-workers, default one per CPU) with results
// bit-identical to a serial run; Ctrl-C cancels cleanly mid-sweep.
//
// Long studies can checkpoint to a journal (-journal) and, after an
// interruption, resume (-resume) without recomputing finished cases;
// resumed figures are bit-identical to an uninterrupted run.
// -case-timeout bounds an individual wedged case; figures still require
// complete grids, so a failing case fails the run (the journal keeps
// everything completed so far). A failed case is not retried: it is a
// pure function of its inputs and would fail again.
//
// Usage:
//
//	qossim -exp fig6a              # reduced study (fast)
//	qossim -exp fig6c -full        # the complete 60-trio sweep
//	qossim -exp all -window 500000 # everything, longer window
//	qossim -exp fig6a -workers 4   # cap the worker pool
//	qossim -exp all -full -journal study.ckpt          # checkpoint
//	qossim -exp all -full -journal study.ckpt -resume  # continue
//
// -exp takes an id of exp.Experiments (table1, fig5 … fig14,
// ablate-history/-static/-preempt/-epoch/-nqinit) or all. The selected
// experiments' sweeps are collected once, deduplicated, before any table
// prints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/trace"
)

// options carries the parsed command line.
type options struct {
	expName     string
	full        bool
	subsample   int
	window      int64
	workers     int
	quiet       bool
	journalPath string
	resume      bool
	caseTimeout time.Duration
	traceDir    string
	traceFmt    string
}

func main() {
	var o options
	flag.StringVar(&o.expName, "exp", "fig6a", "experiment to run (or 'all')")
	flag.BoolVar(&o.full, "full", false, "run the complete study (90 pairs / 60 trios, 10 goals)")
	flag.IntVar(&o.subsample, "subsample", 6, "take every k-th pair/trio in reduced mode")
	flag.Int64Var(&o.window, "window", 200_000, "measurement window in cycles")
	flag.IntVar(&o.workers, "workers", 0, "parallel sweep workers (0 = one per CPU)")
	flag.BoolVar(&o.quiet, "q", false, "suppress progress output")
	flag.StringVar(&o.journalPath, "journal", "", "checkpoint journal file (completed cases are appended)")
	flag.BoolVar(&o.resume, "resume", false, "resume from the journal, skipping already-completed cases")
	flag.DurationVar(&o.caseTimeout, "case-timeout", 0, "per-case deadline (0 = none)")
	flag.StringVar(&o.traceDir, "trace", "", "directory for per-case event traces (empty = tracing off)")
	flag.StringVar(&o.traceFmt, "trace-format", "jsonl", "trace encoding: jsonl|chrome")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "qossim:", err)
		os.Exit(1)
	}
}

// openJournal opens (or creates) the checkpoint journal. The header hash
// binds the file to the study shape; the per-stage keys inside bind each
// case to the exact session config and grid, so one journal safely backs
// every sweep of an -exp all run, the derived runners' included.
func openJournal(o options) (*journal.Journal, error) {
	if o.journalPath == "" {
		if o.resume {
			return nil, errors.New("-resume requires -journal")
		}
		return nil, nil
	}
	hash, err := journal.Hash(struct {
		Window    int64
		Full      bool
		Subsample int
	}{o.window, o.full, o.subsample})
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

// newStudy builds the study every selected experiment reduces. Sweeps
// on the 56-SM device and the ablations' variants run on runners derived
// from this one, and the journal backs them all: stage keys disambiguate
// the configurations.
func newStudy(o options, jnl *journal.Journal) (exp.Study, error) {
	ropts := []exp.Option{
		exp.WithSessionOptions(core.WithGPU(config.Base()), core.WithWindow(o.window)),
		exp.WithFaultPolicy(exp.FaultPolicy{CaseTimeout: o.caseTimeout, Journal: jnl}),
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
	var st exp.Study
	if o.full {
		st = exp.FullStudy(r)
	} else {
		st = exp.ReducedStudy(r, o.subsample)
	}
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

func run(ctx context.Context, o options) error {
	var selected []exp.Experiment
	for _, e := range exp.Experiments() {
		if e.ID == o.expName || o.expName == "all" {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", o.expName)
	}
	jnl, err := openJournal(o)
	if err != nil {
		return err
	}
	if jnl != nil {
		defer jnl.Close()
	}
	st, err := newStudy(o, jnl)
	if err != nil {
		return err
	}
	tables, rows, err := st.Tables(ctx, selected)
	if !o.quiet {
		printRows(rows)
	}
	if err != nil {
		return err
	}
	for i, t := range tables {
		if selected[i].ID == "table1" { // a parameter list, not a figure: text, no spacer
			fmt.Print(t)
		} else {
			fmt.Println(t)
		}
	}
	return nil
}

// printRows writes the end-of-run account of every declared sweep to
// stderr: cases simulated and their rate, journal skips and failures, or which earlier sweep it reused.
func printRows(rows []exp.SweepRow) {
	for _, row := range rows {
		if row.Reused != "" {
			fmt.Fprintf(os.Stderr, "sweep %-24s reused %s\n", row.Stage, row.Reused)
			continue
		}
		fmt.Fprintf(os.Stderr, "sweep %-24s %4d cases in %8s (%.1f case/s)",
			row.Stage, row.Cases, row.Wall.Round(time.Millisecond), row.CasesPerSec)
		if rep := row.Report; rep.Skipped > 0 || len(rep.Failed) > 0 {
			fmt.Fprintf(os.Stderr, "; %s", rep.Summary())
		}
		fmt.Fprintln(os.Stderr)
	}
}
