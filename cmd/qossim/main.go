// Command qossim regenerates the paper's tables and figures on the
// simulator. Each experiment prints the same rows/series the paper
// reports, next to a note quoting the paper's own numbers. Sweeps run on
// a parallel worker pool (-workers, default one per CPU) with results
// bit-identical to a serial run; Ctrl-C cancels cleanly mid-sweep.
//
// Long studies can checkpoint to a journal (-journal) and, after an
// interruption, resume (-resume) without recomputing finished cases;
// resumed figures are bit-identical to an uninterrupted run. -retries
// and -case-timeout bound individual flaky or wedged cases; figures
// still require complete grids, so a case failing all attempts fails its
// experiment (the journal keeps everything completed so far).
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
// Experiments: table1, fig5, fig6a, fig6b, fig6c, fig7, fig8a, fig8b,
// fig8c, fig9, fig10, fig11, fig12, fig13, fig14, ablate-history,
// ablate-static, ablate-preempt, ablate-epoch, ablate-nqinit, all.
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
	"repro/internal/retry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// options carries the parsed command line.
type options struct {
	expName     string
	full        bool
	subsample   int
	window      int64
	workers     int
	quiet       bool
	chart       bool
	journalPath string
	resume      bool
	failFast    bool
	caseTimeout time.Duration
	retries     int
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
	flag.BoolVar(&o.chart, "chart", false, "render figures as ASCII bar charts")
	flag.StringVar(&o.journalPath, "journal", "", "checkpoint journal file (completed cases are appended)")
	flag.BoolVar(&o.resume, "resume", false, "resume from the journal, skipping already-completed cases")
	flag.BoolVar(&o.failFast, "fail-fast", false, "abort a sweep on the first failing case")
	flag.DurationVar(&o.caseTimeout, "case-timeout", 0, "per-case deadline (0 = none)")
	flag.IntVar(&o.retries, "retries", 0, "extra attempts per failing case")
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
// both the base and 56-SM studies of an -exp all run.
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

// newStudy builds one study per device configuration; studies are shared
// across drivers so pair sweeps memoized per scheme (and the isolated-IPC
// baselines) are reused by every figure that needs them.
func newStudy(cfg config.GPU, o options, jnl *journal.Journal) (exp.Study, error) {
	ropts := []exp.Option{
		exp.WithSessionOptions(core.WithGPU(cfg), core.WithWindow(o.window)),
		exp.WithFaultPolicy(exp.FaultPolicy{
			FailFast:    o.failFast,
			CaseTimeout: o.caseTimeout,
			Journal:     jnl,
			Retry: retry.Policy{
				MaxAttempts: o.retries + 1,
				BaseDelay:   100 * time.Millisecond,
				Seed:        workloads.Seed,
			},
		}),
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

type driver struct {
	name  string
	scale bool // uses the 56-SM configuration
	fn    func(context.Context, exp.Study) (*exp.Table, error)
}

func drivers() []driver {
	return []driver{
		{"fig5", false, exp.Fig5},
		{"fig6a", false, exp.Fig6a},
		{"fig6b", false, exp.Fig6b},
		{"fig6c", false, exp.Fig6c},
		{"fig7", false, exp.Fig7},
		{"fig8a", false, exp.Fig8a},
		{"fig8b", false, exp.Fig8b},
		{"fig8c", false, exp.Fig8c},
		{"fig9", false, exp.Fig9},
		{"fig10", false, exp.Fig10},
		{"fig11", false, exp.Fig11},
		{"fig12", true, exp.Fig12},
		{"fig13", true, exp.Fig13},
		{"fig14", false, exp.Fig14},
		{"ablate-history", false, exp.AblateHistory},
		{"ablate-static", false, exp.AblateStatic},
		{"ablate-preempt", false, exp.AblatePreemption},
		{"ablate-epoch", false, func(ctx context.Context, st exp.Study) (*exp.Table, error) {
			return exp.AblateEpochLength(ctx, st, nil)
		}},
		{"ablate-nqinit", false, func(ctx context.Context, st exp.Study) (*exp.Table, error) {
			return exp.AblateNonQoSInit(ctx, st, nil)
		}},
	}
}

func run(ctx context.Context, o options) error {
	if o.expName == "table1" {
		fmt.Print(exp.Table1(config.Base()))
		return nil
	}
	var selected []driver
	for _, d := range drivers() {
		if d.name == o.expName || o.expName == "all" {
			selected = append(selected, d)
		}
	}
	if o.expName == "all" {
		fmt.Print(exp.Table1(config.Base()))
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
	// One study per device configuration, shared across drivers. The
	// journal is shared too: stage keys disambiguate the configurations.
	studies := make(map[bool]exp.Study)
	for _, d := range selected {
		st, ok := studies[d.scale]
		if !ok {
			cfg := config.Base()
			if d.scale {
				cfg = config.Scale56()
			}
			var err error
			st, err = newStudy(cfg, o, jnl)
			if err != nil {
				return err
			}
			studies[d.scale] = st
		}
		t, err := d.fn(ctx, st)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		if o.chart {
			fmt.Print(t.Chart(48))
		} else {
			fmt.Print(t)
		}
		fmt.Println()
	}
	if !o.quiet {
		for _, scale := range []bool{false, true} {
			st, ok := studies[scale]
			if !ok {
				continue
			}
			for _, m := range st.Runner.Metrics() {
				fmt.Fprintf(os.Stderr, "sweep %-24s %4d cases in %8s (%.1f case/s)\n",
					m.Stage, m.Cases, m.Wall.Round(time.Millisecond), m.CasesPerSec)
			}
			for _, rep := range st.Runner.Reports() {
				if rep.Skipped > 0 || rep.Retried > 0 || len(rep.Failed) > 0 {
					fmt.Fprintf(os.Stderr, "sweep %-24s %s\n", rep.Stage, rep.Summary())
				}
			}
		}
	}
	return nil
}
