package exp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
)

// CaseError is one failed sweep case with its full coordinates, so a
// failure is attributable (which pair/trio, which goal) from its message
// alone.
type CaseError struct {
	// Stage is the sweep stage label (usually the scheme name).
	Stage string
	// Index is the deterministic case index within the sweep grid.
	Index int
	// Case describes the case in grid coordinates, e.g.
	// "pair[3] sgemm+lbm @0.50".
	Case string
	// Err is the case's error; a panic is a *core.PanicError, which
	// keeps the recovered stack.
	Err error
}

func (e *CaseError) Error() string {
	return fmt.Sprintf("%s case %d (%s): %v", e.Stage, e.Index, e.Case, e.Err)
}

func (e *CaseError) Unwrap() error { return e.Err }

// SweepReport summarizes how one sweep stage fared. Total = Completed +
// len(Failed) always holds for a sweep that ran to the end (canceled
// sweeps return an error instead of a report).
type SweepReport struct {
	// Stage labels the sweep (usually the scheme name).
	Stage string
	// Total counts the cases the sweep was asked to run.
	Total int
	// Completed counts cases that produced a result.
	Completed int
	// Failed lists the cases that failed, in ascending case-index order.
	Failed []*CaseError
	// Wall is the sweep's wall time; all Total cases were simulated in it.
	Wall time.Duration
}

// Err returns nil when every case completed and otherwise a *SweepError
// aggregating the failures.
func (r *SweepReport) Err() error {
	if r == nil || len(r.Failed) == 0 {
		return nil
	}
	return &SweepError{Report: r}
}

// Summary renders a one-line account of the sweep for logs.
func (r *SweepReport) Summary() string {
	s := fmt.Sprintf("%d/%d cases ok", r.Completed, r.Total)
	if len(r.Failed) > 0 {
		s += fmt.Sprintf(", %d FAILED", len(r.Failed))
	}
	return s
}

// PrintRows writes the end-of-run account of every declared sweep to w,
// one line each: cases simulated and their rate, failures, the row file
// read or written, or which earlier sweep it reused. Each failed case
// follows its sweep's line, a panicking one with its stack.
func PrintRows(w io.Writer, rows []SweepRow) {
	for _, row := range rows {
		switch rep := row.Report; {
		case row.Reused != "":
			fmt.Fprintf(w, "sweep %-30s reused %s\n", row.Stage, row.Reused)
		case rep == nil:
			fmt.Fprintf(w, "sweep %-30s    0 cases simulated; %d read from %s\n",
				row.Stage, len(row.Cases), row.File)
		default:
			fmt.Fprintf(w, "sweep %-30s %4d cases simulated in %8s (%.1f case/s)",
				row.Stage, rep.Total, rep.Wall.Round(time.Millisecond), float64(rep.Total)/rep.Wall.Seconds())
			if len(rep.Failed) > 0 {
				fmt.Fprintf(w, "; %s", rep.Summary())
			}
			if row.File != "" {
				fmt.Fprintf(w, "; wrote %s", row.File)
			}
			fmt.Fprintln(w)
			for _, ce := range rep.Failed {
				fmt.Fprintf(w, "  FAILED %v\n", ce)
				var pe *core.PanicError
				if errors.As(ce.Err, &pe) {
					fmt.Fprintf(w, "%s\n", bytes.TrimRight(pe.Stack, "\n"))
				}
			}
		}
	}
}

// SweepError reports a sweep that finished with failed cases. The partial
// results are still returned alongside it; callers decide whether partial
// coverage is acceptable (cmd/sweep emits the completed rows, the figure
// drivers reject incomplete grids).
type SweepError struct {
	Report *SweepReport
}

func (e *SweepError) Error() string {
	r := e.Report
	msg := fmt.Sprintf("exp: sweep %s: %d/%d cases failed", r.Stage, len(r.Failed), r.Total)
	const show = 3
	for i, ce := range r.Failed {
		if i == show {
			msg += fmt.Sprintf("; and %d more", len(r.Failed)-show)
			break
		}
		msg += "; " + ce.Error()
	}
	return msg
}

// Unwrap exposes the individual case errors to errors.Is/As, so callers
// can test for e.g. context.DeadlineExceeded across the whole sweep.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Report.Failed))
	for i, ce := range e.Report.Failed {
		errs[i] = ce
	}
	return errs
}

// sweepRate derives the progress-event rate fields. The first case can
// complete arbitrarily soon after the sweep clock starts (notably when
// restored from a warm cache), and a naive done/elapsed division then
// reports +Inf cases/s and a garbage ETA — so rates are suppressed until
// a full millisecond of wall time has accumulated, and non-finite values
// are clamped to the "unknown" zero just in case.
func sweepRate(done, total int, elapsed time.Duration) (casesPerSec float64, eta time.Duration) {
	if done <= 0 || elapsed < time.Millisecond {
		return 0, 0
	}
	casesPerSec = float64(done) / elapsed.Seconds()
	if casesPerSec <= 0 || math.IsInf(casesPerSec, 0) || math.IsNaN(casesPerSec) {
		return 0, 0
	}
	if remaining := total - done; remaining > 0 {
		eta = time.Duration(float64(remaining) / casesPerSec * float64(time.Second))
	}
	return casesPerSec, eta
}
