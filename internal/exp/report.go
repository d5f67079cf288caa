package exp

import (
	"fmt"
	"math"
	"time"
)

// CaseError is one failed sweep case with its full coordinates, so a
// failure is attributable (which pair/trio, which goal) without
// consulting the journal.
type CaseError struct {
	// Stage is the sweep stage label (usually the scheme name).
	Stage string
	// Index is the deterministic case index within the sweep grid.
	Index int
	// Case describes the case in grid coordinates, e.g.
	// "pair[3] sgemm+lbm @0.50".
	Case string
	// Err is the case's error.
	Err error
	// Stack is the recovered goroutine stack when the failure was a
	// panic (*core.PanicError), nil otherwise.
	Stack []byte
}

func (e *CaseError) Error() string {
	return fmt.Sprintf("%s case %d (%s): %v", e.Stage, e.Index, e.Case, e.Err)
}

func (e *CaseError) Unwrap() error { return e.Err }

// SweepReport summarizes how one sweep stage fared under the fault
// policy. Total = Completed + Skipped + len(Failed) always holds for a
// sweep that ran to the end (canceled sweeps return an error instead of a
// report).
type SweepReport struct {
	// Stage labels the sweep (usually the scheme name).
	Stage string
	// Total counts grid cases.
	Total int
	// Completed counts cases that produced a result this run.
	Completed int
	// Skipped counts cases restored from the checkpoint journal.
	Skipped int
	// Failed lists the cases that failed, in ascending case-index order.
	Failed []*CaseError
	// Wall is the sweep's wall time. Total - Skipped cases were
	// simulated in it (journal-restored cases cost no simulation time).
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
	s := fmt.Sprintf("%d/%d cases ok", r.Completed+r.Skipped, r.Total)
	if r.Skipped > 0 {
		s += fmt.Sprintf(", %d resumed from journal", r.Skipped)
	}
	if len(r.Failed) > 0 {
		s += fmt.Sprintf(", %d FAILED", len(r.Failed))
	}
	return s
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
