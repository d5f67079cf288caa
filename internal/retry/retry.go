// Package retry drives bounded re-execution of failed sweep cases:
// doubling backoff between attempts, and context-aware sleeping so a
// canceled sweep never blocks in a backoff wait.
package retry

import (
	"context"
	"time"
)

// Policy describes how failed operations are retried. The zero value
// performs exactly one attempt with no backoff, which keeps retry logic
// inert unless a caller opts in.
type Policy struct {
	// MaxAttempts bounds total attempts (first try included). Values
	// below 1 mean 1: no retries.
	MaxAttempts int
	// BaseDelay is the backoff after the first failed attempt, doubled
	// after each further one; 0 retries immediately.
	BaseDelay time.Duration
}

// attempts normalizes MaxAttempts.
func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the backoff to wait after the attempt-th attempt failed
// (attempt counts from 1): BaseDelay doubled attempt-1 times.
func (p Policy) Delay(attempt int) time.Duration {
	if p.BaseDelay <= 0 || attempt < 1 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	return d
}

// Sleep waits for d or until ctx is done, whichever comes first, and
// returns the context's error when interrupted.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs op until it succeeds, up to MaxAttempts times, backing off
// between attempts. op receives the attempt number starting at 1. Do
// returns nil on success and otherwise the error of the last attempt; it
// stops early — without consuming remaining attempts — when ctx is done
// (a canceled sweep must release its worker slot immediately).
func (p Policy) Do(ctx context.Context, op func(attempt int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	max := p.attempts()
	var err error
	for attempt := 1; ; attempt++ {
		err = op(attempt)
		if err == nil || attempt >= max {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		if Sleep(ctx, p.Delay(attempt)) != nil {
			return err
		}
	}
}
