package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	sentinel := errors.New("boom")
	err := Policy{}.Do(context.Background(), func(attempt int) error {
		calls++
		if attempt != 1 {
			t.Fatalf("attempt = %d", attempt)
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	p := Policy{MaxAttempts: 4, BaseDelay: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), func(attempt int) error {
		calls++
		if attempt < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), func(int) error { calls++; return errors.New("always") })
	if err == nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
}

func TestDoStopsOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Hour} // would hang if backoff ran
	attemptErr := errors.New("transient")
	calls := 0
	err := p.Do(ctx, func(int) error {
		calls++
		cancel() // canceled mid-attempt: no further attempts, no backoff wait
		return attemptErr
	})
	if !errors.Is(err, attemptErr) || calls != 1 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
}

func TestDoPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Policy{MaxAttempts: 3}.Do(ctx, func(int) error {
		t.Fatal("op ran on a pre-canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestDelayDoubles(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond}
	got := []time.Duration{p.Delay(1), p.Delay(2), p.Delay(3), p.Delay(4)}
	want := []time.Duration{10, 20, 40, 80} // milliseconds
	for i := range got {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got[i], want[i]*time.Millisecond)
		}
	}
	if d := (Policy{}).Delay(1); d != 0 {
		t.Fatalf("zero-policy delay = %v", d)
	}
}

func TestSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	start := time.Now()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Sleep ignored cancellation")
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero sleep err = %v", err)
	}
}
