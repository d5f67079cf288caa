package distsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/retry"
	"repro/internal/schema"
)

// Worker defaults.
const (
	// DefaultFlushCases is how many completed cases a worker batches
	// before streaming them to the coordinator.
	DefaultFlushCases = 4
	// DefaultPollInterval is the sleep between lease requests when every
	// remaining case is leased to someone else.
	DefaultPollInterval = 500 * time.Millisecond
	// DefaultMaxIdlePolls is how many consecutive lease polls may fail
	// (each after its full retry budget) before the worker concludes the
	// coordinator is gone and exits with an error.
	DefaultMaxIdlePolls = 8
	// undeliveredPatience stretches MaxIdlePolls while the worker still
	// holds computed-but-undelivered results: giving up then loses real
	// work, so the worker tries considerably longer first.
	undeliveredPatience = 4
)

// WorkerEvent is one observable worker transition, for logging and for
// the chaos harness (which kills workers at scripted points).
type WorkerEvent struct {
	// Kind is one of "lease", "case", "flush", "heartbeat_miss",
	// "lease_expired", "degraded", "done".
	Kind string
	// Lease is the lease id in force ("" before the first lease).
	Lease string
	// Index is the case index for "case" events (-1 otherwise).
	Index int
	// Err carries the trigger for "heartbeat_miss"/"degraded".
	Err error
}

// WorkerStats summarizes one worker's run.
type WorkerStats struct {
	Leases          int
	CasesRun        int
	CasesDelivered  int
	CasesFailed     int
	Duplicates      int
	HeartbeatMisses int
	// DegradedFlushes counts result batches that could not be delivered
	// within the retry budget and were carried forward locally.
	DegradedFlushes int
	// CasesUndelivered gauges the case results (successes plus failures)
	// currently computed but not acknowledged by the coordinator. It is
	// nonzero while batches ride the carry-forward queue and, crucially,
	// in the final snapshot of a worker that gave up with work on board —
	// those results die with the worker and the exit summary must say so.
	CasesUndelivered int
}

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Addr is the coordinator base URL (e.g. "http://host:9121").
	Addr string
	// Name identifies the worker in leases and logs.
	Name string
	// Runner executes cases. Required; built from the fetched Spec's
	// SessionOptions plus local choices (pool size, injectors, trace
	// directory). A lease runs across its whole session pool.
	Runner *exp.Runner
	// Spec is the sweep being executed (fetched via FetchSpec).
	Spec Spec
	// Client is the HTTP client. Nil means http.DefaultClient; the chaos
	// harness injects transports that drop/duplicate/delay deliveries.
	Client *http.Client
	// Retry shapes re-attempts of transient coordinator errors. The zero
	// value gets a small deterministic default (seeded by the worker
	// name's length — callers wanting distinct jitter streams pass their
	// own seeds).
	Retry retry.Policy
	// FlushCases is the result batch size (0 means DefaultFlushCases).
	FlushCases int
	// PollInterval is the no-work re-poll sleep (0 means
	// DefaultPollInterval).
	PollInterval time.Duration
	// MaxIdlePolls bounds consecutive failed lease polls before the
	// worker gives up on an unreachable coordinator (0 means
	// DefaultMaxIdlePolls; the bound is stretched undeliveredPatience×
	// while computed results still await delivery).
	MaxIdlePolls int
	// Log receives progress lines. Nil silences logging.
	Log *log.Logger
	// OnEvent observes worker transitions (tests, chaos harness). Called
	// synchronously, one event at a time: "case" events from the Runner's
	// pool goroutines, the rest from the worker loop.
	OnEvent func(WorkerEvent)
}

// Worker pulls range leases from a coordinator, executes them on the
// pooled Runner, and streams results back in CRC-sealed batches.
//
// Fault model: the control plane (lease/heartbeat/report HTTP) may fail
// at any point without losing computed work. Transient errors are
// retried with seeded backoff; if the coordinator stays unreachable the
// worker degrades to local execution — it finishes the cases of the
// lease it holds, carries undelivered batches forward, and re-attempts
// delivery before asking for more work. Re-delivery after a lease
// expired (or after a duplicated send) is safe because the coordinator
// dedupes by case index.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	grid   exp.Grid
	scheme core.Scheme

	// statsMu guards stats: the heartbeat goroutine and tests read and
	// write concurrently with the execution loop.
	statsMu sync.Mutex
	stats   WorkerStats

	// undelivered carries computed-but-unacknowledged results across
	// delivery failures; keyed into batches by the lease they came from.
	undelivered []pendingBatch
}

type pendingBatch struct {
	lease  string
	cases  []CaseResult
	failed []CaseFailure
}

// NewWorker validates the config and returns a runnable worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Runner == nil {
		return nil, errors.New("distsweep: worker needs a Runner")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	scheme, err := core.ParseScheme(cfg.Spec.Scheme)
	if err != nil {
		return nil, err
	}
	if cfg.Addr == "" {
		return nil, errors.New("distsweep: worker needs a coordinator address")
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.FlushCases <= 0 {
		cfg.FlushCases = DefaultFlushCases
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	if cfg.MaxIdlePolls <= 0 {
		cfg.MaxIdlePolls = DefaultMaxIdlePolls
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = retry.Policy{
			MaxAttempts: 4,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    2 * time.Second,
			Multiplier:  2,
			Jitter:      0.2,
			Seed:        uint64(len(cfg.Name)) + 1,
		}
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	return &Worker{cfg: cfg, client: client, grid: cfg.Spec.grid(), scheme: scheme}, nil
}

// Stats returns a snapshot of the run counters; safe to call while the
// worker is running.
func (w *Worker) Stats() WorkerStats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.stats
}

// bump applies one mutation to the counters under the lock.
func (w *Worker) bump(f func(*WorkerStats)) {
	w.statsMu.Lock()
	f(&w.stats)
	w.statsMu.Unlock()
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		w.cfg.Log.Printf("worker %s: %s", w.cfg.Name, fmt.Sprintf(format, args...))
	}
}

func (w *Worker) event(kind, leaseID string, index int, err error) {
	if w.cfg.OnEvent != nil {
		w.cfg.OnEvent(WorkerEvent{Kind: kind, Lease: leaseID, Index: index, Err: err})
	}
}

// Run executes leases until the coordinator reports the sweep done or
// ctx is canceled. It returns nil on normal completion; a canceled ctx
// surfaces as ctx.Err() (the chaos harness kills workers this way). A
// coordinator that stays unreachable for MaxIdlePolls consecutive
// lease polls — each already carrying the full retry budget — ends the
// worker with an error: it has most likely completed and exited (or
// died for good), and a worker with no lease and no undelivered work
// has nothing left to degrade to.
func (w *Worker) Run(ctx context.Context) error {
	idleFails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Older work first: nothing new is leased while computed results
		// might still be sitting here undelivered.
		w.flushUndelivered(ctx)

		lr, err := w.acquireLease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Coordinator unreachable beyond the retry budget and no lease
			// held: nothing to degrade to — re-poll slowly, give up after
			// MaxIdlePolls consecutive misses (undelivered work stretches
			// the patience; those batches die with this worker otherwise).
			w.bump(func(st *WorkerStats) { st.DegradedFlushes++ })
			w.event("degraded", "", -1, err)
			idleFails++
			limit := w.cfg.MaxIdlePolls
			if len(w.undelivered) > 0 {
				limit *= undeliveredPatience
			}
			if idleFails >= limit {
				if n := len(w.undelivered); n > 0 {
					return fmt.Errorf("distsweep: coordinator unreachable for %d polls; giving up with %d case result(s) in %d undelivered batch(es): %w",
						idleFails, w.Stats().CasesUndelivered, n, err)
				}
				return fmt.Errorf("distsweep: coordinator unreachable for %d polls: %w", idleFails, err)
			}
			w.logf("coordinator unreachable (%v); re-polling (%d/%d)", err, idleFails, limit)
			if !sleepCtx(ctx, w.cfg.PollInterval) {
				return ctx.Err()
			}
			continue
		}
		idleFails = 0
		if lr.Done {
			w.event("done", "", -1, nil)
			st := w.Stats()
			w.logf("sweep done: %d cases over %d leases, %d delivered, %d heartbeat misses",
				st.CasesRun, st.Leases, st.CasesDelivered, st.HeartbeatMisses)
			return nil
		}
		if lr.Lease == nil {
			if !sleepCtx(ctx, w.cfg.PollInterval) {
				return ctx.Err()
			}
			continue
		}
		w.executeLease(ctx, *lr.Lease)
	}
}

// executeLease runs one lease's range through the Runner's sweep engine,
// across its whole session pool, heartbeating in the background. Each
// case that completes or fails joins the result batch as soon as it is
// done, and a full batch is delivered at once. Control-plane failures
// never abort execution: results that cannot be delivered are carried
// forward.
func (w *Worker) executeLease(ctx context.Context, l Lease) {
	w.bump(func(st *WorkerStats) { st.Leases++ })
	w.event("lease", l.ID, -1, nil)
	w.logf("lease %s [%d,%d), ttl %dms", l.ID, l.Start, l.End, l.TTLMs)

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, l)

	// mu serializes the batch, and its delivery, across the pool.
	var mu sync.Mutex
	batch := pendingBatch{lease: l.ID}
	flush := func() {
		if len(batch.cases) == 0 && len(batch.failed) == 0 {
			return
		}
		w.deliver(ctx, batch)
		batch = pendingBatch{lease: l.ID}
	}
	todo := make([]int, 0, l.End-l.Start)
	for i := l.Start; i < l.End; i++ {
		todo = append(todo, i)
	}
	_, err := w.cfg.Runner.Run(ctx, w.grid, w.scheme, todo, func(i int, res *core.Result, ce *exp.CaseError) error {
		var data []byte
		var err error
		if ce != nil {
			err = ce.Err
		} else if data, err = json.Marshal(w.grid.Case(i, w.scheme, res)); err != nil {
			err = fmt.Errorf("distsweep: marshal case %d: %w", i, err)
		}
		mu.Lock()
		defer mu.Unlock()
		w.bump(func(st *WorkerStats) { st.CasesRun++ })
		w.event("case", l.ID, i, err)
		if err != nil {
			w.bump(func(st *WorkerStats) { st.CasesFailed++ })
			batch.failed = append(batch.failed, CaseFailure{Index: i, Error: err.Error()})
			w.logf("case %d (%s) failed: %v", i, w.grid.Describe(i), err)
		} else {
			cr := CaseResult{Index: i, Data: data}
			cr.Seal()
			batch.cases = append(batch.cases, cr)
		}
		if len(batch.cases)+len(batch.failed) >= w.cfg.FlushCases {
			flush()
		}
		return nil
	}, nil)
	if err != nil {
		return // killed mid-lease; undelivered work is lost with us
	}
	flush()
}

// heartbeatLoop extends the lease every TTL/3. Misses are counted and
// surfaced, never fatal: execution continues (degraded) and idempotent
// delivery makes any resulting double-report harmless.
func (w *Worker) heartbeatLoop(ctx context.Context, l Lease) {
	interval := time.Duration(l.TTLMs) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		hr, err := w.postHeartbeat(ctx, l.ID)
		switch {
		case err != nil:
			w.bump(func(st *WorkerStats) { st.HeartbeatMisses++ })
			w.event("heartbeat_miss", l.ID, -1, err)
			w.logf("heartbeat %s missed: %v", l.ID, err)
		case hr.Expired:
			w.event("lease_expired", l.ID, -1, nil)
			w.logf("lease %s expired at coordinator; finishing range anyway (idempotent delivery)", l.ID)
			return
		}
	}
}

// deliver posts one batch, retrying transients; on exhaustion the batch
// is carried forward and re-attempted before the next lease.
func (w *Worker) deliver(ctx context.Context, b pendingBatch) {
	resp, err := w.postReport(ctx, b)
	if err != nil {
		w.bump(func(st *WorkerStats) { st.DegradedFlushes++ })
		w.undelivered = append(w.undelivered, b)
		w.noteUndelivered()
		w.event("degraded", b.lease, -1, err)
		w.logf("delivery of %d cases failed (%v); carrying forward", len(b.cases), err)
		return
	}
	w.bump(func(st *WorkerStats) {
		st.CasesDelivered += resp.Accepted
		st.Duplicates += resp.Duplicates
	})
	w.event("flush", b.lease, -1, nil)
}

// flushUndelivered re-attempts carried-forward batches in order.
func (w *Worker) flushUndelivered(ctx context.Context) {
	if len(w.undelivered) == 0 {
		return
	}
	pending := w.undelivered
	w.undelivered = nil
	for _, b := range pending {
		if ctx.Err() != nil {
			w.undelivered = append(w.undelivered, b)
			continue
		}
		w.deliver(ctx, b)
	}
	w.noteUndelivered()
}

// noteUndelivered refreshes the undelivered-case gauge after the
// carry-forward queue changed. Only the worker loop mutates the queue,
// so recomputing the sum here is race-free; the gauge itself lives in
// the stats snapshot readers see.
func (w *Worker) noteUndelivered() {
	n := 0
	for _, b := range w.undelivered {
		n += len(b.cases) + len(b.failed)
	}
	w.bump(func(st *WorkerStats) { st.CasesUndelivered = n })
}

// --- HTTP plumbing ----------------------------------------------------

// FetchSpec retrieves a coordinator's sweep spec, retrying transient
// errors under pol. It returns the spec and the journal stage key.
func FetchSpec(ctx context.Context, client *http.Client, addr string, pol retry.Policy) (Spec, string, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var out SpecResponse
	err := pol.Do(ctx, 1, func(int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/spec", nil)
		if err != nil {
			return retry.Permanent(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return statusErr(resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return retry.Permanent(err)
		}
		if err := schema.Check(out.Schema); err != nil {
			return retry.Permanent(err)
		}
		return nil
	})
	if err != nil {
		return Spec{}, "", err
	}
	if err := out.Spec.Validate(); err != nil {
		return Spec{}, "", err
	}
	return out.Spec, out.Stage, nil
}

// acquireLease requests work, retrying transient failures.
func (w *Worker) acquireLease(ctx context.Context) (LeaseResponse, error) {
	var out LeaseResponse
	err := w.cfg.Retry.Do(ctx, 2, func(int) error {
		body, err := json.Marshal(LeaseRequest{Schema: schema.Version, Worker: w.cfg.Name})
		if err != nil {
			return retry.Permanent(err)
		}
		b, err := w.post(ctx, "/v1/leases", body)
		if err != nil {
			return err
		}
		lr, err := DecodeLease(b)
		if err != nil {
			return retry.Permanent(err)
		}
		out = lr
		return nil
	})
	return out, err
}

func (w *Worker) postHeartbeat(ctx context.Context, leaseID string) (HeartbeatResponse, error) {
	var out HeartbeatResponse
	// One attempt per tick: the ticker is the retry loop here.
	b, err := w.post(ctx, "/v1/leases/"+leaseID+"/heartbeat", nil)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return out, err
	}
	if err := schema.Check(out.Schema); err != nil {
		return out, err
	}
	return out, nil
}

func (w *Worker) postReport(ctx context.Context, b pendingBatch) (ReportResponse, error) {
	var out ReportResponse
	err := w.cfg.Retry.Do(ctx, 3, func(int) error {
		body, err := json.Marshal(ReportRequest{
			Schema: schema.Version,
			Worker: w.cfg.Name,
			Lease:  b.lease,
			Cases:  b.cases,
			Failed: b.failed,
		})
		if err != nil {
			return retry.Permanent(err)
		}
		rb, err := w.post(ctx, "/v1/leases/"+b.lease+"/results", body)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(rb, &out); err != nil {
			return retry.Permanent(err)
		}
		if err := schema.Check(out.Schema); err != nil {
			return retry.Permanent(err)
		}
		return nil
	})
	return out, err
}

// post issues one POST and classifies the response: 2xx returns the
// body, 4xx (except 429) is permanent, everything else is transient.
func (w *Worker) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, retry.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err // network-level: transient
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return rb, nil
	}
	return nil, statusErr(resp.StatusCode, rb)
}

// statusErr converts a non-2xx response into a typed error: client
// errors (except 429) are permanent, server errors and 429 transient.
func statusErr(status int, body []byte) error {
	var er errorResponse
	msg := fmt.Sprintf("http %d", status)
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		msg = fmt.Sprintf("http %d: %s", status, er.Error)
	}
	err := errors.New(msg)
	if status >= 400 && status < 500 && status != http.StatusTooManyRequests {
		return retry.Permanent(err)
	}
	return err
}

// sleepCtx sleeps d or until ctx is done, reporting whether it slept
// the full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
