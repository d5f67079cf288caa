package distsweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/schema"
)

// Coordinator defaults.
const (
	// DefaultLeaseCases is the default contiguous range size per lease.
	DefaultLeaseCases = 8
	// DefaultLeaseTTL is the default heartbeat deadline.
	DefaultLeaseTTL = 10 * time.Second
	// DefaultMaxLeases bounds outstanding leases (back-pressure, like
	// qosd's bounded admission queue).
	DefaultMaxLeases = 64
	// DefaultMaxCaseAttempts is how many distinct worker failures a case
	// may accumulate before the coordinator fails it permanently instead
	// of re-leasing it forever.
	DefaultMaxCaseAttempts = 3
)

// Config configures a Coordinator.
type Config struct {
	// Spec is the sweep to distribute. Required, must validate.
	Spec Spec
	// Journal is the checkpoint file path. Empty means in-memory only
	// (no durability — tests and throwaway runs).
	Journal string
	// Resume permits opening a journal that already has entries. Without
	// it an existing non-empty journal is refused, mirroring cmd/sweep's
	// explicit -resume contract.
	Resume bool
	// LeaseCases caps cases per lease (0 means DefaultLeaseCases).
	LeaseCases int
	// LeaseTTL is the heartbeat deadline (0 means DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxLeases bounds outstanding leases (0 means DefaultMaxLeases).
	MaxLeases int
	// MaxCaseAttempts bounds per-case failure reports before permanent
	// failure (0 means DefaultMaxCaseAttempts).
	MaxCaseAttempts int
	// Log receives progress lines. Nil silences logging.
	Log *log.Logger
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// lease is one outstanding grant: the contiguous range and which of its
// indices are still unaccounted for (neither committed nor failed).
type lease struct {
	id       string
	worker   string
	start    int
	end      int
	pending  map[int]struct{}
	deadline time.Time
}

// Coordinator owns a sweep's durable state — the CRC'd JSONL journal —
// and hands out expiring range leases over HTTP. It is the only writer
// of the journal; workers are stateless executors.
//
// Concurrency: one mutex guards all state. Every operation is a quick
// in-memory transition plus at most one journal append (buffered file
// write), so a single lock keeps the invariants trivially audit-able:
//
//   - an index is in exactly one of: free pool, a live lease's pending
//     set, the committed results, or the permanently-failed set;
//   - committed indices never re-enter the free pool, so a committed
//     case is never re-leased (and therefore never re-executed by a
//     worker that respects its lease);
//   - results[i] is written at most once — later deliveries of i count
//     as duplicates and do not touch the journal.
type Coordinator struct {
	cfg   Config
	grid  exp.Grid
	stage string
	total int

	mu        sync.Mutex
	jnl       *journal.Journal
	free      []int // sorted uncommitted, unleased indices
	leases    map[string]*lease
	results   []json.RawMessage // committed payloads by index
	committed int
	attempts  map[int]int    // failure reports per index
	failed    map[int]string // permanently failed: index -> last error
	leaseSeq  int
	draining  bool
	doneOnce  sync.Once
	done      chan struct{}

	// counters (under mu; exported via /v1/state and /metrics)
	expired    int64
	orphans    int64
	duplicates int64
	granted    int64
	reports    int64
}

// New builds a coordinator for a sweep, opening (or creating) its
// journal and restoring every committed case from it. A journal written
// by a local `sweep` run of the same grid restores identically — the
// stage key and payload encoding are shared.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.LeaseCases <= 0 {
		cfg.LeaseCases = DefaultLeaseCases
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxLeases <= 0 {
		cfg.MaxLeases = DefaultMaxLeases
	}
	if cfg.MaxCaseAttempts <= 0 {
		cfg.MaxCaseAttempts = DefaultMaxCaseAttempts
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	stage, err := cfg.Spec.StageKey()
	if err != nil {
		return nil, err
	}
	grid := cfg.Spec.grid()
	c := &Coordinator{
		cfg:      cfg,
		grid:     grid,
		stage:    stage,
		total:    grid.Len(),
		leases:   make(map[string]*lease),
		results:  make([]json.RawMessage, grid.Len()),
		attempts: make(map[int]int),
		failed:   make(map[int]string),
		done:     make(chan struct{}),
	}
	if cfg.Journal != "" {
		hash, err := cfg.Spec.HeaderHash()
		if err != nil {
			return nil, err
		}
		j, err := journal.Open(cfg.Journal, hash)
		if err != nil {
			return nil, err
		}
		if !cfg.Resume && len(j.Completed(stage)) > 0 {
			j.Close()
			return nil, fmt.Errorf("distsweep: journal %s already has results for this stage; pass Resume to continue it", cfg.Journal)
		}
		c.jnl = j
		for i, raw := range j.Completed(stage) {
			if i < 0 || i >= c.total || !grid.Restores(raw) {
				continue // foreign or damaged entry; leave the case to re-run
			}
			if c.results[i] == nil {
				c.results[i] = raw
				c.committed++
			}
		}
	}
	for i := 0; i < c.total; i++ {
		if c.results[i] == nil {
			c.free = append(c.free, i)
		}
	}
	if c.committed+len(c.failed) == c.total {
		c.doneOnce.Do(func() { close(c.done) })
	}
	c.logf("coordinator: stage %s, %d cases (%d restored from journal)", stage, c.total, c.committed)
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log.Printf(format, args...)
	}
}

// Spec returns the sweep spec workers execute against.
func (c *Coordinator) Spec() Spec { return c.cfg.Spec }

// Stage returns the journal stage key of this sweep.
func (c *Coordinator) Stage() string { return c.stage }

// Done is closed when every case is committed or permanently failed.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Drain stops granting new leases. Heartbeats and result deliveries
// keep working so in-flight ranges land in the journal before shutdown.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.logf("coordinator: draining, no new leases")
}

// Close releases the journal. Call after the serving loop has stopped.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jnl == nil {
		return nil
	}
	err := c.jnl.Close()
	c.jnl = nil
	return err
}

// expireLocked reclaims every lease whose heartbeat deadline has
// passed: unfinished indices return to the free pool for re-issue.
// Committed indices were already removed from the pending set at report
// time, so a re-issued range never contains a journal-committed case.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		for i := range l.pending {
			c.free = append(c.free, i)
		}
		sort.Ints(c.free)
		delete(c.leases, id)
		c.expired++
		c.logf("coordinator: lease %s (worker %s) expired, %d cases re-queued", id, l.worker, len(l.pending))
	}
}

// checkDoneLocked closes Done once nothing is outstanding.
func (c *Coordinator) checkDoneLocked() {
	if c.committed+len(c.failed) >= c.total {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// Grant issues a lease of up to maxCases contiguous free indices.
// A nil lease with done=false means everything is leased out — poll
// again; done=true means the sweep is finished.
func (c *Coordinator) Grant(worker string, maxCases int) (*Lease, LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)
	resp := LeaseResponse{Schema: schema.Version}
	if c.committed+len(c.failed) >= c.total {
		resp.Done = true
		return nil, resp, nil
	}
	resp.Remaining = c.total - c.committed - len(c.failed)
	if c.draining {
		return nil, resp, ErrDraining
	}
	if len(c.free) == 0 {
		return nil, resp, nil // all outstanding; worker polls again
	}
	if len(c.leases) >= c.cfg.MaxLeases {
		return nil, resp, ErrBusy
	}
	n := c.cfg.LeaseCases
	if maxCases > 0 && maxCases < n {
		n = maxCases
	}
	// Contiguous prefix run of the sorted free pool.
	run := 1
	for run < len(c.free) && run < n && c.free[run] == c.free[run-1]+1 {
		run++
	}
	start, end := c.free[0], c.free[0]+run
	c.free = c.free[run:]
	c.leaseSeq++
	l := &lease{
		id:       fmt.Sprintf("L%d", c.leaseSeq),
		worker:   worker,
		start:    start,
		end:      end,
		pending:  make(map[int]struct{}, run),
		deadline: now.Add(c.cfg.LeaseTTL),
	}
	for i := start; i < end; i++ {
		l.pending[i] = struct{}{}
	}
	c.leases[l.id] = l
	c.granted++
	wire := &Lease{ID: l.id, Start: start, End: end, TTLMs: c.cfg.LeaseTTL.Milliseconds()}
	resp.Lease = wire
	c.logf("coordinator: lease %s [%d,%d) -> worker %s", l.id, start, end, worker)
	return wire, resp, nil
}

// Heartbeat extends a lease's deadline. Expired (or never-issued)
// leases report Expired=true; the worker may still deliver results.
func (c *Coordinator) Heartbeat(id string) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)
	resp := HeartbeatResponse{Schema: schema.Version, Done: c.committed+len(c.failed) >= c.total}
	l, ok := c.leases[id]
	if !ok {
		resp.Expired = true
		return resp
	}
	l.deadline = now.Add(c.cfg.LeaseTTL)
	return resp
}

// Report merges a batch of case results (and failures) into the
// coordinator's state. It is idempotent by case index: the first
// delivery of a case is journaled and counted, every later delivery —
// duplicated request, re-executed range after lease expiry, late
// arrival from a presumed-dead worker — counts as a duplicate and does
// not touch the journal. The request is trusted to have passed
// DecodeReport (CRCs verified, bounds checked).
func (c *Coordinator) Report(rr ReportRequest) (ReportResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)
	resp := ReportResponse{Schema: schema.Version}
	c.reports++

	l, live := c.leases[rr.Lease]
	if !live {
		resp.Orphaned = true
		c.orphans++
	}

	for _, cs := range rr.Cases {
		if cs.Index >= c.total {
			return resp, fmt.Errorf("%w: case index %d outside grid [0,%d)", ErrBadRequest, cs.Index, c.total)
		}
		if c.results[cs.Index] != nil {
			resp.Duplicates++
			c.duplicates++
			continue
		}
		if !c.grid.Restores(cs.Data) {
			return resp, fmt.Errorf("%w: case %d payload does not restore", ErrBadRequest, cs.Index)
		}
		if c.jnl != nil {
			if err := c.jnl.Append(c.stage, cs.Index, cs.Data); err != nil {
				// Journal write failed: do not mark committed. The worker
				// sees a 500, retries the delivery, and dedupe absorbs any
				// partial overlap with this batch.
				return resp, fmt.Errorf("distsweep: journal append case %d: %w", cs.Index, err)
			}
		}
		c.results[cs.Index] = cs.Data
		c.committed++
		resp.Accepted++
		if live {
			delete(l.pending, cs.Index)
		} else {
			// The case may sit in some re-issued lease's pending set; drop
			// it there so that lease's expiry cannot re-queue it.
			for _, other := range c.leases {
				delete(other.pending, cs.Index)
			}
		}
		c.removeFreeLocked(cs.Index)
	}

	for _, f := range rr.Failed {
		if f.Index >= c.total {
			return resp, fmt.Errorf("%w: failed index %d outside grid [0,%d)", ErrBadRequest, f.Index, c.total)
		}
		if c.results[f.Index] != nil {
			continue // raced with a successful delivery; success wins
		}
		if _, dead := c.failed[f.Index]; dead {
			continue
		}
		c.attempts[f.Index]++
		if live {
			delete(l.pending, f.Index)
		}
		if c.attempts[f.Index] >= c.cfg.MaxCaseAttempts {
			c.failed[f.Index] = f.Error
			c.removeFreeLocked(f.Index)
			c.logf("coordinator: case %d (%s) permanently failed after %d attempts: %s",
				f.Index, c.grid.Describe(f.Index), c.attempts[f.Index], f.Error)
		} else if !c.inFreeLocked(f.Index) {
			c.free = append(c.free, f.Index)
			sort.Ints(c.free)
		}
	}

	// A lease whose every case has been committed or failed is finished:
	// retire it now rather than letting it sit until TTL expiry, so it
	// stops holding a MaxLeases slot and never shows up as "expired".
	if live && len(l.pending) == 0 {
		delete(c.leases, rr.Lease)
	}

	c.checkDoneLocked()
	resp.Done = c.committed+len(c.failed) >= c.total
	if resp.Accepted > 0 {
		c.logf("coordinator: %d/%d committed (+%d, %d dup) via lease %s", c.committed, c.total, resp.Accepted, resp.Duplicates, rr.Lease)
	}
	return resp, nil
}

func (c *Coordinator) removeFreeLocked(idx int) {
	i := sort.SearchInts(c.free, idx)
	if i < len(c.free) && c.free[i] == idx {
		c.free = append(c.free[:i], c.free[i+1:]...)
	}
}

func (c *Coordinator) inFreeLocked(idx int) bool {
	i := sort.SearchInts(c.free, idx)
	return i < len(c.free) && c.free[i] == idx
}

// State snapshots progress for operators and tests.
func (c *Coordinator) State() StateResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	leased := 0
	for _, l := range c.leases {
		leased += len(l.pending)
	}
	workers := map[string]struct{}{}
	for _, l := range c.leases {
		workers[l.worker] = struct{}{}
	}
	return StateResponse{
		Schema:    schema.Version,
		Total:     c.total,
		Committed: c.committed,
		Failed:    len(c.failed),
		Leased:    leased,
		Free:      len(c.free),
		Workers:   len(workers),
		Expired:   c.expired,
		Orphans:   c.orphans,
		Done:      c.committed+len(c.failed) >= c.total,
	}
}

// Results returns a copy of the committed payloads by case index
// (nil where missing). The slice order is the deterministic merge
// order: grid index, independent of delivery order.
func (c *Coordinator) Results() []json.RawMessage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]json.RawMessage, len(c.results))
	copy(out, c.results)
	return out
}

// FailedCases returns permanently failed cases as index -> last error.
func (c *Coordinator) FailedCases() map[int]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]string, len(c.failed))
	for k, v := range c.failed {
		out[k] = v
	}
	return out
}

// WriteCSV renders the merged results through the CSV writer a local
// sweep uses, in grid order, skipping uncommitted and failed cases.
func (c *Coordinator) WriteCSV(w io.Writer) error {
	cases := c.grid.Cases()
	for i, raw := range c.Results() {
		if raw != nil && !cases.Restore(i, raw) {
			return fmt.Errorf("distsweep: committed case %d does not restore", i)
		}
	}
	cw := csv.NewWriter(w)
	cw.Write(c.grid.CSVHeader())
	return cw.WriteAll(c.grid.CSVRows(cases))
}

// --- HTTP surface -----------------------------------------------------

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/spec", c.handleSpec)
	mux.HandleFunc("POST /v1/leases", c.handleLease)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/leases/{id}/results", c.handleReport)
	mux.HandleFunc("GET /v1/state", c.handleState)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

// errorResponse mirrors the qosd error envelope.
type errorResponse struct {
	Schema int    `json:"schema"`
	Error  string `json:"error"`
	Code   int    `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func (c *Coordinator) writeErr(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if status == http.StatusTooManyRequests {
		// One lease-TTL is the natural back-off unit: by then either a
		// slot freed up or an expiry returned work to the pool.
		w.Header().Set("Retry-After", strconv.Itoa(int(c.cfg.LeaseTTL/time.Second)+1))
	}
	writeJSON(w, status, errorResponse{Schema: schema.Version, Error: err.Error(), Code: status})
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, SpecResponse{Schema: schema.Version, Spec: c.cfg.Spec, Stage: c.stage})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		c.writeErr(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	var req LeaseRequest
	if err := schema.DecodeStrict(body, &req); err != nil {
		c.writeErr(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if err := schema.Check(req.Schema); err != nil {
		c.writeErr(w, err)
		return
	}
	_, resp, err := c.Grant(req.Worker, req.MaxCases)
	if err != nil {
		c.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Heartbeat(r.PathValue("id")))
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(MaxWireCases)*MaxWireBytes))
	if err != nil {
		c.writeErr(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	rr, err := DecodeReport(body)
	if err != nil {
		c.writeErr(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if rr.Lease != r.PathValue("id") {
		c.writeErr(w, fmt.Errorf("%w: lease id mismatch (path %q, body %q)", ErrBadRequest, r.PathValue("id"), rr.Lease))
		return
	}
	resp, err := c.Report(rr)
	if err != nil {
		c.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleState(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.State())
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := c.State()
	c.mu.Lock()
	granted, reports, dups := c.granted, c.reports, c.duplicates
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "distsweep_cases_total %d\n", st.Total)
	fmt.Fprintf(w, "distsweep_cases_committed %d\n", st.Committed)
	fmt.Fprintf(w, "distsweep_cases_failed %d\n", st.Failed)
	fmt.Fprintf(w, "distsweep_cases_leased %d\n", st.Leased)
	fmt.Fprintf(w, "distsweep_cases_free %d\n", st.Free)
	fmt.Fprintf(w, "distsweep_leases_granted_total %d\n", granted)
	fmt.Fprintf(w, "distsweep_leases_expired_total %d\n", st.Expired)
	fmt.Fprintf(w, "distsweep_reports_total %d\n", reports)
	fmt.Fprintf(w, "distsweep_reports_orphaned_total %d\n", st.Orphans)
	fmt.Fprintf(w, "distsweep_cases_duplicate_total %d\n", dups)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	st := c.State()
	writeJSON(w, http.StatusOK, struct {
		Schema    int    `json:"schema"`
		Status    string `json:"status"`
		Committed int    `json:"committed"`
		Total     int    `json:"total"`
		Done      bool   `json:"done"`
	}{schema.Version, status, st.Committed, st.Total, st.Done})
}
