// Package server exposes the QoS simulator as a long-running admission
// control daemon (cmd/qosd). Clients submit kernels with QoS goals
// (POST /v1/jobs); the controller runs a simulator-backed what-if co-run
// of the currently admitted mix plus the candidate on the daemon's
// simulator session and admits the kernel only when every QoS goal of
// the hypothetical mix is predicted to hold — the paper's QoS contract
// applied at admission time, before any kernel touches the device.
// Admitted jobs occupy a bounded mix until released; decisions are
// journaled so a restarted daemon keeps honoring contracts it already
// accepted.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/verdict"
)

// Config assembles a Server. Runner is the only required field: the
// serial decision loop runs every what-if on its Session(), and nothing
// else of the runner is used (a one-session runner is enough).
type Config struct {
	// Runner supplies the simulator session (exp.NewRunner).
	Runner *exp.Runner
	// Scheme is the QoS scheme every evaluation runs under. Zero value
	// (SchemeNone) is replaced by SchemeRollover, the paper's best.
	Scheme core.Scheme
	// MaxMix bounds the number of concurrently admitted kernels
	// (default 3: the simulator's co-run sizes of interest).
	MaxMix int
	// QueueDepth bounds submissions awaiting a decision (default 16);
	// beyond it, POST /v1/jobs returns 429.
	QueueDepth int
	// JournalPath, when set, enables the crash-safe job log. The file is
	// created on first start and resumed on restart; a journal written
	// under a different simulator configuration is refused.
	JournalPath string

	// FastPath puts the exact verdict cache in front of the what-if
	// simulation. Off, every decision simulates — the pre-v2 behavior.
	FastPath bool
	// VerdictCacheSize bounds the exact verdict cache (default
	// DefaultVerdictCacheSize).
	VerdictCacheSize int

	// Fleet optionally attaches a multi-node placement scheduler
	// (fleet.New); when set, the /v2 fractional-GPU API is served.
	// The fleet's lifecycle belongs to the caller except for drain:
	// Server.Shutdown drains the fleet alongside the v1 decision loop.
	Fleet *fleet.Fleet

	// EvalTimeout bounds each what-if simulation (0 = no deadline): an
	// evaluation that outlives it fails its job with
	// context.DeadlineExceeded, and the loop moves on to the next job.
	EvalTimeout time.Duration

	// StallAfter is the decision-loop liveness threshold: when a single
	// decision has been in flight longer than this, GET /healthz reports
	// decision_loop_stalled and returns 503 so orchestrators can detect a
	// wedged loop instead of reading a bare 200 forever. A decision is in
	// flight from the moment the admitted mix has room for it, so a queue
	// waiting on client releases is not a stall. Zero derives it: twice
	// EvalTimeout, or DefaultStallAfter with no deadline. An explicit
	// value must exceed EvalTimeout: a slow but live simulation is not a
	// stall.
	StallAfter time.Duration
}

// DefaultStallAfter is the decision-loop stall threshold when neither
// StallAfter nor EvalTimeout is set.
const DefaultStallAfter = 2 * time.Minute

// Server is the admission-control daemon. Construct with New, mount
// Handler on an http.Server, stop with Shutdown.
type Server struct {
	sess   *core.Session
	scheme core.Scheme
	maxMix int
	dec    *verdict.Decider
	fleet  *fleet.Fleet

	store    *jobStore
	queue    chan *job
	slotFree chan struct{}
	// gate, when non-nil (tests only), holds the decision loop before
	// each decision so queue states can be arranged deterministically.
	gate chan struct{}
	// sim runs one what-if on sess (sess.RunTraced); tests replace it
	// to panic or wedge.
	sim func(ctx context.Context, specs []core.KernelSpec, scheme core.Scheme, tr *trace.Tracer) (*core.Result, error)
	// now is the watchdog's clock: time.Now, except in tests that drive
	// the stall threshold from a clock they own.
	now func() time.Time

	mixMu sync.Mutex
	mix   []*job

	decMu     sync.Mutex
	decisions []Decision
	jnl       *journal.Journal

	statsMu sync.Mutex
	reg     *trace.Registry

	// Decision-loop liveness (see Config.StallAfter). decidingSinceNs is
	// the wall time the in-flight decision started, 0 while the loop is
	// idle; lastProgressNs is the wall time the loop last completed a
	// decision (or started). Atomics: written by the decision loop, read
	// by /healthz.
	stallAfter      time.Duration
	decidingSinceNs atomic.Int64
	lastProgressNs  atomic.Int64

	baseCtx  context.Context
	stop     context.CancelFunc
	drainMu  sync.Mutex
	draining bool
	loopDone chan struct{}
}

// New validates the configuration, recovers the job log if one is
// configured, and starts the decision loop.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("server: Config.Runner is required")
	}
	if cfg.Scheme == core.SchemeNone {
		cfg.Scheme = core.SchemeRollover
	}
	if cfg.MaxMix <= 0 {
		cfg.MaxMix = 3
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	switch {
	case cfg.StallAfter > 0 && cfg.StallAfter <= cfg.EvalTimeout:
		return nil, fmt.Errorf("server: StallAfter %v must exceed EvalTimeout %v: a decision still inside its deadline is not a stall", cfg.StallAfter, cfg.EvalTimeout)
	case cfg.StallAfter > 0:
	case cfg.EvalTimeout > 0:
		cfg.StallAfter = 2 * cfg.EvalTimeout
	default:
		cfg.StallAfter = DefaultStallAfter
	}
	sess := cfg.Runner.Session()
	dec, err := newDecider(cfg, sess)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		sess:       sess,
		sim:        sess.RunTraced,
		scheme:     cfg.Scheme,
		maxMix:     cfg.MaxMix,
		dec:        dec,
		fleet:      cfg.Fleet,
		store:      newJobStore(),
		queue:      make(chan *job, cfg.QueueDepth),
		slotFree:   make(chan struct{}, 1),
		reg:        &trace.Registry{},
		baseCtx:    ctx,
		stop:       cancel,
		loopDone:   make(chan struct{}),
		stallAfter: cfg.StallAfter,
		now:        time.Now,
	}
	s.lastProgressNs.Store(s.now().UnixNano())
	if cfg.JournalPath != "" {
		if err := s.openJournal(cfg.JournalPath); err != nil {
			cancel()
			return nil, err
		}
	}
	go s.decisionLoop()
	return s, nil
}

// The journal header hashes the removed model tier's version and band at
// what a model-less daemon always wrote, so existing journals still open.
const (
	journalModelVersion = ""
	journalBand         = 0.05
)

// openJournal opens (or creates) the job log. The header hash binds the
// file to the exact simulator configuration and admission parameters, so
// a daemon restarted with different settings can never resurrect
// contracts it would now evaluate differently.
func (s *Server) openJournal(path string) error {
	sess := s.sess
	hash, err := journal.Hash(struct {
		Config core.Config
		Seed   uint64
		Scheme string
		MaxMix int
		// The fast-path parameters are part of the decision function: a
		// daemon restarted with a different cache could decide (or
		// explain) the same submission differently, so such a restart
		// must refuse the log rather than extend it.
		FastPath        bool
		ModelVersion    string
		UncertaintyBand float64
		CacheSize       int
	}{sess.Config(), sess.Seed(), s.scheme.Name(), s.maxMix,
		s.dec.Enabled(), journalModelVersion, journalBand, s.dec.CacheCap()})
	if err != nil {
		return err
	}
	if s.jnl, err = journal.Open(path, hash); err != nil {
		return err
	}
	if err := s.recoverJournal(); err != nil {
		s.jnl.Close()
		return err
	}
	return nil
}

// Registry exposes the daemon's run-level counters and gauges (the
// /metrics source) so embedding callers — the stream driver — can
// record their own series alongside the decision loop's.
func (s *Server) Registry() *trace.Registry { return s.reg }

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleRelease)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/verdicts/stats", s.handleVerdictStats)
	mux.HandleFunc("POST /v2/jobs", s.handleV2Submit)
	mux.HandleFunc("GET /v2/jobs", s.handleV2List)
	mux.HandleFunc("GET /v2/jobs/{id}", s.handleV2Get)
	mux.HandleFunc("DELETE /v2/jobs/{id}", s.handleV2Release)
	mux.HandleFunc("GET /v2/nodes", s.handleV2Nodes)
	mux.HandleFunc("GET /v2/nodes/{id}", s.handleV2Node)
	mux.HandleFunc("GET /v2/placements", s.handleV2Placements)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// submit validates a request and enqueues the job for the decision
// loop. The drain lock spans creation and the queue send so a submit
// can never race Shutdown's close of the queue.
func (s *Server) submit(req JobRequest) (*job, error) {
	if req.Scheme != "" {
		sc, err := core.ParseScheme(req.Scheme)
		if err != nil {
			return nil, err
		}
		if sc != s.scheme {
			return nil, fmt.Errorf("%w: daemon evaluates scheme %q, request pinned %q",
				ErrBadRequest, s.scheme.Name(), sc.Name())
		}
	}
	spec, err := req.Kernel.spec(s.sess.GPUConfig())
	if err != nil {
		return nil, err
	}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return nil, fmt.Errorf("%w: not accepting new jobs", ErrDraining)
	}
	j := s.store.create(req.Name, spec, req.Kernel)
	select {
	case s.queue <- j:
	default:
		j.finish(JobFailed, nil, ErrQueueFull)
		s.count("queue_rejected", 1)
		return nil, fmt.Errorf("%w: %d decisions pending", ErrQueueFull, cap(s.queue))
	}
	s.count("jobs_submitted", 1)
	return j, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	j, err := s.submit(req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, submitStatus(r, j.done), jobResponse{Schema: schema.Version, Job: j.view()})
}

// waitDone blocks, when the request asks ?wait=1, until done closes or
// the client leaves, and reports whether done closed.
func waitDone(r *http.Request, done <-chan struct{}) bool {
	if r.URL.Query().Get("wait") == "" {
		return false
	}
	select {
	case <-done:
		return true
	case <-r.Context().Done():
		return false
	}
}

// submitStatus is a submission's status code: 202 for a job still
// pending, 200 when POST …?wait=1 waited for its terminal state.
func submitStatus(r *http.Request, done <-chan struct{}) int {
	if waitDone(r, done) {
		return http.StatusOK
	}
	return http.StatusAccepted
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.store.get(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// ?wait=1 blocks until the job has a verdict (or the client leaves).
	waitDone(r, j.done)
	writeJSON(w, http.StatusOK, jobResponse{Schema: schema.Version, Job: j.view()})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.store.list()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	writeJSON(w, http.StatusOK, jobListResponse{Schema: schema.Version, Jobs: out})
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	j, err := s.release(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobResponse{Schema: schema.Version, Job: j.view()})
}

// handleEvents streams a job's event log over SSE: the buffered events
// first (replay), then live events until the job reaches its verdict or
// the client disconnects. Event ids carry the per-job sequence so
// clients can detect gaps.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.store.get(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeErr(w, errors.New("server: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch := make(chan Event, 64)
	replay := j.subscribe(ch)
	defer j.unsubscribe(ch)
	seen := -1
	write := func(ev Event) {
		if ev.Seq <= seen {
			return // already replayed
		}
		seen = ev.Seq
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
	}
	for _, ev := range replay {
		write(ev)
	}
	fl.Flush()
	for {
		select {
		case ev := <-ch:
			write(ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-j.done:
			for {
				select {
				case ev := <-ch:
					write(ev)
				default:
					fl.Flush()
					return
				}
			}
		}
	}
}

// handleVerdictStats reports the decision path's behavior: per-tier
// decision counts and latency EWMAs, cache misses and occupancy. The
// same counters appear on /metrics.
func (s *Server) handleVerdictStats(w http.ResponseWriter, _ *http.Request) {
	resp := verdictStatsResponse{
		Schema:   schema.Version,
		FastPath: s.dec.Enabled(),
		Tiers:    make(map[string]tierStats, len(decisionTiers)),
	}
	s.statsMu.Lock()
	for _, tier := range decisionTiers {
		resp.Tiers[tier] = tierStats{
			Decisions:     s.reg.Counter("verdicts_tier_" + tier).Value(),
			LatencyEWMANs: s.reg.Gauge("latency_ewma_ns_" + tier).Value(),
		}
	}
	resp.CacheMisses = s.reg.Counter("verdict_cache_misses").Value()
	s.statsMu.Unlock()
	resp.CacheSize = s.dec.CacheLen()
	resp.CacheCapacity = s.dec.CacheCap()
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the server registry as plain "name value" lines
// (sorted), including the schema version and live queue/mix gauges, then,
// with a fleet attached, its process-local counters: what-if questions
// asked, node decision records written, journal flushes and placement
// records by kind.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mixMu.Lock()
	mixN := len(s.mix)
	s.mixMu.Unlock()
	s.gauge("mix_size", float64(mixN))
	s.gauge("queue_depth", float64(len(s.queue)))

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "qosd_schema_version %d\n", schema.Version)
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	for _, c := range s.reg.Counters() {
		fmt.Fprintf(w, "qosd_%s %d\n", c.Name(), c.Value())
	}
	for _, g := range s.reg.Gauges() {
		fmt.Fprintf(w, "qosd_%s %g\n", g.Name(), g.Value())
	}
	if s.fleet == nil {
		return
	}
	c := s.fleet.Counters()
	fmt.Fprintf(w, "qosd_fleet_asks %d\n", c.Asks)
	fmt.Fprintf(w, "qosd_fleet_node_records %d\n", c.NodeRecords)
	fmt.Fprintf(w, "qosd_fleet_flushes %d\n", c.Flushes)
	for _, kind := range []string{fleet.KindPlace, fleet.KindMigrate, fleet.KindReject, fleet.KindRelease} {
		fmt.Fprintf(w, "qosd_fleet_placements_%s %d\n", kind, c.Placements[kind])
	}
}

// handleHealthz reports liveness, not just reachability: beyond the
// drain flag it watches the decision loop itself. A decision in flight
// longer than StallAfter (a simulation wedged past its deadline, a
// journal write that never returns) flips decision_loop_stalled
// and the status code to 503, with the last-progress timestamp so an
// operator can see how long the loop has been dark — instead of a bare
// 200 from a daemon that will never decide another job.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	since := s.decidingSinceNs.Load()
	lastProgress := s.lastProgressNs.Load()
	var inflightMs int64
	stalled := false
	if since != 0 {
		inflight := s.now().Sub(time.Unix(0, since))
		inflightMs = inflight.Milliseconds()
		stalled = inflight > s.stallAfter
	}
	status := "ok"
	code := http.StatusOK
	switch {
	case stalled:
		status = "stalled"
		code = http.StatusServiceUnavailable
	case draining:
		status = "draining"
	}
	writeJSON(w, code, healthResponse{
		Schema:         schema.Version,
		Status:         status,
		Draining:       draining,
		Scheme:         s.scheme.Name(),
		MaxMix:         s.maxMix,
		Stalled:        stalled,
		InFlightMs:     inflightMs,
		LastProgressMs: lastProgress / int64(time.Millisecond),
	})
}

// count bumps a server counter (statsMu-guarded: trace.Registry itself
// is unsynchronized by design).
func (s *Server) count(name string, delta int64) {
	s.statsMu.Lock()
	s.reg.Counter(name).Add(delta)
	s.statsMu.Unlock()
}

// gauge sets a server gauge.
func (s *Server) gauge(name string, v float64) {
	s.statsMu.Lock()
	s.reg.Gauge(name).Set(v)
	s.statsMu.Unlock()
}

// Mix returns the ids of the currently admitted jobs in admission order.
func (s *Server) Mix() []string {
	s.mixMu.Lock()
	defer s.mixMu.Unlock()
	out := make([]string, len(s.mix))
	for i, j := range s.mix {
		out[i] = j.id
	}
	return out
}

// Shutdown drains the daemon: new submissions are refused (503), every
// already-queued job still receives a real verdict, then the decision
// loop exits and the job log is closed. If ctx expires first the drain
// turns forced: in-flight evaluations are cancelled and undecided jobs
// fail with ErrDraining.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.drainMu.Unlock()
	var err error
	select {
	case <-s.loopDone:
	case <-ctx.Done():
		s.stop() // force: abort evaluations and slot waits
		<-s.loopDone
		err = ctx.Err()
	}
	s.stop()
	if s.fleet != nil {
		if ferr := s.fleet.Shutdown(ctx); ferr != nil && err == nil {
			err = ferr
		}
	}
	s.decMu.Lock()
	jnl := s.jnl
	s.jnl = nil
	s.decMu.Unlock()
	if jnl != nil {
		if cerr := jnl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
