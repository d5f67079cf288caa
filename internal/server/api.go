package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/schema"
)

// The wire types of the /v1 API. Every response body carries the shared
// schema version (internal/schema) so clients and replay tooling can
// reject artifacts from an incompatible build, exactly like trace JSONL
// exports and checkpoint journals do.

// KernelRequest describes the kernel a client wants admitted. Exactly
// one goal form may be set: the typed Goal union (which carries every
// form, including the latency-SLO and periodic real-time goals), or one
// of the legacy v1 fields — GoalFrac (fraction of isolated IPC, the
// paper's sweep axis), GoalIPC (absolute thread-IPC), Deadline
// (application deadline translated via core.IPCGoalForDeadline). All
// zero means a non-QoS kernel (best effort).
type KernelRequest struct {
	// Workload names a benchmark from internal/workloads.
	Workload string `json:"workload"`
	// Goal is the typed QoS goal union (bare fraction, {"ipc":..},
	// {"deadline":{..}}, {"latency":{..}} or {"periodic":{..}}),
	// exclusive with the legacy triple below.
	Goal *schema.Goal `json:"goal,omitempty"`
	// GoalFrac is the QoS goal as a fraction of isolated IPC (0,1].
	GoalFrac float64 `json:"goal_frac,omitempty"`
	// GoalIPC is an absolute thread-IPC goal.
	GoalIPC float64 `json:"goal_ipc,omitempty"`
	// Deadline derives GoalIPC from an application-level deadline.
	Deadline *DeadlineRequest `json:"deadline,omitempty"`
}

// DeadlineRequest is the OS-scheduler form of a QoS goal (paper Section
// 3.2), now the schema-owned deadline payload of the Goal union. The
// alias keeps the v1 wire name.
type DeadlineRequest = schema.Deadline

// goal lifts the request's goal into the typed union: the typed Goal
// field passes through directly, the legacy v1 field triple goes via
// schema.GoalFromForms. Setting both is a client error. The "at most
// one form" rule and the per-form range checks live on schema.Goal; the
// server only translates the sentinel so clients keep seeing 400s.
func (k *KernelRequest) goal() (schema.Goal, error) {
	legacy, err := schema.GoalFromForms(k.GoalFrac, k.GoalIPC, k.Deadline)
	if err != nil {
		return schema.Goal{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if k.Goal != nil {
		if !legacy.IsZero() {
			return schema.Goal{}, fmt.Errorf("%w: goal is exclusive with goal_frac/goal_ipc/deadline", ErrBadRequest)
		}
		return *k.Goal, nil
	}
	return legacy, nil
}

// spec validates the request and lowers it to a core.KernelSpec via the
// shared goal union: validate the form (schema.Goal.Validate inside
// core.ResolveGoal), then resolve deadlines against this daemon's GPU
// config.
func (k *KernelRequest) spec(cfg config.GPU) (core.KernelSpec, error) {
	if k.Workload == "" {
		return core.KernelSpec{}, fmt.Errorf("%w: kernel.workload is required", ErrBadRequest)
	}
	g, err := k.goal()
	if err != nil {
		return core.KernelSpec{}, err
	}
	gf, gi, err := core.ResolveGoal(cfg, g)
	if err != nil {
		return core.KernelSpec{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return core.KernelSpec{Workload: k.Workload, GoalFrac: gf, GoalIPC: gi}, nil
}

// JobRequest is the POST /v1/jobs body.
type JobRequest struct {
	// Name is an optional client label echoed back in views and events.
	Name   string        `json:"name,omitempty"`
	Kernel KernelRequest `json:"kernel"`
	// Scheme optionally pins the expected QoS scheme; it must match the
	// daemon's configured scheme (mixed-scheme co-runs are meaningless).
	Scheme string `json:"scheme,omitempty"`
}

// Verdict is the schema-owned first-class decision type (internal/schema),
// shared verbatim by job responses, SSE "verdict" events and the decision
// journal. The alias keeps the package-local name the rest of the server
// (and its tests) use.
type Verdict = schema.Verdict

// JobView is the wire form of one job.
type JobView struct {
	ID       string        `json:"id"`
	Seq      uint64        `json:"seq"`
	Name     string        `json:"name,omitempty"`
	State    string        `json:"state"`
	Kernel   KernelRequest `json:"kernel"`
	GoalIPC  float64       `json:"goal_ipc,omitempty"`
	Verdict  *Verdict      `json:"verdict,omitempty"`
	Error    string        `json:"error,omitempty"`
	Released bool          `json:"released,omitempty"`
}

// jobResponse wraps a single job with the schema version.
type jobResponse struct {
	Schema int     `json:"schema"`
	Job    JobView `json:"job"`
}

// jobListResponse wraps the job listing.
type jobListResponse struct {
	Schema int       `json:"schema"`
	Jobs   []JobView `json:"jobs"`
}

// healthResponse is the GET /healthz body. Status is "ok", "draining"
// or "stalled"; "stalled" (decision loop wedged past the stall
// threshold, twice Config.EvalTimeout) is served with HTTP 503 so load balancers and orchestrators see a
// dead controller without parsing the body.
type healthResponse struct {
	Schema   int    `json:"schema"`
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	Scheme   string `json:"scheme"`
	MaxMix   int    `json:"max_mix"`
	// Stalled reports a decision in flight longer than the stall
	// threshold.
	Stalled bool `json:"decision_loop_stalled"`
	// InFlightMs is how long the current decision has been running
	// (0 when the loop is idle).
	InFlightMs int64 `json:"decision_in_flight_ms,omitempty"`
	// LastProgressMs is the unix-milliseconds wall time the decision
	// loop last completed a decision (startup time before the first).
	LastProgressMs int64 `json:"last_progress_unix_ms"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Schema int    `json:"schema"`
	Error  string `json:"error"`
	Code   int    `json:"code"`
}

// tierStats is one tier's slice of the verdict statistics.
type tierStats struct {
	// Decisions counts verdicts this tier decided.
	Decisions int64 `json:"decisions"`
	// LatencyEWMANs is the exponentially weighted moving average of this
	// tier's decision latency in nanoseconds (0 until it decides once).
	LatencyEWMANs float64 `json:"latency_ewma_ns"`
}

// verdictStatsResponse is the GET /v1/verdicts/stats body. The same
// counters appear as qosd_* lines on /metrics.
type verdictStatsResponse struct {
	Schema   int  `json:"schema"`
	FastPath bool `json:"fast_path"`
	// Tiers maps "cache" and "sim" to per-tier decision counts and
	// latency EWMAs.
	Tiers map[string]tierStats `json:"tiers"`
	// CacheMisses counts decisions that missed the exact cache (fast
	// path only); CacheSize/CacheCapacity describe the cache itself.
	CacheMisses   int64 `json:"cache_misses"`
	CacheSize     int   `json:"cache_size"`
	CacheCapacity int   `json:"cache_capacity,omitempty"`
}

// maxBodyBytes caps a submission body; the largest legitimate one (a
// named job with a periodic goal and a scheme pin) is a few hundred
// bytes.
const maxBodyBytes = 64 << 10

// decodeBody reads one submission body (POST /v1/jobs, POST /v2/jobs)
// into v: at most maxBodyBytes, exactly one JSON value, no unknown
// fields (schema.DecodeStrict). Every failure is an ErrBadRequest (400);
// an oversize body also carries its *http.MaxBytesError, which
// httpStatus answers 413.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = schema.DecodeStrict(b, v)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return nil
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// writeErr translates err through the taxonomy (httpStatus) and writes
// the uniform error body; 429s carry a Retry-After hint derived from
// the observed per-tier decision latencies (retryAfterSeconds), so
// fast-path-heavy loads don't over-back-off clients.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, status, errorResponse{Schema: schema.Version, Error: err.Error(), Code: status})
}

// retryAfterSeconds estimates how long a 429'd client should wait: the
// decision-count-weighted blend of the per-tier latency EWMAs times the
// work ahead of it (queue depth + 1), rounded up to whole seconds and
// clamped to [1, 600]. Tiers that have been counted but never measured
// are excluded from the blend; when no tier has a measurement yet the
// hint falls back to 1 second.
func (s *Server) retryAfterSeconds() int {
	var weightedNs, n float64
	s.statsMu.Lock()
	for _, tier := range decisionTiers {
		c := float64(s.reg.Counter("verdicts_tier_" + tier).Value())
		ewma := s.reg.Gauge("latency_ewma_ns_" + tier).Value()
		// A tier can be counted before its first latency lands: the
		// verdict counter and the EWMA seed are separate critical
		// sections, and a journal-resumed daemon replays counters into
		// a process whose gauges start at zero. Blending such a tier at
		// 0ns drags the estimate toward zero, so a cold daemon's first
		// 429 would hand out a 1s hint against a queue of multi-second
		// sim decisions. Skip unmeasured (and non-finite) tiers from
		// both the numerator and the weight mass instead.
		if c <= 0 || ewma <= 0 || math.IsInf(ewma, 0) || math.IsNaN(ewma) {
			continue
		}
		weightedNs += float64(c * ewma) // rounded, never fused: make arch-check
		n += c
	}
	s.statsMu.Unlock()
	if n == 0 {
		return 1
	}
	// Clamp in the float domain: a pathological EWMA times a deep queue
	// can exceed the int64 range, and Go's float-to-int conversion of
	// such values is not a saturating clamp — it used to come back
	// negative and hit the 1s floor, the opposite of the right hint.
	secs := math.Ceil(weightedNs / n * float64(len(s.queue)+1) / 1e9)
	if math.IsNaN(secs) || secs < 1 {
		return 1
	}
	if secs > 600 {
		return 600
	}
	return int(secs)
}

// latencyEWMAAlpha is the smoothing factor of the per-tier decision
// latency averages.
const latencyEWMAAlpha = 0.3

// observeLatency folds one decision's wall-clock latency into its
// tier's EWMA gauge (exposed on /metrics and /v1/verdicts/stats).
func (s *Server) observeLatency(tier string, d time.Duration) {
	ns := float64(d.Nanoseconds())
	s.statsMu.Lock()
	g := s.reg.Gauge("latency_ewma_ns_" + tier)
	if prev := g.Value(); prev > 0 {
		ns = float64(prev*(1-latencyEWMAAlpha)) + float64(ns*latencyEWMAAlpha) // rounded, never fused: make arch-check
	}
	g.Set(ns)
	s.statsMu.Unlock()
}
