package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/schema"
	"repro/internal/trace"
)

// counter reads a server counter (tests run these single-threaded).
func counter(s *Server, name string) int64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.reg.Counter(name).Value()
}

// TestCacheTierReproducesSimVerdict pins the cache tier: an identical
// resubmission must be answered from the exact verdict cache with the
// same decision, numbers and reason as the simulation that seeded it —
// only the tier and job ids may differ. The stats endpoint accounts for
// both decisions and names no other tier, and a serial Replayer
// reproduces every verdict (and tier) bit-identically.
func TestCacheTierReproducesSimVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{FastPath: true, MaxMix: 1})

	first := submitWait(t, s, qos("sgemm", 0.5))
	v1 := first.view().Verdict
	if v1 == nil || v1.Tier != schema.TierSim || !v1.IsAdmitted() {
		t.Fatalf("first verdict = %+v, want admitted sim tier", v1)
	}
	if v1.Confidence != 1 || v1.EvidenceRef == "" || v1.Decision != schema.DecisionAdmit {
		t.Fatalf("sim verdict envelope: %+v", v1)
	}
	if _, err := s.release(first.id); err != nil {
		t.Fatal(err)
	}

	second := submitWait(t, s, qos("sgemm", 0.5))
	v2 := second.view().Verdict
	if v2 == nil || v2.Tier != schema.TierCache {
		t.Fatalf("second verdict = %+v, want cache tier", v2)
	}
	if v2.Decision != v1.Decision || v2.Cycles != v1.Cycles || v2.Reason != v1.Reason ||
		v2.Scheme != v1.Scheme || v2.EvidenceRef != v1.EvidenceRef || v2.Confidence != 1 {
		t.Fatalf("cache verdict diverges:\n sim   %+v\n cache %+v", v1, v2)
	}
	c1, c2 := v1.Candidate, v2.Candidate
	if c2.JobID != second.id {
		t.Fatalf("cached candidate job id = %q, want %q", c2.JobID, second.id)
	}
	c1.JobID, c2.JobID = "", ""
	if c1 != c2 {
		t.Fatalf("cached candidate numbers diverge:\n sim   %+v\n cache %+v", c1, c2)
	}
	if n := counter(s, "evaluations"); n != 1 {
		t.Fatalf("evaluations = %d, want 1 (cache hit must not simulate)", n)
	}
	if n := counter(s, "verdicts_tier_sim"); n != 1 {
		t.Fatalf("verdicts_tier_sim = %d", n)
	}
	if n := counter(s, "verdicts_tier_cache"); n != 1 {
		t.Fatalf("verdicts_tier_cache = %d", n)
	}
	if n := counter(s, "verdict_cache_misses"); n != 1 {
		t.Fatalf("verdict_cache_misses = %d", n)
	}

	// The stats endpoint reports the same story, in exactly these fields.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/verdicts/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), "cache_capacity,cache_misses,cache_size,fast_path,schema,tiers"; got != want {
		t.Fatalf("stats fields %s, want %s", got, want)
	}
	var st verdictStatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Schema != schema.Version || !st.FastPath {
		t.Fatalf("stats envelope: %+v", st)
	}
	if _, ok := st.Tiers[schema.TierModel]; ok || len(st.Tiers) != 2 ||
		st.Tiers[schema.TierCache].Decisions != 1 || st.Tiers[schema.TierSim].Decisions != 1 {
		t.Fatalf("tier decisions: %+v", st.Tiers)
	}
	if st.Tiers[schema.TierCache].LatencyEWMANs <= 0 || st.Tiers[schema.TierSim].LatencyEWMANs <= 0 {
		t.Fatalf("tier latency EWMA not observed: %+v", st.Tiers)
	}
	if st.CacheMisses != 1 || st.CacheSize != 1 || st.CacheCapacity != DefaultVerdictCacheSize {
		t.Fatalf("cache stats: %+v", st)
	}

	// Serial replay through an identical decider reproduces both
	// verdicts — including the deciding tier — bit for bit.
	sess, err := core.NewSession(core.WithWindow(30_000))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(sess, Config{FastPath: true, MaxMix: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Decisions() {
		rv, err := rp.Replay(context.Background(), d)
		if err != nil {
			t.Fatalf("replay %d: %v", d.Index, err)
		}
		if d.Kind != "decision" {
			continue
		}
		got, _ := json.Marshal(d.Verdict)
		want, _ := json.Marshal(rv)
		if string(got) != string(want) {
			t.Fatalf("decision %d:\n served %s\n replay %s", d.Index, got, want)
		}
	}
}

// TestJournalRefusesFastPathChange: the fast-path parameters are part
// of the decision function, so a restart that toggles them must refuse
// the existing journal instead of extending it.
func TestJournalRefusesFastPathChange(t *testing.T) {
	path := t.TempDir() + "/jobs.log"
	s := testServer(t, Config{FastPath: true, JournalPath: path})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	r, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithWindow(30_000)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Runner: r, JournalPath: path}); err == nil {
		t.Fatal("journal written with FastPath reopened without it")
	}
	// The matching configuration still resumes it.
	s2, err := New(Config{Runner: r, FastPath: true, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestJournalHeaderPinned pins the header hash of a default journal
// (fast path on, default cache, 30k window) as a literal: journals
// written before must keep opening, so the admission parameters hashed
// into it may not move.
func TestJournalHeaderPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s := testServer(t, Config{FastPath: true, JournalPath: path})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	rec, err := journal.Decode(line)
	if err != nil || !rec.Header {
		t.Fatalf("first line %q: %v", line, err)
	}
	if want := "b1c2259c68175bc998b92bc4d55af597a497681488ed541f803fa983de6debd2"; rec.Config != want {
		t.Fatalf("journal header hash %s, want %s", rec.Config, want)
	}
}

// TestRetryAfterSeconds pins the 429 backoff hint math: the
// decision-count-weighted EWMA blend scaled by queue depth, with the
// 1s floor, 600s ceiling, and 1s no-data default.
func TestRetryAfterSeconds(t *testing.T) {
	s := &Server{reg: &trace.Registry{}, queue: make(chan *job, 8)}
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("no data: %d, want 1", got)
	}
	// One sim decision at 2.5s: ceil(2.5) = 3.
	s.reg.Counter("verdicts_tier_sim").Add(1)
	s.reg.Gauge("latency_ewma_ns_sim").Set(2.5e9)
	if got := s.retryAfterSeconds(); got != 3 {
		t.Fatalf("sim-only: %d, want 3", got)
	}
	// 99 cache hits at 1µs drown the blend below a second: floor at 1.
	s.reg.Counter("verdicts_tier_cache").Add(99)
	s.reg.Gauge("latency_ewma_ns_cache").Set(1e3)
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("cache-dominated: %d, want 1", got)
	}
	// Absurd latencies clamp at 600.
	s.reg.Gauge("latency_ewma_ns_sim").Set(1e15)
	if got := s.retryAfterSeconds(); got != 600 {
		t.Fatalf("clamp: %d, want 600", got)
	}
}

// TestRetryAfterSecondsColdStart covers the cold-start and degenerate
// EWMA states: tiers whose counters moved before their first latency
// observation landed (the counter bump and the EWMA seed are separate
// critical sections, and journal replay restores counters into a process
// with zeroed gauges) must not dilute the hint, and pathological EWMAs
// must clamp to the 600s ceiling instead of overflowing the int
// conversion into the 1s floor.
func TestRetryAfterSecondsColdStart(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   func(s *Server)
		queued int
		want   int
	}{
		{
			name: "empty registry",
			seed: func(s *Server) {},
			want: 1,
		},
		{
			name: "counters without measurements",
			// A resumed daemon that has decided nothing in this
			// process: replayed counters, zero gauges.
			seed: func(s *Server) {
				s.reg.Counter("verdicts_tier_cache").Add(5000)
				s.reg.Counter("verdicts_tier_sim").Add(40)
			},
			want: 1,
		},
		{
			name: "unmeasured tier does not dilute",
			// 5000 counted-but-unmeasured cache hits against one real
			// 2.5s sim decision: the blend must be 2.5s, not ~0.
			seed: func(s *Server) {
				s.reg.Counter("verdicts_tier_cache").Add(5000)
				s.reg.Counter("verdicts_tier_sim").Add(1)
				s.reg.Gauge("latency_ewma_ns_sim").Set(2.5e9)
			},
			want: 3,
		},
		{
			name: "single tier with saturated queue",
			// 2.5s per decision and 7 jobs already queued: 2.5 * 8.
			seed: func(s *Server) {
				s.reg.Counter("verdicts_tier_sim").Add(1)
				s.reg.Gauge("latency_ewma_ns_sim").Set(2.5e9)
			},
			queued: 7,
			want:   20,
		},
		{
			name: "absurd ewma clamps to ceiling not floor",
			// 1e30ns overflows int64 once multiplied out; the clamp
			// must happen before the integer conversion.
			seed: func(s *Server) {
				s.reg.Counter("verdicts_tier_sim").Add(1)
				s.reg.Gauge("latency_ewma_ns_sim").Set(1e30)
			},
			queued: 7,
			want:   600,
		},
		{
			name: "non-finite ewma ignored",
			seed: func(s *Server) {
				s.reg.Counter("verdicts_tier_cache").Add(10)
				s.reg.Gauge("latency_ewma_ns_cache").Set(math.Inf(1))
				s.reg.Counter("verdicts_tier_sim").Add(1)
				s.reg.Gauge("latency_ewma_ns_sim").Set(2.5e9)
			},
			want: 3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{reg: &trace.Registry{}, queue: make(chan *job, 8)}
			tc.seed(s)
			for i := 0; i < tc.queued; i++ {
				s.queue <- &job{}
			}
			if got := s.retryAfterSeconds(); got != tc.want {
				t.Fatalf("retryAfterSeconds() = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestObserveLatencyEWMA pins the smoothing: first observation seeds
// the gauge, later ones fold in with alpha 0.3.
func TestObserveLatencyEWMA(t *testing.T) {
	s := &Server{reg: &trace.Registry{}}
	s.observeLatency(schema.TierSim, 1000*time.Nanosecond)
	if got := s.reg.Gauge("latency_ewma_ns_sim").Value(); got != 1000 {
		t.Fatalf("seed = %v, want 1000", got)
	}
	s.observeLatency(schema.TierSim, 2000*time.Nanosecond)
	if got, want := s.reg.Gauge("latency_ewma_ns_sim").Value(), 0.7*1000+0.3*2000; got != want {
		t.Fatalf("ewma = %v, want %v", got, want)
	}
}
