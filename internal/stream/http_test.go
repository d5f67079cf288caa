package stream

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/schema"
	"repro/internal/server"
)

// requestCounter wraps a handler and counts what it serves by method.
type requestCounter struct {
	next        http.Handler
	posts, gets atomic.Int64
}

func (c *requestCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		c.posts.Add(1)
	case http.MethodGet:
		c.gets.Add(1)
	}
	c.next.ServeHTTP(w, r)
}

// TestHTTPBackendOneRequestPerSubmit: against a live daemon, each Submit
// is one POST ?wait=1 and no GET, on /v1 and on /v2, and comes back
// decided.
func TestHTTPBackendOneRequestPerSubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	r, err := exp.NewRunner(2, exp.WithSessionOptions(core.WithWindow(20_000)))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.New(fleet.Config{
		Nodes:         []fleet.NodeSpec{{Name: "a", GPU: config.Base()}},
		Scheme:        core.SchemeRollover,
		Window:        20_000,
		MaxMixPerNode: 2,
		FastPath:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Runner: r, FastPath: true, Fleet: fl})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c := &requestCounter{next: s.Handler()}
	ts := httptest.NewServer(c)
	defer ts.Close()

	arrivals := []Arrival{
		{Seq: 0, Tenant: "a", Workload: "sgemm", Goal: schema.FracGoal(0.5), GPUFraction: 0.5},
		{Seq: 1, Tenant: "b", Workload: "lbm", GPUFraction: 0.25},
	}
	for _, v2 := range []bool{false, true} {
		b := HTTPBackend{BaseURL: ts.URL, V2: v2}
		for _, a := range arrivals {
			posts, gets := c.posts.Load(), c.gets.Load()
			out, err := b.Submit(context.Background(), a)
			if err != nil {
				t.Fatal(err)
			}
			if out.Verdict == nil || (out.State != StateAdmitted && out.State != StateRejected) {
				t.Fatalf("v2=%v arrival %d: %+v, want a decided outcome with its verdict", v2, a.Seq, out)
			}
			if p, g := c.posts.Load()-posts, c.gets.Load()-gets; p != 1 || g != 0 {
				t.Fatalf("v2=%v arrival %d: Submit made %d POSTs and %d GETs, want 1 and 0", v2, a.Seq, p, g)
			}
		}
	}
}

// TestHTTPBackendKeepsOneConnection: the bodies the backend does not
// read (a release's answer, a 429, a 409) are drained before they are
// closed, so a stream of submits and releases runs over one keep-alive
// connection instead of dialling after every one of them.
func TestHTTPBackendKeepsOneConnection(t *testing.T) {
	admit := &schema.Verdict{Decision: schema.DecisionAdmit}
	for _, tc := range []struct {
		v2              bool
		submit, release string
		admitted        any
		refusals        []int // statuses a submit is refused with, one per refused submit
	}{
		{false, "POST /v1/jobs", "DELETE /v1/jobs/{id}",
			v1Envelope{Job: server.JobView{ID: "job-000001", State: string(server.JobAdmitted), Verdict: admit}},
			[]int{http.StatusTooManyRequests}},
		{true, "POST /v2/jobs", "DELETE /v2/jobs/{id}",
			v2Envelope{Job: fleet.JobView{ID: "vjob-000000", State: fleet.StatePlaced, Verdict: admit}},
			[]int{http.StatusTooManyRequests, http.StatusConflict}},
	} {
		reply := func(w http.ResponseWriter, status int, v any) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(v)
		}
		var refuse atomic.Int64
		mux := http.NewServeMux()
		mux.HandleFunc(tc.submit, func(w http.ResponseWriter, r *http.Request) {
			if status := int(refuse.Swap(0)); status != 0 {
				reply(w, status, map[string]any{"error": "refused", "code": status})
				return
			}
			reply(w, http.StatusOK, tc.admitted)
		})
		mux.HandleFunc(tc.release, func(w http.ResponseWriter, r *http.Request) {
			reply(w, http.StatusOK, tc.admitted)
		})
		var dials atomic.Int64
		ts := httptest.NewUnstartedServer(mux)
		ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dials.Add(1)
			}
		}
		ts.Start()
		b := HTTPBackend{BaseURL: ts.URL, Client: ts.Client(), V2: tc.v2}
		ctx := context.Background()
		submit := func(want string) {
			t.Helper()
			out, err := b.Submit(ctx, Arrival{Workload: "lbm", GPUFraction: 0.25})
			if err != nil {
				t.Fatal(err)
			}
			if out.State != want {
				t.Fatalf("v2=%v: submit came back %s, want %s", tc.v2, out.State, want)
			}
		}
		submit(StateAdmitted)
		if err := b.Release(ctx, "job"); err != nil {
			t.Fatal(err)
		}
		submit(StateAdmitted)
		for _, status := range tc.refusals {
			refuse.Store(int64(status))
			want := StateThrottled
			if status == http.StatusConflict {
				want = StateRejected
			}
			submit(want)
			submit(StateAdmitted)
		}
		ts.Close()
		if n := dials.Load(); n != 1 {
			t.Fatalf("v2=%v: the backend opened %d connections, want 1", tc.v2, n)
		}
	}
}

// TestHTTPBackendFallsBackToWaitGet: a daemon whose POST answers 202
// with the job still queued is followed with GET ?wait=1 until the job
// is decided.
func TestHTTPBackendFallsBackToWaitGet(t *testing.T) {
	admit := &schema.Verdict{Decision: schema.DecisionAdmit}
	for _, tc := range []struct {
		v2                bool
		submit, get       string
		pending, terminal any
		id                string
	}{
		{false, "POST /v1/jobs", "GET /v1/jobs/{id}",
			v1Envelope{Job: server.JobView{ID: "job-000001", State: string(server.JobQueued)}},
			v1Envelope{Job: server.JobView{ID: "job-000001", State: string(server.JobAdmitted), Verdict: admit}},
			"job-000001"},
		{true, "POST /v2/jobs", "GET /v2/jobs/{id}",
			v2Envelope{Job: fleet.JobView{ID: "vjob-000000", State: fleet.StateQueued}},
			v2Envelope{Job: fleet.JobView{ID: "vjob-000000", State: fleet.StatePlaced, Verdict: admit}},
			"vjob-000000"},
	} {
		mux := http.NewServeMux()
		reply := func(w http.ResponseWriter, status int, v any) {
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(v)
		}
		var gets atomic.Int64
		mux.HandleFunc(tc.submit, func(w http.ResponseWriter, r *http.Request) {
			reply(w, http.StatusAccepted, tc.pending)
		})
		mux.HandleFunc(tc.get, func(w http.ResponseWriter, r *http.Request) {
			if gets.Add(1) == 1 || r.URL.Query().Get("wait") == "" {
				reply(w, http.StatusOK, tc.pending)
				return
			}
			reply(w, http.StatusOK, tc.terminal)
		})
		c := &requestCounter{next: mux}
		ts := httptest.NewServer(c)
		out, err := HTTPBackend{BaseURL: ts.URL, V2: tc.v2}.Submit(context.Background(), Arrival{Workload: "lbm"})
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.State != StateAdmitted || out.JobID != tc.id || out.Verdict == nil {
			t.Fatalf("v2=%v: %+v, want %s admitted", tc.v2, out, tc.id)
		}
		if p, g := c.posts.Load(), c.gets.Load(); p != 1 || g != 2 {
			t.Fatalf("v2=%v: %d POSTs and %d GETs, want 1 and 2", tc.v2, p, g)
		}
	}
}
