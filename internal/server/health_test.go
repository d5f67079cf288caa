package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/schema"
)

// getHealth fetches /healthz and decodes the body.
func getHealth(t *testing.T, ts *httptest.Server) (int, healthResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, hr
}

// fakeClock is a clock the test owns: the decision loop and /healthz
// read it through Server.now while the test advances it.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

// TestHealthzStallWatchdog wedges the decision loop deterministically
// (via the test gate) and checks /healthz flips from 200 to a 503 with
// decision_loop_stalled once the in-flight decision exceeds StallAfter —
// then recovers to 200 with an advanced last-progress timestamp when the
// loop moves again. This is the liveness contract an orchestrator polls:
// a wedged controller must not keep answering "ok". Time is the test's:
// the watchdog's clock is advanced, never slept on.
func TestHealthzStallWatchdog(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const stallAfter = 50 * time.Millisecond
	s := testServer(t, Config{StallAfter: stallAfter})
	s.gate = make(chan struct{})
	clock := &fakeClock{}
	clock.ns.Store(time.Now().UnixNano()) // not before the startup stamp
	s.now = clock.Now
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, hr := getHealth(t, ts)
	if code != http.StatusOK || hr.Status != "ok" || hr.Stalled {
		t.Fatalf("idle healthz = %d %+v, want 200 ok", code, hr)
	}
	if hr.Schema != schema.Version {
		t.Fatalf("healthz schema = %d, want %d", hr.Schema, schema.Version)
	}
	if hr.LastProgressMs <= 0 {
		t.Fatalf("idle healthz last_progress_unix_ms = %d, want startup time", hr.LastProgressMs)
	}
	baseline := hr.LastProgressMs

	// Park the loop: it marks the decision in flight, then blocks on the
	// gate — indistinguishable, to the watchdog, from a wedged evaluation.
	if code, _ := post(t, ts, `{"kernel":{"workload":"sgemm","goal_frac":0.5}}`); code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.decidingSinceNs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("decision loop never picked up the job")
		}
		time.Sleep(time.Millisecond)
	}
	clock.ns.Add(int64(2 * stallAfter))

	code, hr = getHealth(t, ts)
	if code != http.StatusServiceUnavailable || hr.Status != "stalled" || !hr.Stalled {
		t.Fatalf("wedged healthz = %d %+v, want 503 stalled", code, hr)
	}
	if want := (2 * stallAfter).Milliseconds(); hr.InFlightMs != want {
		t.Fatalf("decision_in_flight_ms = %d, want exactly %d", hr.InFlightMs, want)
	}
	if hr.LastProgressMs != baseline {
		t.Fatalf("last progress moved while wedged: %d -> %d", baseline, hr.LastProgressMs)
	}

	// Release the gate: the decision completes and the watchdog clears.
	s.gate <- struct{}{}
	var id string
	{
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var lr jobListResponse
		json.NewDecoder(resp.Body).Decode(&lr)
		resp.Body.Close()
		if len(lr.Jobs) != 1 {
			t.Fatalf("jobs = %+v", lr.Jobs)
		}
		id = lr.Jobs[0].ID
	}
	if v := wait(t, ts, id); v.Verdict == nil {
		t.Fatalf("job not decided after gate release: %+v", v)
	}
	// The job is decided before the loop marks progress: wait for that.
	deadline = time.Now().Add(5 * time.Second)
	for s.decidingSinceNs.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("decision loop never marked progress after the decision")
		}
		time.Sleep(time.Millisecond)
	}
	code, hr = getHealth(t, ts)
	if code != http.StatusOK || hr.Status != "ok" || hr.Stalled {
		t.Fatalf("recovered healthz = %d %+v, want 200 ok", code, hr)
	}
	if hr.LastProgressMs < baseline {
		t.Fatalf("last progress did not advance: %d -> %d", baseline, hr.LastProgressMs)
	}
	if hr.InFlightMs != 0 {
		t.Fatalf("idle decision_in_flight_ms = %d, want 0", hr.InFlightMs)
	}
}

// TestHealthzFullMixIsNotAStall: a queued job waiting for a client to
// release a slot of a full mix is a healthy daemon, however long the
// wait. The loop marks a decision in flight only once the mix has room,
// so /healthz stays 200 with the clock far past StallAfter, and the job
// is decided as soon as the slot frees.
func TestHealthzFullMixIsNotAStall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const stallAfter = 50 * time.Millisecond
	s := testServer(t, Config{MaxMix: 1, StallAfter: stallAfter})
	clock := &fakeClock{}
	clock.ns.Store(time.Now().UnixNano())
	s.now = clock.Now
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first := post(t, ts, `{"kernel":{"workload":"sgemm","goal_frac":0.5}}`)
	if v := wait(t, ts, first.Job.ID); v.State != string(JobAdmitted) {
		t.Fatalf("first job = %+v, want admitted", v)
	}
	_, queued := post(t, ts, `{"kernel":{"workload":"lbm"}}`)
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) > 0 { // the loop took the job and waits for a slot
		if time.Now().After(deadline) {
			t.Fatal("decision loop never picked up the queued job")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let a loop that marks before waiting do so
	clock.ns.Add(int64(100 * stallAfter))
	if code, hr := getHealth(t, ts); code != http.StatusOK || hr.Stalled || hr.InFlightMs != 0 {
		t.Fatalf("healthz with a full mix and a queued job = %d %+v, want 200 and nothing in flight", code, hr)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := wait(t, ts, queued.Job.ID); v.Verdict == nil {
		t.Fatalf("queued job after the release = %+v, want a verdict", v)
	}
}

// TestStallAfterDerivedOrRefused: an unset StallAfter is twice
// EvalTimeout (DefaultStallAfter with no deadline), and New refuses an
// explicit one that does not exceed EvalTimeout, under which a slow but
// live evaluation would read as a stall.
func TestStallAfterDerivedOrRefused(t *testing.T) {
	r, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithWindow(30_000)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		stall, eval time.Duration
		want        time.Duration // 0: New refuses
	}{
		{0, 0, DefaultStallAfter},
		{0, 2 * time.Minute, 4 * time.Minute},
		{0, time.Second, 2 * time.Second},
		{time.Minute, 0, time.Minute},
		{3 * time.Minute, 2 * time.Minute, 3 * time.Minute},
		{2 * time.Minute, 2 * time.Minute, 0},
		{time.Minute, 2 * time.Minute, 0},
	} {
		s, err := New(Config{Runner: r, StallAfter: c.stall, EvalTimeout: c.eval})
		switch {
		case c.want == 0 && err == nil:
			s.Shutdown(context.Background())
			t.Errorf("StallAfter %v, EvalTimeout %v: New accepted it, want a refusal", c.stall, c.eval)
		case c.want == 0:
		case err != nil:
			t.Errorf("StallAfter %v, EvalTimeout %v: %v", c.stall, c.eval, err)
		default:
			if s.stallAfter != c.want {
				t.Errorf("StallAfter %v, EvalTimeout %v: stall threshold %v, want %v", c.stall, c.eval, s.stallAfter, c.want)
			}
			s.Shutdown(context.Background())
		}
	}
}
