package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/schema"
)

// testServer builds a daemon on a one-session runner, as qosd does. The
// default device is the paper's 16-SM Table 1 GPU over a 30k-cycle
// window — the configuration the admission fixtures in admission_test.go
// were measured under.
func testServer(t *testing.T, cfg Config, ropts ...exp.Option) *Server {
	t.Helper()
	opts := append([]exp.Option{exp.WithSessionOptions(core.WithWindow(30_000))}, ropts...)
	r, err := exp.NewRunner(1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runner = r
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// post submits a job body and decodes the response envelope.
func post(t *testing.T, ts *httptest.Server, body string) (int, jobResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	return resp.StatusCode, jr
}

// wait blocks until the job has a verdict and returns the final view.
func wait(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Schema != schema.Version {
		t.Fatalf("job response schema = %d, want %d", jr.Schema, schema.Version)
	}
	return jr.Job
}

// TestHTTPStatusTaxonomy pins the one-place error-to-status mapping.
func TestHTTPStatusTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 200},
		{ErrQueueFull, 429},
		{fmt.Errorf("wrapped: %w", ErrQueueFull), 429},
		{ErrAdmissionRejected, 409},
		{ErrUnknownJob, 404},
		{ErrDraining, 503},
		{ErrBadRequest, 400},
		{fmt.Errorf("%w: %w", ErrBadRequest, &http.MaxBytesError{Limit: maxBodyBytes}), 413},
		{core.ErrUnknownScheme, 400},
		{core.ErrUnknownWorkload, 400},
		{core.ErrBadGoal, 400},
		{schema.ErrVersion, 400},
		{journal.ErrVersion, 400},
		{context.DeadlineExceeded, 504},
		{context.Canceled, 503},
		{errors.New("anything else"), 500},
		{&core.PanicError{Value: "boom"}, 500},
	}
	for _, c := range cases {
		if got := httpStatus(c.err); got != c.want {
			t.Errorf("httpStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestEndpointsSmoke drives every endpoint once over real HTTP.
func TestEndpointsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz reports the configuration and schema version.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Schema != schema.Version || h.Status != "ok" || h.Scheme != "rollover" || h.MaxMix != 3 {
		t.Fatalf("healthz = %+v", h)
	}

	// Bad requests map through the taxonomy.
	for _, body := range []string{
		`{not json`,
		`{"kernel":{"workload":""}}`,
		`{"kernel":{"workload":"sgemm","goal_frac":1.5}}`,
		`{"kernel":{"workload":"sgemm","goal_frac":0.5,"goal_ipc":3}}`,
		`{"kernel":{"workload":"sgemm"},"scheme":"bogus"}`,
		`{"kernel":{"workload":"sgemm"},"scheme":"spart"}`,
		`{"kernel":{"workload":"sgemm"}} {"kernel":{"workload":"lbm"}}`, // trailing data
	} {
		if code, _ := post(t, ts, body); code != 400 {
			t.Errorf("POST %s = %d, want 400", body, code)
		}
	}
	// A body past the cap is 413, whatever it holds.
	if code, _ := post(t, ts, `{"name":"`+strings.Repeat("x", maxBodyBytes)+`","kernel":{"workload":"sgemm"}}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST of an oversize body = %d, want 413", code)
	}
	// A deadline that validates field by field but divides to an infinite
	// IPC target is refused with a well-formed error body — it used to be
	// accepted with an empty one (encoding/json cannot carry +Inf).
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kernel":{"workload":"sgemm","deadline":{"instrs":9000000000000000000,"seconds":1e-300}}}`))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("non-finite deadline: error body does not decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 || er.Code != 400 || er.Schema != schema.Version || er.Error == "" {
		t.Fatalf("non-finite deadline = %d %+v, want a 400 envelope", resp.StatusCode, er)
	}

	// An unknown workload passes validation but fails its evaluation.
	code, jr := post(t, ts, `{"kernel":{"workload":"nope"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST unknown workload = %d", code)
	}
	if v := wait(t, ts, jr.Job.ID); v.State != string(JobFailed) || v.Error == "" {
		t.Fatalf("unknown workload job = %+v", v)
	}

	// A plain submission is admitted and GET/list/metrics see it.
	code, jr = post(t, ts, `{"name":"svc","kernel":{"workload":"sgemm","goal_frac":0.95}}`)
	if code != http.StatusAccepted || jr.Schema != schema.Version {
		t.Fatalf("POST = %d %+v", code, jr)
	}
	v := wait(t, ts, jr.Job.ID)
	if v.State != string(JobAdmitted) || v.Verdict == nil || !v.Verdict.IsAdmitted() {
		t.Fatalf("job = %+v", v)
	}
	if v.Verdict.Candidate.Workload != "sgemm" || !v.Verdict.Candidate.Reached {
		t.Fatalf("verdict candidate = %+v", v.Verdict.Candidate)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list jobListResponse
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if list.Schema != schema.Version || len(list.Jobs) != 2 {
		t.Fatalf("list = %+v", list)
	}

	// 404 on unknown ids.
	resp, err = http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("GET unknown job = %d", resp.StatusCode)
	}

	// SSE replays the full event history: evaluating, trace evidence,
	// admitted, verdict.
	sseResp, err := http.Get(ts.URL + "/v1/jobs/" + jr.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var kinds []string
	sc := bufio.NewScanner(sseResp.Body)
	for sc.Scan() {
		if after, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			kinds = append(kinds, after)
		}
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"state", "verdict", "epoch_roll"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("SSE events %v missing %q", kinds, want)
		}
	}

	// DELETE releases the mix slot; a second DELETE is a client error.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jr.Job.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(s.Mix()) != 0 {
		t.Fatalf("DELETE = %d, mix = %v", resp.StatusCode, s.Mix())
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("second DELETE = %d, want 400", resp.StatusCode)
	}

	// /metrics exposes schema version, server counters and absorbed
	// simulator counters as plain text.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(strings.Builder)
	sc = bufio.NewScanner(resp.Body)
	for sc.Scan() {
		buf.WriteString(sc.Text() + "\n")
	}
	resp.Body.Close()
	m := buf.String()
	for _, want := range []string{
		fmt.Sprintf("qosd_schema_version %d", schema.Version),
		"qosd_jobs_submitted 2",
		"qosd_jobs_admitted 1",
		"qosd_jobs_released 1",
		"qosd_jobs_failed 1",
		"qosd_sim_epochs ",
		"qosd_mix_size 0",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestQueueBackpressure deterministically overflows the admission queue:
// with the decision loop gated, one job sits at the gate, one fills the
// queue, and the third submission must get 429 with Retry-After.
func TestQueueBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{QueueDepth: 1})
	s.gate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"kernel":{"workload":"sgemm","goal_frac":0.5}}`
	code1, jr1 := post(t, ts, body)
	if code1 != http.StatusAccepted {
		t.Fatalf("first POST = %d", code1)
	}
	// Wait until the decision loop has taken job 1 off the queue (it is
	// now parked at the gate), so job 2 deterministically fills the queue.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("decision loop never picked up job 1")
		}
		time.Sleep(time.Millisecond)
	}
	code2, jr2 := post(t, ts, body)
	if code2 != http.StatusAccepted {
		t.Fatalf("second POST = %d", code2)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third POST = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er errorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	if er.Schema != schema.Version || er.Code != 429 {
		t.Fatalf("429 body = %+v", er)
	}

	// Release the gate twice: both queued jobs still get real verdicts
	// (the second may be rejected — two copies of the same QoS kernel
	// cannot both hold 50% — but it must be decided, not lost).
	s.gate <- struct{}{}
	s.gate <- struct{}{}
	for _, id := range []string{jr1.Job.ID, jr2.Job.ID} {
		v := wait(t, ts, id)
		if v.Verdict == nil || (v.State != string(JobAdmitted) && v.State != string(JobRejected)) {
			t.Fatalf("job %s = %+v", id, v)
		}
	}
}

// TestDrain checks the SIGTERM path cmd/qosd wires: draining refuses new
// submissions with 503 but still decides everything already queued.
func TestDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{})
	s.gate = make(chan struct{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"kernel":{"workload":"sgemm","goal_frac":0.5}}`
	_, jr1 := post(t, ts, body)
	_, jr2 := post(t, ts, body)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Once draining, new work must be refused with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.drainMu.Lock()
		draining := s.draining
		s.drainMu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never flipped the draining flag")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := post(t, ts, body); code != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", code)
	}
	s.gate <- struct{}{}
	s.gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("drain = %v", err)
	}
	for _, id := range []string{jr1.Job.ID, jr2.Job.ID} {
		v := wait(t, ts, id)
		if v.Verdict == nil || (v.State != string(JobAdmitted) && v.State != string(JobRejected)) {
			t.Fatalf("queued job %s did not get its verdict: %+v", id, v)
		}
	}
}

// cfg16 returns the paper's base device (compile-time guard that the
// fixtures really run on 16 SMs).
func cfg16(t *testing.T) config.GPU {
	t.Helper()
	c := config.Base()
	if c.NumSMs != 16 {
		t.Fatalf("config.Base() has %d SMs", c.NumSMs)
	}
	return c
}
