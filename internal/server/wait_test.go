package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// send issues one request and returns its status and raw body.
func send(t *testing.T, ctx context.Context, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// preEnqueueErrors are submissions refused before anything is queued,
// with their status codes; ?wait=1 must not change them.
func preEnqueueErrors(valid string) map[string]int {
	return map[string]int{
		`{not json`:         http.StatusBadRequest,
		valid + ` trailing`: http.StatusBadRequest,
		`{"name":"` + strings.Repeat("x", maxBodyBytes) + `"}`: http.StatusRequestEntityTooLarge,
	}
}

// TestSubmitWaitV1: POST /v1/jobs?wait=1 answers 200 with the job's
// terminal view, byte for byte what GET ?wait=1 then says about the same
// job; a POST without ?wait is still a 202 with the job pending; and the
// errors raised before enqueue are the same with or without ?wait.
func TestSubmitWaitV1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{FastPath: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	const body = `{"kernel":{"workload":"sgemm","goal_frac":0.5}}`

	code, jr := post(t, ts, body)
	if code != http.StatusAccepted || (jr.Job.State != string(JobQueued) && jr.Job.State != string(JobEvaluating)) {
		t.Fatalf("POST = %d %+v, want 202 and a pending job", code, jr.Job)
	}
	first := wait(t, ts, jr.Job.ID)
	if first.State != string(JobAdmitted) {
		t.Fatalf("first job = %+v, want admitted", first)
	}
	if _, err := s.release(first.ID); err != nil {
		t.Fatal(err)
	}

	code, raw := send(t, ctx, http.MethodPost, ts.URL+"/v1/jobs?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("POST ?wait=1 = %d %s, want 200", code, raw)
	}
	var got jobResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Job.State != string(JobAdmitted) || got.Job.Verdict == nil || got.Job.ID == first.ID {
		t.Fatalf("POST ?wait=1 answered %+v, want a second job, admitted with its verdict", got.Job)
	}
	if _, again := send(t, ctx, http.MethodGet, ts.URL+"/v1/jobs/"+got.Job.ID+"?wait=1", ""); !bytes.Equal(raw, again) {
		t.Fatalf("POST ?wait=1 and GET ?wait=1 disagree about %s:\n%s\n%s", got.Job.ID, raw, again)
	}

	for b, want := range preEnqueueErrors(body) {
		for _, path := range []string{"/v1/jobs", "/v1/jobs?wait=1"} {
			if code, _ := send(t, ctx, http.MethodPost, ts.URL+path, b); code != want {
				t.Errorf("POST %s %.40q = %d, want %d", path, b, code, want)
			}
		}
	}
}

// TestSubmitWaitQueueFull: a full queue answers POST ?wait=1 with 429 and
// Retry-After at once, as it answers a plain POST.
func TestSubmitWaitQueueFull(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{QueueDepth: 1})
	s.gate = make(chan struct{})
	t.Cleanup(func() { close(s.gate) }) // a failure must not leave the loop parked
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const body = `{"kernel":{"workload":"sgemm","goal_frac":0.5}}`

	post(t, ts, body)
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("decision loop never picked up job 1")
		}
		time.Sleep(time.Millisecond)
	}
	post(t, ts, body)
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("POST ?wait=1 on a full queue = %d (Retry-After %q), want 429 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	s.gate <- struct{}{}
	s.gate <- struct{}{}
}

// TestSubmitWaitClientLeaves: a client that gives up on POST ?wait=1
// while its job is being decided takes nothing with it. The decision
// completes, /healthz stays green, and the next POST ?wait=1 is answered.
func TestSubmitWaitClientLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{})
	s.gate = make(chan struct{})
	t.Cleanup(func() { close(s.gate) }) // a failure must not leave the loop parked
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs?wait=1",
			strings.NewReader(`{"kernel":{"workload":"sgemm","goal_frac":0.5}}`))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.decidingSinceNs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("decision loop never picked up the job")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned POST ?wait=1 returned %v, want context.Canceled", err)
	}
	s.gate <- struct{}{}
	if v := wait(t, ts, "job-000001"); v.Verdict == nil {
		t.Fatalf("the abandoned job was never decided: %+v", v)
	}
	if code, hr := getHealth(t, ts); code != http.StatusOK || hr.Status != "ok" || hr.InFlightMs != 0 {
		t.Fatalf("healthz after the client left = %d %+v, want 200 ok and idle", code, hr)
	}

	go func() { s.gate <- struct{}{} }()
	code, raw := send(t, context.Background(), http.MethodPost, ts.URL+"/v1/jobs?wait=1", `{"kernel":{"workload":"lbm"}}`)
	var jr jobResponse
	if err := json.Unmarshal(raw, &jr); err != nil || code != http.StatusOK || jr.Job.Verdict == nil {
		t.Fatalf("next POST ?wait=1 = %d %s (%v), want 200 with a verdict", code, raw, err)
	}
}

// TestSubmitWaitV2 is TestSubmitWaitV1 for /v2/jobs: one POST ?wait=1
// returns the placed job as GET ?wait=1 does; without ?wait it is 202;
// 400, 413 and the draining 503 come back unchanged.
func TestSubmitWaitV2(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s, ts := v2TestServer(t)
	ctx := context.Background()
	const body = `{"name":"q1","workload":"sgemm","gpu_fraction":0.6,"goal":0.5}`

	code, raw := send(t, ctx, http.MethodPost, ts.URL+"/v2/jobs?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("POST ?wait=1 = %d %s, want 200", code, raw)
	}
	var got v2JobResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Job.State != fleet.StatePlaced || got.Job.Verdict == nil {
		t.Fatalf("POST ?wait=1 answered %+v, want placed with its verdict", got.Job)
	}
	if _, again := send(t, ctx, http.MethodGet, ts.URL+"/v2/jobs/"+got.Job.ID+"?wait=1", ""); !bytes.Equal(raw, again) {
		t.Fatalf("POST ?wait=1 and GET ?wait=1 disagree about %s:\n%s\n%s", got.Job.ID, raw, again)
	}

	code, jr := v2Post(t, ts, `{"workload":"lbm","gpu_fraction":0.25}`)
	if code != http.StatusAccepted || (jr.Job.State != fleet.StateQueued && jr.Job.State != fleet.StatePlacing) {
		t.Fatalf("POST = %d %+v, want 202 and a pending job", code, jr.Job)
	}
	if v := v2Wait(t, ts, jr.Job.ID); v.State != fleet.StatePlaced {
		t.Fatalf("plain POST's job = %+v, want placed", v)
	}

	errs := preEnqueueErrors(body)
	errs[`{"workload":"sgemm","gpu_fraction":1.5}`] = http.StatusBadRequest
	for b, want := range errs {
		for _, path := range []string{"/v2/jobs", "/v2/jobs?wait=1"} {
			if code, _ := send(t, ctx, http.MethodPost, ts.URL+path, b); code != want {
				t.Errorf("POST %s %.40q = %d, want %d", path, b, code, want)
			}
		}
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := send(t, ctx, http.MethodPost, ts.URL+"/v2/jobs?wait=1", body); code != http.StatusServiceUnavailable {
		t.Fatalf("POST ?wait=1 after shutdown = %d, want 503", code)
	}
}
