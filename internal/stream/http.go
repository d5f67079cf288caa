package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/fleet"
	"repro/internal/server"
)

// HTTPBackend submits arrivals to a live qosd over its HTTP API: one
// POST ?wait=1, which answers with the verdict, and a DELETE per
// admitted job, against /v1/jobs (single-device admission) or, with V2
// set, /v2/jobs (fleet placement with fractional-GPU shares). A POST
// that comes back still pending is followed by GET ?wait=1 until it is
// decided. This is `stream -mode replay`'s backend.
type HTTPBackend struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8715".
	BaseURL string
	// Client defaults to http.DefaultClient.
	Client *http.Client
	// V2 targets the fleet API; arrivals then submit their
	// gpu_fraction (defaultGPUFraction when an arrival carries none).
	V2 bool
}

// defaultGPUFraction backs arrivals without a gpu_fraction on /v2: a /v2
// submission must request some share.
const defaultGPUFraction = 0.25

// maxDrain bounds how much of an unread response body do discards to
// keep its connection; a longer body closes the connection instead.
const maxDrain = 64 << 10

func (b HTTPBackend) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

// do issues one request and decodes the enveloped job payload into out,
// translating the admission-relevant status codes: 429 means throttled
// (nil error, ok=false), 409 means the fleet rejected placement
// synchronously. Other non-2xx statuses are errors.
func (b HTTPBackend) do(ctx context.Context, method, path string, body, out any) (throttled, rejected bool, err error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return false, false, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.BaseURL+path, rd)
	if err != nil {
		return false, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client().Do(req)
	if err != nil {
		return false, false, err
	}
	defer func() {
		// A body closed before EOF costs the keep-alive connection, and
		// the next request dials a new one: drain what is left (DELETE,
		// 429 and 409 answers are never read), bounded.
		io.CopyN(io.Discard, resp.Body, maxDrain)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return true, false, nil
	case resp.StatusCode == http.StatusConflict:
		return false, true, nil
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return false, false, fmt.Errorf("stream: %s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return false, false, fmt.Errorf("stream: %s %s: decode: %w", method, path, err)
		}
	}
	return false, false, nil
}

// v1Envelope mirrors the /v1 single-job response body.
type v1Envelope struct {
	Schema int            `json:"schema"`
	Job    server.JobView `json:"job"`
}

// v2Envelope mirrors the /v2 single-job response body.
type v2Envelope struct {
	Schema int           `json:"schema"`
	Job    fleet.JobView `json:"job"`
}

// Submit submits one arrival and blocks (POST ?wait=1) until its verdict.
func (b HTTPBackend) Submit(ctx context.Context, a Arrival) (Outcome, error) {
	if b.V2 {
		return b.submitV2(ctx, a)
	}
	body := server.JobRequest{
		Name:   a.Tenant,
		Kernel: server.KernelRequest{Workload: a.Workload},
	}
	if !a.Goal.IsZero() {
		g := a.Goal
		body.Kernel.Goal = &g
	}
	var env v1Envelope
	throttled, _, err := b.do(ctx, http.MethodPost, "/v1/jobs?wait=1", body, &env)
	if err != nil {
		return Outcome{}, err
	}
	if throttled {
		return Outcome{State: StateThrottled}, nil
	}
	for env.Job.State == string(server.JobQueued) || env.Job.State == string(server.JobEvaluating) {
		if _, _, err := b.do(ctx, http.MethodGet, "/v1/jobs/"+env.Job.ID+"?wait=1", nil, &env); err != nil {
			return Outcome{}, err
		}
	}
	return outcomeFromStates(env.Job.ID, env.Job.State, env.Job.Verdict), nil
}

func (b HTTPBackend) submitV2(ctx context.Context, a Arrival) (Outcome, error) {
	frac := a.GPUFraction
	if frac == 0 {
		frac = defaultGPUFraction
	}
	body := fleet.Request{
		Name:        a.Tenant,
		Workload:    a.Workload,
		GPUFraction: frac,
	}
	if !a.Goal.IsZero() {
		g := a.Goal
		body.Goal = &g
	}
	var env v2Envelope
	throttled, rejected, err := b.do(ctx, http.MethodPost, "/v2/jobs?wait=1", body, &env)
	if err != nil {
		return Outcome{}, err
	}
	if throttled {
		return Outcome{State: StateThrottled}, nil
	}
	if rejected {
		return Outcome{State: StateRejected}, nil
	}
	for env.Job.State == fleet.StateQueued || env.Job.State == fleet.StatePlacing {
		if _, _, err := b.do(ctx, http.MethodGet, "/v2/jobs/"+env.Job.ID+"?wait=1", nil, &env); err != nil {
			return Outcome{}, err
		}
	}
	switch env.Job.State {
	case fleet.StatePlaced:
		return Outcome{JobID: env.Job.ID, State: StateAdmitted, Verdict: env.Job.Verdict}, nil
	case fleet.StateRejected:
		return Outcome{JobID: env.Job.ID, State: StateRejected, Verdict: env.Job.Verdict}, nil
	default:
		return Outcome{JobID: env.Job.ID, State: StateFailed, Verdict: env.Job.Verdict}, nil
	}
}

// Release frees an admitted job.
func (b HTTPBackend) Release(ctx context.Context, jobID string) error {
	path := "/v1/jobs/" + jobID
	if b.V2 {
		path = "/v2/jobs/" + jobID
	}
	_, _, err := b.do(ctx, http.MethodDelete, path, nil, nil)
	return err
}
