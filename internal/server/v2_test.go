package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/schema"
)

// TestV2ErrorTaxonomy pins the fleet sentinels' status codes: the /v2
// API routes every error through the same single httpStatus mapping as
// v1.
func TestV2ErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fleet.ErrQueueFull, http.StatusTooManyRequests},
		{fmt.Errorf("wrapped: %w", fleet.ErrQueueFull), http.StatusTooManyRequests},
		{fleet.ErrNoPlacement, http.StatusConflict},
		{fleet.ErrUnknownJob, http.StatusNotFound},
		{fleet.ErrUnknownNode, http.StatusNotFound},
		{fleet.ErrDraining, http.StatusServiceUnavailable},
		{fleet.ErrBadRequest, http.StatusBadRequest},
		{schema.ErrBadGoal, http.StatusBadRequest},
		{ErrFleetDisabled, http.StatusNotImplemented},
		{fmt.Errorf("outer: %w", ErrFleetDisabled), http.StatusNotImplemented},
	}
	for _, c := range cases {
		if got := httpStatus(c.err); got != c.want {
			t.Errorf("httpStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestV2DisabledReturns501 checks a fleetless daemon answers 501 on
// every /v2 route.
func TestV2DisabledReturns501(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ep := range []struct{ method, path string }{
		{"POST", "/v2/jobs"},
		{"GET", "/v2/jobs"},
		{"GET", "/v2/jobs/vjob-000000"},
		{"DELETE", "/v2/jobs/vjob-000000"},
		{"GET", "/v2/nodes"},
		{"GET", "/v2/nodes/node-0"},
		{"GET", "/v2/placements"},
	} {
		req, err := http.NewRequest(ep.method, ts.URL+ep.path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s %s = %d, want 501", ep.method, ep.path, resp.StatusCode)
		}
	}
}

// v2TestServer attaches a two-node fleet to a test daemon.
func v2TestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	fl, err := fleet.New(fleet.Config{
		Nodes: []fleet.NodeSpec{
			{Name: "a", GPU: config.Base()},
			{Name: "b", GPU: config.Base()},
		},
		Scheme:        core.SchemeRollover,
		Window:        20_000,
		MaxMixPerNode: 2,
		FastPath:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{Fleet: fl})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func v2Post(t *testing.T, ts *httptest.Server, body string) (int, v2JobResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr v2JobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	return resp.StatusCode, jr
}

func v2Wait(t *testing.T, ts *httptest.Server, id string) fleet.JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr v2JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Schema != schema.Version {
		t.Fatalf("v2 response schema = %d, want %d", jr.Schema, schema.Version)
	}
	return jr.Job
}

// TestV2EndpointsSmoke drives the whole /v2 surface over real HTTP:
// fractional submissions place across nodes, capacity exhaustion
// rejects, release frees, and request validation maps through the
// taxonomy.
func TestV2EndpointsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	_, ts := v2TestServer(t)

	// Validation errors are 400s with the envelope.
	for _, body := range []string{
		`{not json`,
		`{"workload":"sgemm","gpu_fraction":0.5,"bogus":1}`,
		`{"gpu_fraction":0.5}`,
		`{"workload":"sgemm"}`,
		`{"workload":"sgemm","gpu_fraction":0.5,"vgpu_cores":50}`,
		`{"workload":"sgemm","gpu_fraction":1.5}`,
		`{"workload":"sgemm","gpu_fraction":0.5,"goal":2.0}`,
		`{"workload":"sgemm","gpu_fraction":0.5,"goal":{"ipc":1,"deadline":{"instrs":1,"seconds":1}}}`,
		`{"workload":"sgemm","gpu_fraction":0.5,"scheme":"none"}`,
		`{"workload":"sgemm","gpu_fraction":0.5} trailing`,
	} {
		if code, _ := v2Post(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, code)
		}
	}
	// A body past the cap is 413, whatever it holds.
	if code, _ := v2Post(t, ts, `{"name":"`+strings.Repeat("x", maxBodyBytes)+`","workload":"sgemm","gpu_fraction":0.5}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST of an oversize body = %d, want 413", code)
	}

	// A fractional QoS job places on some node.
	code, jr := v2Post(t, ts, `{"name":"q1","workload":"sgemm","gpu_fraction":0.6,"goal":0.5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	j1 := v2Wait(t, ts, jr.Job.ID)
	if j1.State != fleet.StatePlaced || j1.Node == "" {
		t.Fatalf("job 1 = %+v, want placed", j1)
	}
	if j1.Verdict == nil || j1.Verdict.Decision != schema.DecisionAdmit {
		t.Fatalf("job 1 verdict = %+v, want admit", j1.Verdict)
	}

	// A whole-device job lands on the other node.
	_, jr2 := v2Post(t, ts, `{"name":"big","workload":"lbm","gpu_fraction":1.0}`)
	j2 := v2Wait(t, ts, jr2.Job.ID)
	if j2.State != fleet.StatePlaced || j2.Node == j1.Node {
		t.Fatalf("job 2 = %+v, want placed on the other node (job 1 on %s)", j2, j1.Node)
	}

	// Now the fleet is too full for another large job: rejected, and
	// the reject is journaled in the placement sequence.
	_, jr3 := v2Post(t, ts, `{"name":"over","workload":"spmv","gpu_fraction":0.9}`)
	j3 := v2Wait(t, ts, jr3.Job.ID)
	if j3.State != fleet.StateRejected {
		t.Fatalf("job 3 = %+v, want rejected", j3)
	}

	// Releasing an unplaced job is a request error; unknown ids are 404.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v2/jobs/"+jr3.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("DELETE rejected job = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v2/jobs/vjob-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", resp.StatusCode)
	}

	// Nodes report capacity and tier counters.
	resp, err = http.Get(ts.URL + "/v2/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var nl v2NodeListResponse
	json.NewDecoder(resp.Body).Decode(&nl)
	resp.Body.Close()
	if nl.Schema != schema.Version || len(nl.Nodes) != 2 {
		t.Fatalf("nodes = %+v", nl)
	}
	var usedSM float64
	for _, n := range nl.Nodes {
		usedSM += n.UsedSM
	}
	if usedSM < 1.6-1e-9 { // 0.6 + 1.0
		t.Fatalf("total used SM = %v, want 1.6", usedSM)
	}
	resp, err = http.Get(ts.URL + "/v2/nodes/node-99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown node = %d, want 404", resp.StatusCode)
	}

	// The placement sequence records both places and the reject.
	resp, err = http.Get(ts.URL + "/v2/placements")
	if err != nil {
		t.Fatal(err)
	}
	var pl v2PlacementsResponse
	json.NewDecoder(resp.Body).Decode(&pl)
	resp.Body.Close()
	kinds := map[string]int{}
	for _, p := range pl.Placements {
		kinds[p.Kind]++
	}
	if kinds[fleet.KindPlace] != 2 || kinds[fleet.KindReject] != 1 {
		t.Fatalf("placement kinds = %v, want 2 places and 1 reject", kinds)
	}

	// Release frees the big job's device; the over job's twin now fits.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v2/jobs/"+jr2.Job.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rel v2JobResponse
	json.NewDecoder(resp.Body).Decode(&rel)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rel.Job.State != fleet.StateReleased {
		t.Fatalf("release = %d %+v, want 200 released", resp.StatusCode, rel.Job)
	}
	_, jr4 := v2Post(t, ts, `{"name":"retry","workload":"spmv","gpu_fraction":0.9}`)
	if j4 := v2Wait(t, ts, jr4.Job.ID); j4.State != fleet.StatePlaced {
		t.Fatalf("job 4 after release = %+v, want placed", j4)
	}
}

// TestV2ShutdownDrainsFleet verifies Server.Shutdown drains the
// attached fleet too: v2 submissions after drain are 503s.
func TestV2ShutdownDrainsFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s, ts := v2TestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := v2Post(t, ts, `{"workload":"sgemm","gpu_fraction":0.5}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown = %d, want 503", code)
	}
}
