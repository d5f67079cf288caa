package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/schema"
)

// TestSoakConcurrentAdmission is the daemon's acceptance test: 50
// concurrent HTTP clients against one daemon. Every job must
// reach a terminal state (zero lost), overload must never be silent, and
// every recorded verdict must be bit-identical to a serial replay of its
// decision — the determinism contract of the single-threaded decision
// loop over a seeded simulator.
func TestSoakConcurrentAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation soak")
	}
	small := config.Base()
	small.NumSMs = 4
	sessOpts := []core.Option{core.WithGPU(small), core.WithWindow(30_000)}
	r, err := exp.NewRunner(1, exp.WithSessionOptions(sessOpts...))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Runner: r, MaxMix: 2, QueueDepth: 64, FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Each client submits one deterministic-by-index job, waits for the
	// verdict, and releases admitted jobs so the mix keeps cycling and
	// head-of-line waiters are never starved.
	workloadsByIdx := []string{"sgemm", "lbm", "mri-q", "stencil", "histo"}
	goalsByIdx := []float64{0, 0.3, 0.5, 0.7}
	const clients = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"name":"c%02d","kernel":{"workload":%q,"goal_frac":%g}}`,
				i, workloadsByIdx[i%len(workloadsByIdx)], goalsByIdx[i%len(goalsByIdx)])
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			code, jr := resp.StatusCode, decodeJob(resp)
			if code != http.StatusAccepted {
				errs <- fmt.Errorf("client %d: POST = %d", i, code)
				return
			}
			v, err := waitJob(ts, jr.Job.ID)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			switch v.State {
			case string(JobAdmitted):
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jr.Job.ID, nil)
				dresp, derr := http.DefaultClient.Do(req)
				if derr != nil {
					errs <- derr
					return
				}
				dresp.Body.Close()
				if dresp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: release = %d", i, dresp.StatusCode)
				}
			case string(JobRejected):
				if v.Verdict == nil || v.Verdict.IsAdmitted() {
					errs <- fmt.Errorf("client %d: rejected without verdict: %+v", i, v)
				}
			default:
				errs <- fmt.Errorf("client %d: terminal state %q", i, v.State)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Drain: queued work is already decided, so this completes promptly.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain = %v", err)
	}

	// Zero lost jobs: every submission is on the log with a verdict.
	decs := s.Decisions()
	var decisions []Decision
	for _, d := range decs {
		if d.Kind == "decision" {
			decisions = append(decisions, d)
		}
	}
	if len(decisions) != clients {
		t.Fatalf("%d decisions for %d submissions", len(decisions), clients)
	}
	for _, j := range s.store.list() {
		st := j.view().State
		if st != string(JobReleased) && st != string(JobRejected) {
			t.Fatalf("job %s ended as %q", j.id, st)
		}
	}

	// Serial replay: re-decide every logged decision through an identical
	// tiered decider on a fresh single session (same device, window,
	// seed, fast-path settings) and demand the byte-identical verdict —
	// decision, deciding tier, reason, every kernel number. This is what
	// makes the daemon's concurrent fast-path answers trustworthy.
	sess, err := core.NewSession(sessOpts...)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(sess, Config{MaxMix: 2, FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]int{}
	for _, d := range decisions {
		if d.Verdict == nil {
			t.Fatalf("decision %d (%s) has no verdict", d.Index, d.JobID)
		}
		tiers[d.Verdict.Tier]++
		v, err := rp.Replay(context.Background(), d)
		if err != nil {
			t.Fatalf("replay decision %d: %v", d.Index, err)
		}
		got, _ := json.Marshal(d.Verdict)
		want, _ := json.Marshal(v)
		if string(got) != string(want) {
			t.Fatalf("decision %d (%s):\n served %s\n replay %s", d.Index, d.JobID, got, want)
		}
	}
	// Under 50 clients cycling 20 distinct (workload, goal) submissions
	// against a MaxMix-2 mix, the exact cache must actually carry load.
	if tiers[schema.TierCache] == 0 {
		t.Fatalf("no cache-tier verdicts in soak: %v", tiers)
	}
	t.Logf("verdicts by tier: %v", tiers)
}

// decodeJob decodes and closes a job response.
func decodeJob(resp *http.Response) jobResponse {
	defer resp.Body.Close()
	var jr jobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	return jr
}

// waitJob blocks on ?wait=1 until the job has a verdict. Unlike the
// wait helper it returns errors instead of failing the test, so client
// goroutines can use it.
func waitJob(ts *httptest.Server, id string) (JobView, error) {
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=1")
	if err != nil {
		return JobView{}, err
	}
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return JobView{}, err
	}
	return jr.Job, nil
}
