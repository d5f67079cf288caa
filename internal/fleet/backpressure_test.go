package fleet_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/server"
)

// TestQueueBackpressureV2 is internal/server TestQueueBackpressure
// through /v2: with the placement loop held inside its first what-if,
// one job fills the one-deep queue and the next submission gets 429. The
// refused job takes no id and is not listed, so after both accepted jobs
// resolve the next arrival is vjob-000002.
func TestQueueBackpressureV2(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	f, err := fleet.New(fleet.Config{
		Nodes:      []fleet.NodeSpec{{Name: "a", GPU: guardGPU()}},
		Scheme:     core.SchemeRollover,
		Window:     20_000,
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	var hold, free sync.Once
	fleet.InterceptSims(f, func(context.Context, []core.KernelSpec) error {
		hold.Do(func() {
			close(held)
			<-release
		})
		return nil
	})
	unhold := func() { free.Do(func() { close(release) }) }
	r, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithGPU(guardGPU()), core.WithWindow(20_000)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Runner: r, Fleet: f})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	t.Cleanup(unhold) // a failed check leaves no what-if held for Shutdown
	submit := func(body string) (int, fleet.JobView) {
		t.Helper()
		code, raw := postJSON(t, ts.URL+"/v2/jobs", body)
		var jr struct {
			Job fleet.JobView `json:"job"`
		}
		if code == http.StatusAccepted {
			if err := json.Unmarshal([]byte(raw), &jr); err != nil {
				t.Fatal(err)
			}
		}
		return code, jr.Job
	}
	const body = `{"workload":"sgemm","gpu_fraction":0.3,"goal":0.5}`
	if code0, _ := submit(body); code0 != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", code0)
	}
	<-held // the loop took job 0 off the queue and waits in its what-if
	if code1, _ := submit(body); code1 != http.StatusAccepted {
		t.Fatalf("second POST = %d, want 202", code1)
	}
	if code, _ := submit(body); code != http.StatusTooManyRequests {
		t.Fatalf("third POST = %d, want 429", code)
	}
	code, raw := getJSON(t, ts.URL+"/v2/jobs")
	var list struct {
		Jobs []fleet.JobView `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(raw), &list); err != nil || code != http.StatusOK {
		t.Fatalf("GET /v2/jobs = %d %s (%v)", code, raw, err)
	}
	var ids []string
	for _, j := range list.Jobs {
		ids = append(ids, j.ID)
	}
	if !slices.Equal(ids, []string{"vjob-000000", "vjob-000001"}) {
		t.Fatalf("jobs after the 429 = %v, want only vjob-000000 and vjob-000001", ids)
	}
	unhold()
	for _, id := range ids {
		if _, err := f.Wait(context.Background(), id); err != nil && !errors.Is(err, fleet.ErrNoPlacement) {
			t.Fatalf("job %s: %v", id, err)
		}
	}
	if code, j := submit(`{"workload":"lbm","gpu_fraction":0.2}`); code != http.StatusAccepted || j.ID != "vjob-000002" {
		t.Fatalf("next POST = %d %s, want 202 vjob-000002", code, j.ID)
	}
}

// getJSON GETs url and returns the status code and body.
func getJSON(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}
