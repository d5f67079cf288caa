package fleet_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/server"
)

// guardTimeout is the EvalTimeout of the guard test: far above a healthy
// what-if on guardGPU (well under a second, raced), and the whole cost
// of a wedge.
const guardTimeout = 3 * time.Second

// guardGPU is the guard test's device, small so that healthy what-ifs
// stay far inside guardTimeout under the race detector.
func guardGPU() config.GPU {
	g := config.Base()
	g.NumSMs = 4
	return g
}

// TestWhatIfGuardV2 is internal/server TestWhatIfGuardV1 through /v2: a
// node's what-if that panics, or wedges until EvalTimeout, fails the job
// with the same typed error as on /v1, and qosd keeps serving /healthz,
// /v1 and /v2. The failed evaluation writes no node or placement record,
// so the journals are byte-identical to those of a fleet that never saw
// the arrival, and a restart from them recovers the same placements.
func TestWhatIfGuardV2(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, tc := range []struct {
		name string
		fail func(ctx context.Context) error
		want string
	}{
		{"panic", func(context.Context) error { panic("what-if fault") }, (&core.PanicError{Value: "what-if fault"}).Error()},
		{"wedge", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }, context.DeadlineExceeded.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			newFleet := func(name string) *fleet.Fleet {
				f, err := fleet.New(fleet.Config{
					Nodes:       []fleet.NodeSpec{{Name: "a", GPU: guardGPU()}},
					Scheme:      core.SchemeRollover,
					Window:      20_000,
					FastPath:    true,
					JournalDir:  filepath.Join(root, name),
					EvalTimeout: guardTimeout,
				})
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			daemon := func(f *fleet.Fleet) *httptest.Server {
				r, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithGPU(guardGPU()), core.WithWindow(20_000)))
				if err != nil {
					t.Fatal(err)
				}
				s, err := server.New(server.Config{Runner: r, Fleet: f, EvalTimeout: guardTimeout})
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
				return ts
			}
			const placed = `{"workload":"sgemm","gpu_fraction":0.5,"goal":0.5}`

			live := newFleet("live")
			stuck := make(chan struct{}, 1)
			fleet.InterceptSims(live, func(ctx context.Context, specs []core.KernelSpec) error {
				if specs[len(specs)-1].Workload != "mri-q" {
					return nil
				}
				stuck <- struct{}{}
				return tc.fail(ctx)
			})
			ts := daemon(live)
			if j := v2Decide(t, ts, placed); j.State != fleet.StatePlaced {
				t.Fatalf("first job = %+v, want placed", j)
			}
			failing := make(chan fleet.JobView, 1)
			go func() { failing <- v2Decide(t, ts, `{"workload":"mri-q","gpu_fraction":0.3,"goal":0.4}`) }()
			<-stuck
			healthy(t, ts)
			if j := <-failing; j.State != fleet.StateFailed || j.Error != tc.want || j.Verdict != nil {
				t.Fatalf("failing job = %+v, want failed with %q and no verdict", j, tc.want)
			}
			failed := readDir(t, filepath.Join(root, "live"))

			// qosd keeps serving both planes.
			healthy(t, ts)
			if code, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", `{"kernel":{"workload":"lbm"}}`); code != http.StatusOK || !strings.Contains(body, `"verdict"`) {
				t.Fatalf("/v1 after the failure = %d %s, want a decided job", code, body)
			}
			if j := v2Decide(t, ts, `{"workload":"lbm","gpu_fraction":0.2}`); j.State != fleet.StatePlaced {
				t.Fatalf("next /v2 arrival = %+v, want placed", j)
			}

			// A fleet that never saw the failing arrival journals the same bytes.
			ref := newFleet("ref")
			v2Decide(t, daemon(ref), placed)
			if want := readDir(t, filepath.Join(root, "ref")); !reflect.DeepEqual(failed, want) {
				t.Fatalf("journals after the failure differ from those of a fleet that never saw it")
			}
			restartDir := filepath.Join(root, "restart")
			if err := os.Mkdir(restartDir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, b := range failed {
				if err := os.WriteFile(filepath.Join(restartDir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			restarted := newFleet("restart")
			daemon(restarted) // owns the shutdown
			if got, want := restarted.Placements(), ref.Placements(); !reflect.DeepEqual(got, want) {
				t.Fatalf("restart recovered %+v, want %+v", got, want)
			}
		})
	}
}

// v2Decide submits a /v2 job and waits for its outcome in one request.
func v2Decide(t *testing.T, ts *httptest.Server, body string) fleet.JobView {
	t.Helper()
	code, raw := postJSON(t, ts.URL+"/v2/jobs?wait=1", body)
	var jr struct {
		Job fleet.JobView `json:"job"`
	}
	if err := json.Unmarshal([]byte(raw), &jr); err != nil || code != http.StatusOK {
		t.Errorf("POST /v2/jobs %s = %d %s (%v)", body, code, raw, err)
	}
	return jr.Job
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, string(b)
}

// healthy requires /healthz to answer 200 "ok".
func healthy(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil || resp.StatusCode != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz = %d %+v (%v), want 200 ok", resp.StatusCode, hr, err)
	}
}

// readDir reads every file in dir keyed by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}
