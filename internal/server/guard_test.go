package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
)

// guardTimeout is the EvalTimeout of the guard tests: far above a healthy
// what-if on guardGPU (well under a second, raced), and the whole cost
// of a wedge.
const guardTimeout = 3 * time.Second

// guardGPU is the guard tests' device, small so that healthy what-ifs
// stay far inside guardTimeout under the race detector.
func guardGPU() config.GPU {
	g := config.Base()
	g.NumSMs = 4
	return g
}

// guardCases are the two ways a what-if fails that verdict.Decider's
// guard turns into one job's typed error: a panic, and a wedge that only
// the evaluation deadline ends. want is the failed job's error, the same
// on /v1 and /v2 (internal/fleet TestWhatIfGuardV2).
var guardCases = []struct {
	name string
	fail func(ctx context.Context) error
	want string
}{
	{"panic", func(context.Context) error { panic("what-if fault") }, (&core.PanicError{Value: "what-if fault"}).Error()},
	{"wedge", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }, context.DeadlineExceeded.Error()},
}

// TestWhatIfGuardV1: a /v1 what-if that panics, or wedges until
// EvalTimeout, fails its job with one typed error and the daemon keeps
// serving: /healthz answers 200 while the what-if is stuck and after it
// failed, and the next arrival is decided normally. The failed
// evaluation writes no record, so the journal is byte-identical to that
// of a daemon that never saw the arrival, and a restart from it recovers
// the same decisions.
func TestWhatIfGuardV1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, tc := range guardCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			daemon := func(name string) (*Server, *httptest.Server) {
				s := testServer(t, Config{EvalTimeout: guardTimeout, JournalPath: filepath.Join(dir, name)},
					exp.WithSessionOptions(core.WithGPU(guardGPU()), core.WithWindow(20_000)))
				ts := httptest.NewServer(s.Handler())
				t.Cleanup(ts.Close)
				return s, ts
			}
			decide := func(ts *httptest.Server, body string) JobView {
				t.Helper()
				code, jr := post(t, ts, body)
				if code != http.StatusAccepted {
					t.Fatalf("POST %s = %d", body, code)
				}
				return wait(t, ts, jr.Job.ID)
			}
			const admitted = `{"kernel":{"workload":"sgemm","goal_frac":0.5}}`

			s, ts := daemon("live.log")
			stuck := make(chan struct{}, 1)
			s.interceptSims(func(ctx context.Context, specs []core.KernelSpec) error {
				if specs[len(specs)-1].Workload != "mri-q" {
					return nil
				}
				stuck <- struct{}{}
				return tc.fail(ctx)
			})
			if v := decide(ts, admitted); v.State != string(JobAdmitted) {
				t.Fatalf("first job = %+v, want admitted", v)
			}
			code, jr := post(t, ts, `{"kernel":{"workload":"mri-q","goal_frac":0.5}}`)
			if code != http.StatusAccepted {
				t.Fatalf("POST = %d", code)
			}
			<-stuck
			if code, hr := getHealth(t, ts); code != http.StatusOK || hr.Stalled {
				t.Fatalf("healthz during the failing what-if = %d %+v, want 200", code, hr)
			}
			if v := wait(t, ts, jr.Job.ID); v.State != string(JobFailed) || v.Error != tc.want || v.Verdict != nil {
				t.Fatalf("failing job = %+v, want failed with %q and no verdict", v, tc.want)
			}
			failed, err := os.ReadFile(filepath.Join(dir, "live.log"))
			if err != nil {
				t.Fatal(err)
			}
			if code, hr := getHealth(t, ts); code != http.StatusOK || hr.Status != "ok" {
				t.Fatalf("healthz after the failure = %d %+v, want 200 ok", code, hr)
			}
			if v := decide(ts, `{"kernel":{"workload":"lbm"}}`); v.Verdict == nil {
				t.Fatalf("next arrival = %+v, want a verdict", v)
			}

			// A daemon that never saw the failing arrival journals the same bytes.
			ref, refTS := daemon("ref.log")
			decide(refTS, admitted)
			want, err := os.ReadFile(filepath.Join(dir, "ref.log"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(failed, want) {
				t.Fatalf("journal after the failure differs from one that never saw it:\n%q\nwant\n%q", logLines(failed), logLines(want))
			}
			if err := os.WriteFile(filepath.Join(dir, "restart.log"), failed, 0o644); err != nil {
				t.Fatal(err)
			}
			restarted, _ := daemon("restart.log")
			got, _ := json.Marshal(restarted.Decisions())
			wantDec, _ := json.Marshal(ref.Decisions())
			if !bytes.Equal(got, wantDec) {
				t.Fatalf("restart recovered %s, want %s", got, wantDec)
			}
		})
	}
}

// logLines is a journal's text: its lines up to the NUL pad.
func logLines(b []byte) string {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}
