package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fleet"
)

// FuzzSubmitBody drives arbitrary bytes through what POST /v1/jobs and
// POST /v2/jobs do before anything is queued: the shared body decoder,
// then the lowering to a kernel spec. Nothing panics; every rejection is
// a 4xx through httpStatus; every accepted request resolves to finite
// goals and a job view that JSON-encodes (a view that does not is a 2xx
// with an empty body, and a verdict the journal cannot append).
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		`{"kernel":{"workload":"sgemm","goal_frac":0.5}}`,
		`{"name":"n","kernel":{"workload":"infer","goal":{"latency":{"instrs":3000000,"seconds":0.0002}}},"scheme":"rollover"}`,
		`{"kernel":{"workload":"sgemm","deadline":{"instrs":9000000000000000000,"seconds":1e-300}}}`,
		`{"workload":"sgemm","gpu_fraction":0.6,"goal":0.5}`,
		`{"workload":"rtdet","vgpu_cores":50,"goal":{"periodic":{"instrs":2000000,"period_s":0.0005}}}`,
		`{"workload":"sgemm","gpu_fraction":0.5,"goal":{"deadline":{"instrs":9000000000000000000,"seconds":1e-300}}}`,
		`{"kernel":{"workload":"sgemm"}} trailing`, `{"bogus":1}`, `{not json`, ``,
	} {
		f.Add([]byte(seed))
	}
	cfg := config.Base()
	decode := func(body []byte, v any) error {
		return decodeBody(httptest.NewRecorder(), &http.Request{Body: io.NopCloser(bytes.NewReader(body))}, v)
	}
	check := func(t *testing.T, api string, err error, spec core.KernelSpec, view any) {
		if err != nil {
			if code := httpStatus(err); code < 400 || code > 499 {
				t.Fatalf("%s: rejection %q maps to %d, want a 4xx", api, err, code)
			}
			return
		}
		for _, g := range []float64{spec.GoalFrac, spec.GoalIPC} {
			if math.IsInf(g, 0) || math.IsNaN(g) {
				t.Fatalf("%s: accepted request resolves to a non-finite goal: %+v", api, spec)
			}
		}
		if _, err := json.Marshal(view); err != nil {
			t.Fatalf("%s: accepted request's job view does not encode: %v", api, err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var v1 JobRequest
		var spec core.KernelSpec
		err := decode(body, &v1)
		if err == nil {
			spec, err = v1.Kernel.spec(cfg)
		}
		check(t, "/v1", err, spec, newJob(1, v1.Name, spec, v1.Kernel).view())

		var v2 fleet.Request
		if err = decode(body, &v2); err == nil {
			spec, err = v2.SpecFor(cfg)
		}
		check(t, "/v2", err, spec, fleet.JobView{Request: v2})
	})
}
