package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// epochKinds are the per-epoch decisions of the QoS manager: what an
// epoch step reads (epoch_roll) and everything it decides.
var epochKinds = []trace.Kind{
	trace.KindEpochRoll, trace.KindQuotaGrant, trace.KindQuotaCarry,
	trace.KindQuotaConsumed, trace.KindAlpha, trace.KindElasticEpoch,
	trace.KindReplenish, trace.KindArtificialGoal, trace.KindGoalCheck,
}

// epochEventRuns are the traced co-runs TestGoldenEpochEvents pins, one
// per QoS scheme.
var epochEventRuns = []struct {
	scheme core.Scheme
	specs  []core.KernelSpec
}{
	{core.SchemeNaive, []core.KernelSpec{{Workload: "tpacf", GoalFrac: 0.95}, {Workload: "spmv"}}},
	{core.SchemeNaiveHistory, []core.KernelSpec{{Workload: "tpacf", GoalFrac: 0.95}, {Workload: "spmv"}}},
	{core.SchemeElastic, []core.KernelSpec{{Workload: "tpacf", GoalFrac: 0.8}, {Workload: "sgemm"}}},
	{core.SchemeRollover, []core.KernelSpec{{Workload: "sgemm", GoalFrac: 0.6}, {Workload: "mri-q", GoalFrac: 0.6}, {Workload: "spmv"}}},
	{core.SchemeRolloverTime, []core.KernelSpec{{Workload: "tpacf", GoalFrac: 0.95}, {Workload: "spmv"}}},
}

// TestGoldenEpochEvents byte-compares the per-epoch events of one traced
// co-run per QoS scheme against testdata/epoch_events.golden.jsonl. Each
// run is a {"scheme":…} line followed by its events of the epochKinds, in
// the JSONL export's layout. The rollover trace golden pins a single
// scheme, where α stays 1 and nothing replenishes or starts an elastic
// epoch; this one covers every kind the epoch step emits, and both signs
// of carry (Rollover's credit, Elastic's debt).
func TestGoldenEpochEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s, err := core.NewSession(core.WithWindow(30_000))
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]bool{}
	want := []string{"quota_carry+", "quota_carry-"}
	for _, k := range epochKinds {
		keep[k.String()] = true
		want = append(want, k.String())
	}
	seen := map[string]int{}
	var out bytes.Buffer
	for _, run := range epochEventRuns {
		tr := trace.New(trace.DefaultRingSize)
		if _, err := s.RunTraced(context.Background(), run.specs, run.scheme, tr); err != nil {
			t.Fatal(err)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("%s: ring dropped %d events", run.scheme, tr.Dropped())
		}
		var jsonl bytes.Buffer
		if err := trace.Export(&jsonl, tr, trace.FormatJSONL); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "{\"scheme\":%q}\n", run.scheme)
		for _, line := range bytes.SplitAfter(jsonl.Bytes(), []byte("\n")) {
			var ev struct {
				Kind string  `json:"kind"`
				A    float64 `json:"a"`
			}
			if len(line) == 0 || json.Unmarshal(line, &ev) != nil || !keep[ev.Kind] {
				continue
			}
			out.Write(line)
			seen[ev.Kind]++
			if ev.Kind == trace.KindQuotaCarry.String() {
				switch {
				case ev.A > 0:
					seen["quota_carry+"]++
				case ev.A < 0:
					seen["quota_carry-"]++
				}
			}
		}
	}
	for _, kind := range want {
		if seen[kind] == 0 {
			t.Errorf("no %s event in any run: choose runs that emit one", kind)
		}
	}
	checkGolden(t, filepath.Join("testdata", "epoch_events.golden.jsonl"), out.Bytes())
}
