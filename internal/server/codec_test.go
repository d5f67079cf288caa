package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/schema"
	"repro/internal/trace"
)

// stubSim is a what-if without the simulator, a pure function of the
// mix (each kernel gets a share of an isolated IPC drawn from its
// workload's name, smaller in larger mixes), failing every mri-q
// candidate the way a failed simulation does.
func stubSim(_ context.Context, specs []core.KernelSpec, scheme core.Scheme, _ *trace.Tracer) (*core.Result, error) {
	if specs[len(specs)-1].Workload == "mri-q" {
		return nil, errors.New("stub: what-if failed")
	}
	res := &core.Result{Scheme: scheme, Cycles: 30_000, AllReached: true}
	for i, sp := range specs {
		h := fnv.New64a()
		h.Write([]byte(sp.Workload))
		iso := 200 + float64(h.Sum64()%100000)/317
		ipc := iso * (1.1 - 0.23*float64(len(specs))) * (1 + 0.01*float64(i))
		kr := core.KernelResult{Name: sp.Workload, IPC: ipc, IsolatedIPC: iso, NormThroughput: ipc / iso}
		if goal := max(sp.GoalFrac*iso, sp.GoalIPC); goal > 0 {
			kr.IsQoS, kr.GoalIPC, kr.GoalRatio = true, goal, ipc/goal
			kr.Reached = ipc >= goal
			res.AllReached = res.AllReached && kr.Reached
		}
		res.Kernels = append(res.Kernels, kr)
	}
	return res, nil
}

// genJournal drives a stubbed /v1 daemon journaling to path through n
// seeded arrivals over every goal form, releasing admitted jobs as the
// mix fills, and returns the payloads of the journal's case lines.
func genJournal(tb testing.TB, path string, n int) [][]byte {
	tb.Helper()
	r, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithWindow(30_000)))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{Runner: r, JournalPath: path, FastPath: true})
	if err != nil {
		tb.Fatal(err)
	}
	s.sim = stubSim
	goal := func(g schema.Goal) *schema.Goal { return &g }
	rng := rand.New(rand.NewSource(3))
	forms := []JobRequest{
		{Name: "batch", Kernel: KernelRequest{Workload: "sgemm", GoalFrac: 0.5}},
		{Kernel: KernelRequest{Workload: "sgemm", GoalFrac: 0.7}},
		{Kernel: KernelRequest{Workload: "spmv", GoalIPC: 150}},
		{Name: "bg", Kernel: KernelRequest{Workload: "lbm"}},
		{Kernel: KernelRequest{Workload: "histo", Deadline: &DeadlineRequest{Instrs: 2_000_000_000, Seconds: 0.5}}},
		{Name: "llm", Kernel: KernelRequest{Workload: "infer", Goal: goal(schema.LatencyGoal(schema.Latency{Instrs: 13_000_000_000, Seconds: 0.1}))}},
		{Name: "rt", Kernel: KernelRequest{Workload: "rtdet", Goal: goal(schema.PeriodicGoal(schema.Periodic{Instrs: 5_500_000_000, PeriodS: 0.033}))}},
		{Kernel: KernelRequest{Workload: "mri-q", GoalFrac: 0.5}},
	}
	var admitted []string
	for i := 0; i < n; i++ {
		if len(admitted) == s.maxMix || len(admitted) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(admitted))
			if _, err := s.release(admitted[k]); err != nil {
				tb.Fatal(err)
			}
			admitted = append(admitted[:k], admitted[k+1:]...)
		}
		j, err := s.submit(forms[rng.Intn(len(forms))])
		if err != nil {
			tb.Fatal(err)
		}
		<-j.done
		if j.view().State == string(JobAdmitted) {
			admitted = append(admitted, j.id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i] // the pad
	}
	var out [][]byte
	for _, l := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		rec, err := journal.Decode(l)
		if err != nil {
			tb.Fatal(err)
		}
		if !rec.Header {
			out = append(out, rec.Data)
		}
	}
	return out
}

// fastAgrees checks one job log entry: the fast path declines it, or
// reads what json.Unmarshal reads, which must accept it.
func fastAgrees(t *testing.T, raw []byte) (ok bool) {
	t.Helper()
	c := schema.NewCursor(raw)
	got := readDecision(&c)
	if !c.Done() {
		return false
	}
	var want Decision
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("fast path read %s, which json.Unmarshal refuses: %v", raw, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path read %s as\n%+v\njson.Unmarshal as\n%+v", raw, got, want)
	}
	return true
}

// TestFastPathReadsEveryEntry: every entry of a generated /v1 job log —
// decisions of both tiers, releases, failed entries — is read by the
// fast path, to what json.Unmarshal reads. A declined entry would still
// recover, by the fallback, so only this test notices a layout the fast
// path lost.
func TestFastPathReadsEveryEntry(t *testing.T) {
	kinds := map[string]int{}
	for _, raw := range genJournal(t, filepath.Join(t.TempDir(), "jobs.jnl"), 150) {
		if !fastAgrees(t, raw) {
			t.Fatalf("fast path declined job log entry %s", raw)
		}
		d, _ := schema.Decode(raw, readDecision)
		kinds[d.Kind]++
		if d.Verdict != nil {
			kinds[d.Verdict.Tier]++
		}
	}
	for _, k := range []string{"decision", "release", "failed", schema.TierSim, schema.TierCache} {
		if kinds[k] == 0 {
			t.Fatalf("generated job log has no %s entry: %v", k, kinds)
		}
	}
}

// FuzzV1Decision holds the job log fast path to json.Unmarshal: on any
// bytes it declines, or it equals json.Unmarshal, which accepts them.
// It is seeded with a generated job log's entries.
func FuzzV1Decision(f *testing.F) {
	for _, raw := range genJournal(f, filepath.Join(f.TempDir(), "jobs.jnl"), 60) {
		f.Add(raw)
	}
	f.Add([]byte(`{"index":0,"kind":"decision","job_id":"job-000001","job_seq":1,"candidate":{"job_id":"job-000001","workload":"w"},"mix":[],"admitted":false,"verdict":{"decision":"reject","tier":"sim","confidence":1,"reason":"r","scheme":"s","mix_before":null,"candidate":{"workload":"w","is_qos":false,"ipc":1e21,"isolated_ipc":1e-7,"reached":false},"incumbents":[],"cycles":0}}`))
	f.Fuzz(func(t *testing.T, raw []byte) { fastAgrees(t, raw) })
}
