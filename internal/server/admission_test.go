package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/trace"
)

// submitWait drives one admission decision through the internal API and
// returns the job after its verdict.
func submitWait(t *testing.T, s *Server, req JobRequest) *job {
	t.Helper()
	j, err := s.submit(req)
	if err != nil {
		t.Fatalf("submit %+v: %v", req, err)
	}
	select {
	case <-j.done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s never decided", j.id)
	}
	return j
}

func qos(w string, frac float64) JobRequest {
	return JobRequest{Kernel: KernelRequest{Workload: w, GoalFrac: frac}}
}

func be(w string) JobRequest { // best effort (non-QoS)
	return JobRequest{Kernel: KernelRequest{Workload: w}}
}

// TestAdmissionTable walks known mixes through the controller. The
// expected verdicts come from measured simulator behavior on the paper's
// 16-SM device over a 30k-cycle window under rollover — the same
// config/scheme/seed the golden rollover trace fixture is generated
// from, where sgemm@0.95+lbm reaches its goal.
func TestAdmissionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg16(t)
	steps := []struct {
		name    string
		req     JobRequest
		admit   bool
		release []int // indices of earlier steps to release first
	}{
		// A demanding QoS kernel alone, then one best-effort co-runner:
		// both fit (the golden-fixture pair).
		{"sgemm95-alone", qos("sgemm", 0.95), true, nil},
		{"lbm-fits", be("lbm"), true, nil},
		// A second best-effort kernel steals enough bandwidth that the
		// incumbent's 95% goal breaks: reject, mix unchanged.
		{"histo-breaks-incumbent", be("histo"), false, nil},
		// A QoS candidate whose own admission would break the incumbent
		// is rejected even though it reaches its own goal.
		{"qos-candidate-breaks-incumbent", qos("lbm", 0.50), false, []int{1}},
		// With the demanding incumbent gone, a modest mix admits fully.
		{"sgemm50", qos("sgemm", 0.50), true, []int{0}},
		{"lbm-again", be("lbm"), true, nil},
		{"histo-fits-now", be("histo"), true, nil},
	}
	s := testServer(t, Config{})
	jobs := make([]*job, len(steps))
	for i, st := range steps {
		for _, r := range st.release {
			if _, err := s.release(jobs[r].id); err != nil {
				t.Fatalf("%s: release step %d: %v", st.name, r, err)
			}
		}
		j := submitWait(t, s, st.req)
		jobs[i] = j
		v := j.view()
		if (v.State == string(JobAdmitted)) != st.admit {
			t.Fatalf("%s: state %s (verdict %+v), want admitted=%v", st.name, v.State, v.Verdict, st.admit)
		}
		if v.Verdict == nil || v.Verdict.IsAdmitted() != st.admit {
			t.Fatalf("%s: verdict = %+v", st.name, v.Verdict)
		}
		if !st.admit && v.Verdict.Reason == "" {
			t.Fatalf("%s: rejection carries no reason", st.name)
		}
	}
	// Final mix: sgemm@0.50 + lbm + histo.
	if mix := s.Mix(); len(mix) != 3 {
		t.Fatalf("final mix = %v", mix)
	}
	// Every decision is on the log, in order, with evidence.
	decs := s.Decisions()
	if len(decs) != len(steps)+2 { // 7 decisions + 2 releases
		t.Fatalf("decision log has %d entries", len(decs))
	}
	for i, d := range decs {
		if d.Index != i {
			t.Fatalf("decision %d has index %d", i, d.Index)
		}
	}
}

// TestAdmissionDeadlineGoal submits a deadline-form job and checks the
// controller translated it through core.IPCGoalForDeadline.
func TestAdmissionDeadlineGoal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{})
	cfg := cfg16(t)
	// A deadline chosen to land on a modest absolute IPC goal.
	instrs, seconds := int64(3_000_000), 200e-6
	wantIPC, err := core.IPCGoalForDeadline(cfg, instrs, seconds)
	if err != nil {
		t.Fatal(err)
	}
	j := submitWait(t, s, JobRequest{Kernel: KernelRequest{
		Workload: "sgemm",
		Deadline: &DeadlineRequest{Instrs: instrs, Seconds: seconds},
	}})
	if j.spec.GoalIPC != wantIPC {
		t.Fatalf("GoalIPC = %v, want %v", j.spec.GoalIPC, wantIPC)
	}
	v := j.view()
	if v.Verdict == nil || v.Verdict.Candidate.GoalIPC != wantIPC || !v.Verdict.Candidate.IsQoS {
		t.Fatalf("verdict = %+v", v.Verdict)
	}
}

// TestJournalRecovery restarts the daemon on its job log: the admitted
// mix must be re-occupied (same ids, verdicts preserved), the sequence
// counter must advance past recovered jobs, and a daemon configured
// differently must refuse the log.
func TestJournalRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	path := filepath.Join(t.TempDir(), "qosd.journal")

	s1 := testServer(t, Config{JournalPath: path})
	a := submitWait(t, s1, qos("sgemm", 0.95))
	b := submitWait(t, s1, be("lbm"))
	rejected := submitWait(t, s1, be("histo"))
	if a.view().State != string(JobAdmitted) || b.view().State != string(JobAdmitted) ||
		rejected.view().State != string(JobRejected) {
		t.Fatalf("fixture states: %s %s %s", a.view().State, b.view().State, rejected.view().State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart: the admitted contracts come back, the rejected one stays
	// decided-but-gone from the mix.
	s2 := testServer(t, Config{JournalPath: path})
	if mix := s2.Mix(); len(mix) != 2 || mix[0] != a.id || mix[1] != b.id {
		t.Fatalf("recovered mix = %v, want [%s %s]", mix, a.id, b.id)
	}
	ra, err := s2.store.get(a.id)
	if err != nil {
		t.Fatal(err)
	}
	if v := ra.view(); v.State != string(JobAdmitted) || v.Verdict == nil || !v.Verdict.IsAdmitted() {
		t.Fatalf("recovered job = %+v", v)
	}
	if len(s2.Decisions()) != 3 {
		t.Fatalf("recovered %d decisions", len(s2.Decisions()))
	}
	// New submissions continue against the recovered mix with fresh ids:
	// histo must still be rejected by the same incumbents.
	again := submitWait(t, s2, be("histo"))
	if again.id == rejected.id || again.seq <= rejected.seq {
		t.Fatalf("recovered daemon reused id/seq: %s/%d vs %s/%d", again.id, again.seq, rejected.id, rejected.seq)
	}
	if again.view().State != string(JobRejected) {
		t.Fatalf("histo against recovered mix = %s", again.view().State)
	}
	// A released slot is recorded too: restart no. 3 must not resurrect it.
	if _, err := s2.release(a.id); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}
	s3 := testServer(t, Config{JournalPath: path})
	if mix := s3.Mix(); len(mix) != 1 || mix[0] != b.id {
		t.Fatalf("third-start mix = %v, want [%s]", mix, b.id)
	}

	// A daemon with different admission parameters must refuse the log
	// rather than resurrect contracts it would evaluate differently.
	r, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithWindow(30_000)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Runner: r, MaxMix: 5, JournalPath: path}); err == nil {
		t.Fatal("mismatched configuration accepted the job log")
	}
}

// TestRestartContinuesByteIdentical: a daemon stopped and restarted on
// its journal recovers the verdict cache along with the admitted mix, so
// it decides what comes next from the same tiers as a daemon that never
// stopped — and extends the journal with the same bytes. Every admitted
// job is released at once, so the mixes repeat and the tail's first two
// decisions are cache hits on verdicts decided before the restart.
func TestRestartContinuesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	head := []JobRequest{qos("sgemm", 0.5), be("lbm"), qos("sgemm", 0.5)}
	tail := []JobRequest{be("lbm"), qos("sgemm", 0.5), be("histo")}
	drive := func(s *Server, reqs []JobRequest) (tiers []string) {
		for _, req := range reqs {
			j := submitWait(t, s, req)
			v := j.view()
			if v.Verdict == nil {
				t.Fatalf("%+v: no verdict: %+v", req, v)
			}
			tiers = append(tiers, v.Verdict.Tier)
			if v.State == string(JobAdmitted) {
				if _, err := s.release(j.id); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tiers
	}
	stop := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	whole, split := filepath.Join(dir, "whole.journal"), filepath.Join(dir, "split.journal")

	s := testServer(t, Config{FastPath: true, JournalPath: whole})
	drive(s, head)
	wantTiers := drive(s, tail)
	stop(s)
	if fmt.Sprint(wantTiers) != "[cache cache sim]" {
		t.Fatalf("uninterrupted tail decided by %v, want [cache cache sim]: the fixture no longer revisits decided mixes", wantTiers)
	}

	s = testServer(t, Config{FastPath: true, JournalPath: split})
	drive(s, head)
	stop(s)
	s = testServer(t, Config{FastPath: true, JournalPath: split})
	gotTiers := drive(s, tail)
	stop(s)
	if fmt.Sprint(gotTiers) != fmt.Sprint(wantTiers) {
		t.Errorf("restarted daemon decided the tail by %v, uninterrupted by %v", gotTiers, wantTiers)
	}

	want, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(split)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal across a restart (%d bytes) differs from the uninterrupted daemon's (%d bytes)", len(got), len(want))
	}
}

// TestWhatIfTraceKeepsWholeWindow: at qosd's default 200 K-cycle window
// a tpacf candidate beside sgemm:0.7 and lbm emits 15 235 trace events,
// almost four times what a 4 096-event ring holds. The what-if's ring
// keeps every one, so the candidate's SSE evidence starts at epoch 0's
// quota grant and sim_trace_events counts everything the run emitted.
func TestWhatIfTraceKeepsWholeWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := testServer(t, Config{}, exp.WithSessionOptions(core.WithWindow(200_000)))
	var last *trace.Tracer
	sim := s.sim
	s.sim = func(ctx context.Context, specs []core.KernelSpec, scheme core.Scheme, tr *trace.Tracer) (*core.Result, error) {
		last = tr
		return sim(ctx, specs, scheme, tr)
	}
	for _, req := range []JobRequest{qos("sgemm", 0.7), be("lbm")} {
		if j := submitWait(t, s, req); j.view().State != string(JobAdmitted) {
			t.Fatalf("%s = %+v, want admitted", req.Kernel.Workload, j.view())
		}
	}
	before := counter(s, "sim_trace_events")
	j := submitWait(t, s, be("tpacf"))

	emitted := int64(last.Len()) + last.Dropped()
	if last.Dropped() != 0 || emitted <= 1<<12 {
		t.Fatalf("the what-if emitted %d events and its ring dropped %d; want more than 4096, none dropped", emitted, last.Dropped())
	}
	if got := counter(s, "sim_trace_events") - before; got != emitted {
		t.Fatalf("sim_trace_events grew by %d, the what-if emitted %d", got, emitted)
	}
	for _, ev := range j.subscribe(make(chan Event)) {
		if ev.Type == "state" || ev.Type == "verdict" {
			continue
		}
		var data struct{ Epoch int }
		if err := json.Unmarshal(ev.Data(), &data); err != nil {
			t.Fatal(err)
		}
		if ev.Type != trace.KindQuotaGrant.String() || data.Epoch != 0 {
			t.Fatalf("first forwarded evidence is %s of epoch %d, want epoch 0's %s", ev.Type, data.Epoch, trace.KindQuotaGrant)
		}
		return
	}
	t.Fatal("the candidate's stream holds no trace evidence")
}
