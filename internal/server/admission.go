package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/verdict"
)

// The admission controller. Decisions are made by ONE goroutine
// (decisionLoop) in strict submission order: given the same decision log
// (candidate + mix snapshot per entry), a serial replay through the same
// tiered decision path (see tiers.go and Replayer) reproduces every
// verdict — and its deciding tier — bit for bit, because the simulator
// is deterministic under a fixed seed and the verdict cache evolves
// through the same serial access sequence. The soak test exploits
// exactly this.

// MixEntry is the journaled form of one kernel of an admission snapshot,
// shared with the fleet's node journals (verdict.MixEntry).
type MixEntry = verdict.MixEntry

func mixEntry(j *job) MixEntry {
	return MixEntry{JobID: j.id, Workload: j.spec.Workload, GoalFrac: j.spec.GoalFrac, GoalIPC: j.spec.GoalIPC}
}

// Decision is one entry of the decision log — the daemon's crash-safe
// record of every admission verdict and release, journaled under stage
// "jobs" keyed by Index. Kind "decision" entries carry the full what-if
// evidence; Kind "release" entries free the job's mix slot; Kind
// "failed" entries name a job whose what-if failed (no verdict), so a
// restarted daemon never issues its id again.
type Decision struct {
	Index     int        `json:"index"`
	Kind      string     `json:"kind"` // "decision" | "release" | "failed"
	JobID     string     `json:"job_id"`
	JobSeq    uint64     `json:"job_seq"`
	Name      string     `json:"name,omitempty"`
	Candidate MixEntry   `json:"candidate"`
	Mix       []MixEntry `json:"mix,omitempty"`
	Admitted  bool       `json:"admitted,omitempty"`
	Verdict   *Verdict   `json:"verdict,omitempty"`
}

// readDecision reads a Decision on the schema.Cursor fast path.
func readDecision(c *schema.Cursor) Decision {
	var d Decision
	c.Open()
	d.Index = c.Key("index").Int()
	d.Kind = c.Key("kind").String()
	d.JobID = c.Key("job_id").String()
	d.JobSeq = c.Key("job_seq").Uint64()
	d.Name = c.Opt("name").String()
	d.Candidate = verdict.ReadMixEntry(c.Key("candidate"))
	d.Mix = schema.ReadArray(c.Opt("mix"), verdict.ReadMixEntry)
	d.Admitted = c.Opt("admitted").Bool()
	d.Verdict = schema.ReadVerdict(c.Opt("verdict"))
	c.Close()
	return d
}

// decisionLoop is the admission controller: it serializes every decision
// so verdicts depend only on submission order, never on goroutine
// scheduling. It exits when the submit queue is closed (drain) and every
// queued job has been decided.
func (s *Server) decisionLoop() {
	defer close(s.loopDone)
	for j := range s.queue {
		// A full mix waits for a client to release a slot, which is no
		// stall: the daemon is healthy however long that takes.
		if err := s.waitSlot(); err != nil {
			j.finish(JobFailed, nil, err)
			s.count("jobs_failed", 1)
			continue
		}
		// Liveness: from here the decision is the daemon's own work, so
		// mark it in flight before anything that can block (the test
		// gate, the evaluation, the journal) and the /healthz watchdog
		// sees a wedged loop no matter where it wedged.
		s.decidingSinceNs.Store(s.now().UnixNano())
		if s.gate != nil {
			// Test hook: hold the next decision until the test releases it,
			// making queue-overflow (429) behavior deterministic.
			<-s.gate
		}
		state, v, err := s.evaluate(j)
		// The loop is idle once a verdict is visible: clear the mark
		// before finish wakes the job's waiters, so a client that reads
		// /healthz right after its verdict never sees it in flight.
		s.markProgress()
		j.finish(state, v, err)
	}
}

// markProgress records a completed decision for the /healthz watchdog:
// the loop is idle again and last progress is now.
func (s *Server) markProgress() {
	s.lastProgressNs.Store(s.now().UnixNano())
	s.decidingSinceNs.Store(0)
}

// waitSlot blocks until the admitted mix has room for one more kernel,
// consuming release signals. A forced shutdown aborts the wait.
func (s *Server) waitSlot() error {
	for {
		s.mixMu.Lock()
		free := len(s.mix) < s.maxMix
		s.mixMu.Unlock()
		if free {
			return nil
		}
		select {
		case <-s.slotFree:
		case <-s.baseCtx.Done():
			return fmt.Errorf("%w: no mix slot freed before shutdown", ErrDraining)
		}
	}
}

// evaluate decides one job through the tiered path (verdict.Decider):
// exact verdict cache, then on a miss the guarded what-if co-run
// (admitted mix + candidate) on the daemon's session. It returns the
// job's final state for the caller to finish it with. A failed
// evaluation — a simulator error, a panic or an expired EvalTimeout —
// fails the job and records only that: a "failed" entry with the job's
// id and candidate, which holds the id against reuse after a restart.
// Mix and cache are what they would be had the job never arrived.
func (s *Server) evaluate(j *job) (JobState, *Verdict, error) {
	start := time.Now()
	j.setState(JobEvaluating)
	s.mixMu.Lock()
	entries := make([]MixEntry, len(s.mix))
	for i, m := range s.mix {
		entries[i] = mixEntry(m)
	}
	s.mixMu.Unlock()
	d := Decision{Kind: "decision", JobID: j.id, JobSeq: j.seq, Name: j.name, Candidate: mixEntry(j), Mix: entries}
	specs, ids := verdict.MixSpecs(d.Mix, d.Candidate)

	// The sim tier, run only on a cache miss: a traced co-run, its
	// counters absorbed and the candidate's epoch-level evidence
	// forwarded to the job's SSE stream.
	v, cacheMiss, err := s.dec.Decide(s.baseCtx, specs, ids, func(ctx context.Context, scheme core.Scheme) (*core.Result, error) {
		tr := trace.New(trace.DefaultRingSize)
		s.count("evaluations", 1)
		res, err := s.sim(ctx, specs, scheme, tr)
		if err != nil {
			return nil, err
		}
		s.absorbRun(tr, res)
		s.forwardTrace(j, tr, len(specs)-1)
		return res, nil
	})
	if cacheMiss {
		s.count("verdict_cache_misses", 1)
	}
	if err != nil {
		s.count("jobs_failed", 1)
		s.record(Decision{Kind: "failed", JobID: j.id, JobSeq: j.seq, Candidate: mixEntry(j)})
		return JobFailed, nil, err
	}
	s.count("verdicts_tier_"+v.Tier, 1)
	d.Admitted, d.Verdict = v.IsAdmitted(), v
	s.record(d)
	s.observeLatency(v.Tier, time.Since(start))
	if v.IsAdmitted() {
		s.mixMu.Lock()
		s.mix = append(s.mix, j)
		n := len(s.mix)
		s.mixMu.Unlock()
		s.gauge("mix_size", float64(n))
		s.count("jobs_admitted", 1)
		return JobAdmitted, v, nil
	}
	s.count("jobs_rejected", 1)
	return JobRejected, v, fmt.Errorf("%w: %s", ErrAdmissionRejected, v.Reason)
}

// release frees an admitted job's mix slot (DELETE /v1/jobs/{id}). Only
// admitted jobs hold slots; anything else is a client error.
func (s *Server) release(id string) (*job, error) {
	j, err := s.store.get(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	if j.state != JobAdmitted {
		st := j.state
		j.mu.Unlock()
		return nil, fmt.Errorf("%w: job %s is %s, only admitted jobs hold a mix slot", ErrBadRequest, id, st)
	}
	j.state = JobReleased
	j.mu.Unlock()

	s.mixMu.Lock()
	for i, m := range s.mix {
		if m.id == id {
			s.mix = append(s.mix[:i], s.mix[i+1:]...)
			break
		}
	}
	n := len(s.mix)
	s.mixMu.Unlock()
	s.gauge("mix_size", float64(n))
	select {
	case s.slotFree <- struct{}{}:
	default:
	}
	j.emitState(JobReleased)
	s.count("jobs_released", 1)
	s.record(Decision{Kind: "release", JobID: j.id, JobSeq: j.seq, Candidate: mixEntry(j)})
	return j, nil
}

// record appends one entry to the decision log and, when a job log is
// configured, journals it. Journal write failures must not un-decide an
// admission that already happened; they are surfaced as a counter (and
// the next restart simply recovers less).
func (s *Server) record(d Decision) {
	s.decMu.Lock()
	d.Index = len(s.decisions)
	s.decisions = append(s.decisions, d)
	jnl := s.jnl
	s.decMu.Unlock()
	if jnl != nil {
		if err := jnl.Append(jobStage, d.Index, d); err != nil {
			s.count("journal_errors", 1)
		}
	}
}

// Decisions returns the decision log in order, including entries
// recovered from the journal at startup.
func (s *Server) Decisions() []Decision {
	s.decMu.Lock()
	defer s.decMu.Unlock()
	return append([]Decision(nil), s.decisions...)
}

// jobStage keys the daemon's entries inside the decision journal.
const jobStage = "jobs"

// recoverJournal rebuilds the admitted mix and the verdict cache from a
// prior process's decision log: decisions admitted and never released
// re-occupy their slots (states, verdicts and ids included), so a
// restarted daemon keeps honoring the QoS contracts it already accepted;
// every logged verdict is restored into the decider, so what comes next
// is decided by the same tier, and journaled as the same bytes, as in a
// daemon that never stopped. Queued-but-undecided jobs, and jobs whose
// evaluation failed, are not recovered — they never received a verdict —
// but every logged entry's sequence is reserved, a failed job's
// included, so no id is issued twice.
func (s *Server) recoverJournal() error {
	admitted := make(map[string]Decision)
	var order []string
	err := s.jnl.Each(jobStage, func(i int, raw json.RawMessage) error {
		d, err := schema.Decode(raw, readDecision)
		if err != nil {
			return fmt.Errorf("server: job log entry %d: %w", i, err)
		}
		s.decisions = append(s.decisions, d)
		s.store.reserve(d.JobSeq)
		switch d.Kind {
		case "decision":
			if d.Verdict != nil {
				specs, ids := verdict.MixSpecs(d.Mix, d.Candidate)
				if _, _, err := s.dec.Restore(specs, ids, d.Verdict); err != nil {
					return fmt.Errorf("server: job log entry %d: %w", i, err)
				}
			}
			if d.Admitted {
				admitted[d.JobID] = d
				order = append(order, d.JobID)
			}
		case "release":
			delete(admitted, d.JobID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, id := range order {
		d, ok := admitted[id]
		if !ok {
			continue
		}
		req := KernelRequest{Workload: d.Candidate.Workload, GoalFrac: d.Candidate.GoalFrac, GoalIPC: d.Candidate.GoalIPC}
		j := newJob(d.JobSeq, d.Name, d.Candidate.Spec(), req)
		s.store.adopt(j)
		s.mix = append(s.mix, j)
		j.finish(JobAdmitted, d.Verdict, nil)
	}
	s.gauge("mix_size", float64(len(s.mix)))
	return nil
}

// absorbRun folds one what-if run's simulator counters into the
// server-wide registry (sim_ prefix), so /metrics exposes cumulative
// epoch counts etc. across all evaluations.
func (s *Server) absorbRun(tr *trace.Tracer, res *core.Result) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	for _, c := range tr.Registry().Counters() {
		s.reg.Counter("sim_" + c.Name()).Add(c.Value())
	}
	s.reg.Counter("sim_cycles").Add(res.Cycles)
	s.reg.Counter("sim_trace_events").Add(int64(tr.Len()) + tr.Dropped())
}

// maxForwardedEvents caps the epoch-level evidence forwarded onto a
// job's SSE stream per evaluation.
const maxForwardedEvents = 32

// forwardTrace turns the candidate slot's epoch-level control decisions
// (epoch rolls, quota grants, goal checks) into job events, so an SSE
// client watches its kernel's QoS trajectory inside the what-if run.
func (s *Server) forwardTrace(j *job, tr *trace.Tracer, slot int) {
	n := 0
	tr.Each(func(ev trace.Event) bool {
		if int(ev.Slot) != slot {
			return true
		}
		switch ev.Kind {
		case trace.KindEpochRoll, trace.KindQuotaGrant, trace.KindGoalCheck:
		default:
			return true
		}
		j.emit(Event{Type: ev.Kind.String(), data: encodeEvent(map[string]any{
			"cycle": ev.Cycle,
			"epoch": ev.Epoch,
			"a":     ev.A,
			"b":     ev.B,
		})})
		n++
		return n < maxForwardedEvents
	})
}
