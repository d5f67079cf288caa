package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
)

// JobState is the lifecycle of a submitted job:
//
//	queued -> evaluating -> admitted -> released
//	                     -> rejected
//	                     -> failed
//
// Admitted jobs occupy a mix slot (and constrain every later admission
// decision) until the client releases them with DELETE /v1/jobs/{id}.
type JobState string

const (
	JobQueued     JobState = "queued"
	JobEvaluating JobState = "evaluating"
	JobAdmitted   JobState = "admitted"
	JobRejected   JobState = "rejected"
	JobFailed     JobState = "failed"
	JobReleased   JobState = "released"
)

// Event is one entry of a job's progress stream, delivered over SSE in
// emission order. Type is "state" for lifecycle transitions, "verdict"
// for the final admission decision, or a simulator trace-event name
// (epoch_roll, goal_check, ...) for epoch-level evidence forwarded from
// the what-if run. A buffered event holds its payload by reference where
// one exists already: a verdict event the job's own *Verdict, a state
// event a shared pre-encoded constant. Only trace evidence is encoded
// when it is emitted.
type Event struct {
	Seq     int
	Type    string
	data    json.RawMessage // the encoded payload; nil for a verdict event
	verdict *Verdict        // a verdict event's payload, encoded when sent
}

// Data returns the event's JSON payload, as an SSE stream sends it.
func (e Event) Data() json.RawMessage {
	if e.verdict == nil {
		return e.data
	}
	return encodeEvent(e.verdict)
}

// encodeEvent is an event payload's JSON; one that cannot be encoded is
// sent as {}.
func encodeEvent(v any) json.RawMessage {
	raw, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(`{}`)
	}
	return raw
}

// stateData holds each lifecycle state's event payload, encoded once.
var stateData = func() map[JobState]json.RawMessage {
	m := make(map[JobState]json.RawMessage)
	for _, s := range []JobState{JobQueued, JobEvaluating, JobAdmitted, JobRejected, JobFailed, JobReleased} {
		m[s] = encodeEvent(map[string]string{"state": string(s)})
	}
	return m
}()

// maxJobEvents caps each job's event buffer; the simulator can emit far
// more epoch events than any admission client wants to replay.
const maxJobEvents = 256

// job is the server-side record of one submission. Mutable state is
// guarded by mu; the identity fields are written once at submission (or
// journal recovery) and read freely.
type job struct {
	id   string
	seq  uint64
	name string
	spec core.KernelSpec
	req  KernelRequest

	mu      sync.Mutex
	state   JobState
	verdict *Verdict
	errMsg  string
	events  []Event
	subs    map[chan Event]struct{}
	// done closes when the job reaches a terminal decision (admitted,
	// rejected or failed), so clients can block instead of polling.
	done chan struct{}
}

func newJob(seq uint64, name string, spec core.KernelSpec, req KernelRequest) *job {
	return &job{
		id:    fmt.Sprintf("job-%06d", seq),
		seq:   seq,
		name:  name,
		spec:  spec,
		req:   req,
		state: JobQueued,
		done:  make(chan struct{}),
	}
}

// emit appends an event to the replay buffer (dropping oldest trace
// evidence beyond the cap, never the lifecycle events at the front) and
// fans it out to live subscribers. Slow subscribers lose events rather
// than stall the decision loop; SSE clients resync via the buffer.
func (j *job) emit(ev Event) {
	j.mu.Lock()
	ev.Seq = len(j.events)
	if len(j.events) < maxJobEvents {
		j.events = append(j.events, ev)
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// emitState emits the "state" event of s.
func (j *job) emitState(s JobState) {
	j.emit(Event{Type: "state", data: stateData[s]})
}

// setState transitions the job and emits the matching "state" event.
func (j *job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
	j.emitState(s)
}

// finish records the terminal decision and wakes waiters.
func (j *job) finish(s JobState, v *Verdict, err error) {
	j.mu.Lock()
	j.state = s
	j.verdict = v
	if err != nil {
		j.errMsg = err.Error()
	}
	j.mu.Unlock()
	j.emitState(s)
	if v != nil {
		j.emit(Event{Type: "verdict", verdict: v})
	}
	close(j.done)
}

// subscribe registers a live event channel and returns the replay
// snapshot taken atomically with the registration, so the caller sees
// every event exactly once (buffer first, then live).
func (j *job) subscribe(ch chan Event) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := append([]Event(nil), j.events...)
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	return snap
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// view renders the wire form.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:       j.id,
		Seq:      j.seq,
		Name:     j.name,
		State:    string(j.state),
		Kernel:   j.req,
		GoalIPC:  j.spec.GoalIPC,
		Verdict:  j.verdict,
		Error:    j.errMsg,
		Released: j.state == JobReleased,
	}
}

// jobStore indexes every job the daemon has ever seen this process
// lifetime (plus admitted jobs recovered from the journal).
type jobStore struct {
	mu   sync.Mutex
	byID map[string]*job
	next uint64
}

func newJobStore() *jobStore {
	return &jobStore{byID: make(map[string]*job), next: 1}
}

// create builds a job under the next sequence number and, if queue has
// room for it, queues the job, spends that number and registers it. It
// returns nil when queue is full: that job is never listed and takes no
// id, so a restarted daemon, which never saw it, cannot issue its id
// twice.
func (st *jobStore) create(name string, spec core.KernelSpec, req KernelRequest, queue chan<- *job) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := newJob(st.next, name, spec, req)
	select {
	case queue <- j:
	default:
		return nil
	}
	st.next++
	st.byID[j.id] = j
	return j
}

// adopt registers a recovered job and advances the sequence counter past
// it, so restarts never reuse ids.
func (st *jobStore) adopt(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.byID[j.id] = j
	if j.seq >= st.next {
		st.next = j.seq + 1
	}
}

// reserve advances the sequence counter past seq without registering a
// job. Recovery calls it for every log entry, a failed job's included,
// so a restarted daemon never reissues an id.
func (st *jobStore) reserve(seq uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seq >= st.next {
		st.next = seq + 1
	}
}

func (st *jobStore) get(id string) (*job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// list returns every job in sequence order.
func (st *jobStore) list() []*job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*job, 0, len(st.byID))
	for _, j := range st.byID {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}
