package fleet

import (
	"fmt"
	"sync"

	"repro/internal/schema"
)

// Job states. A job moves queued → placing → placed | rejected |
// failed, and a placed job may later become released. A placed job may
// migrate between nodes (repartitioning) without changing state.
const (
	StateQueued   = "queued"
	StatePlacing  = "placing"
	StatePlaced   = "placed"
	StateRejected = "rejected"
	StateFailed   = "failed"
	StateReleased = "released"
)

// Job is one fractional-GPU job owned by the fleet. All mutation
// happens on the placement goroutine (or, during recovery, before any
// goroutine starts); readers go through View/Done.
type Job struct {
	id     string
	seq    int
	req    Request
	shares Shares

	mu      sync.Mutex
	state   string
	node    string // hosting node id while placed/released
	verdict *schema.Verdict
	errMsg  string
	done    chan struct{}
}

// JobView is the wire-ready snapshot of a job.
type JobView struct {
	ID      string          `json:"id"`
	Name    string          `json:"name,omitempty"`
	State   string          `json:"state"`
	Node    string          `json:"node,omitempty"`
	Request Request         `json:"request"`
	Shares  Shares          `json:"shares"`
	Verdict *schema.Verdict `json:"verdict,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// ID returns the fleet-issued job id.
func (j *Job) ID() string { return j.id }

// Done is closed once the job reaches a terminal placement outcome
// (placed, rejected or failed). Release does not reopen it.
func (j *Job) Done() <-chan struct{} { return j.done }

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.id,
		Name:    j.req.Name,
		State:   j.state,
		Node:    j.node,
		Request: j.req,
		Shares:  j.shares,
		Error:   j.errMsg,
	}
	if j.verdict != nil {
		c := *j.verdict
		v.Verdict = &c
	}
	return v
}

func (j *Job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// setPlaced records a successful placement (or migration) on node.
func (j *Job) setPlaced(node string, v *schema.Verdict) {
	j.mu.Lock()
	first := j.state != StatePlaced
	j.state = StatePlaced
	j.node = node
	j.verdict = v
	j.mu.Unlock()
	if first {
		close(j.done)
	}
}

// finish records a terminal failure outcome.
func (j *Job) finish(state, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.mu.Unlock()
	close(j.done)
}

// setReleased marks a placed job released.
func (j *Job) setReleased() {
	j.mu.Lock()
	j.state = StateReleased
	j.mu.Unlock()
}

// jobStore issues ids and keeps the job index. Sequence numbers are
// part of the deterministic replay contract: recovery reserves the
// sequences found in the placement journal so restarted fleets keep
// issuing the same ids for the same submission order.
type jobStore struct {
	mu   sync.Mutex
	next int
	jobs map[string]*Job
	ids  []string // issue order, for List
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*Job)}
}

func fleetJobID(seq int) string { return fmt.Sprintf("vjob-%06d", seq) }

// create issues the next id and registers a queued job.
func (s *jobStore) create(req Request, shares Shares) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.next
	s.next++
	j := &Job{
		id:     fleetJobID(seq),
		seq:    seq,
		req:    req,
		shares: shares,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.ids = append(s.ids, j.id)
	return j
}

// adopt registers a job recovered from the placement journal under its
// original sequence number and advances the id counter past it.
func (s *jobStore) adopt(seq int, req Request, shares Shares) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := &Job{
		id:     fleetJobID(seq),
		seq:    seq,
		req:    req,
		shares: shares,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.ids = append(s.ids, j.id)
	if seq >= s.next {
		s.next = seq + 1
	}
	return j
}

// get looks up a job by id.
func (s *jobStore) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list snapshots all jobs in issue order.
func (s *jobStore) list() []JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.ids...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.View())
	}
	return out
}
