package fleet

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/schema"
)

// loop is the placement goroutine: the only writer of node capacity
// ledgers, the job store and the placement journal, which is what
// makes the placement sequence deterministic for a given submission
// order. Nodes still evaluate what-if co-runs concurrently — place
// fans one candidate evaluation out to every capacity-feasible node,
// one goroutine each, and waits for all of them.
func (f *Fleet) loop() {
	defer close(f.loopDone)
	for o := range f.queue {
		if o.job != nil {
			f.place(o.job)
			continue
		}
		o.reply <- f.release(o.releaseID)
	}
}

// candidate is one node evaluated for a pending job.
type candidate struct {
	n    *node
	spec core.KernelSpec
	v    *schema.Verdict
	err  error
}

// place decides one pending job: capacity filter, concurrent what-if
// fan-out, policy pick (best-fit or first-fit), then the repartition
// fallback, then rejection.
func (f *Fleet) place(j *Job) {
	j.setState(StatePlacing)

	// Resolve the request per node configuration (deadline goals derive
	// different IPC targets on heterogeneous devices).
	cands := make([]candidate, 0, len(f.nodes))
	var specErr error
	for _, n := range f.nodes {
		spec, err := j.req.SpecFor(n.cfg)
		if err != nil {
			if specErr == nil {
				specErr = err
			}
			continue
		}
		if n.fits(j.shares) {
			cands = append(cands, candidate{n: n, spec: spec})
		}
	}
	if len(cands) == 0 && specErr != nil {
		// The request itself is unresolvable (e.g. infeasible deadline)
		// on every node: a request error, not a capacity rejection.
		j.finish(StateFailed, specErr.Error())
		return
	}

	// Concurrent what-if fan-out, one evaluation per node, so per-node
	// journal order stays deterministic.
	var wg sync.WaitGroup
	for i := range cands {
		c := &cands[i]
		specs, ids := c.n.mixSnapshot("")
		specs = append(specs, c.spec)
		ids = append(ids, j.id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.v, c.err = c.n.evaluate(specs, ids, j.id)
		}()
	}
	wg.Wait()

	var pick *candidate
	var evalErr error
	rejected := 0
	for i := range cands {
		c := &cands[i]
		if c.err != nil {
			if evalErr == nil {
				evalErr = c.err
			}
			continue
		}
		if !c.v.IsAdmitted() {
			rejected++
			continue
		}
		if pick == nil {
			pick = c
			if f.firstFit {
				break
			}
			continue
		}
		if !f.firstFit && c.n.leftover(j.shares) < pick.n.leftover(j.shares)-capEps {
			pick = c
		}
	}

	if pick != nil {
		if err := f.commitPlace(j, pick.n, pick.spec, pick.v); err != nil {
			j.finish(StateFailed, err.Error())
		}
		return
	}
	if len(cands) > 0 && rejected == 0 && evalErr != nil {
		// Every feasible node failed to evaluate (simulator error, not
		// a QoS rejection): the job failed, it was not crowded out.
		j.finish(StateFailed, evalErr.Error())
		return
	}

	if !f.noRepart && f.repartition(j) {
		return
	}

	reason := "no node with free fractional capacity"
	if rejected > 0 {
		reason = fmt.Sprintf("%d capacity-feasible node(s) denied admission under scheme %s", rejected, f.scheme.Name())
	}
	if err := f.appendPlacement(Placement{
		Kind:    KindReject,
		JobID:   j.id,
		JobSeq:  j.seq,
		Request: j.req,
		Shares:  j.shares,
		Reason:  reason,
	}); err != nil {
		j.finish(StateFailed, err.Error())
		return
	}
	j.finish(StateRejected, reason)
}

// repartition runs the single-move search: find an admitted job m on a
// destination node dst such that (a) moving m to some other node alt
// keeps m's QoS goal satisfied there, and (b) dst without m admits the
// pending job. The scan order (dst index, m admission order, alt
// index) is fixed and every what-if is evaluated synchronously, so the
// search is deterministic; the first feasible move wins.
func (f *Fleet) repartition(j *Job) bool {
	for _, dst := range f.nodes {
		dstSpec, err := j.req.SpecFor(dst.cfg)
		if err != nil {
			continue
		}
		for _, m := range dst.entries() {
			if !dst.fitsWithout(m.job.id, j.shares) {
				continue
			}
			for _, alt := range f.nodes {
				if alt == dst || !alt.fits(m.shares) {
					continue
				}
				mSpec, err := m.job.req.SpecFor(alt.cfg)
				if err != nil {
					continue
				}
				// Would alt admit the migrated job?
				specs, ids := alt.mixSnapshot("")
				vm, err := alt.evaluate(append(specs, mSpec), append(ids, m.job.id), m.job.id)
				if err != nil || !vm.IsAdmitted() {
					continue
				}
				// Would dst admit the pending job once m is gone?
				specs, ids = dst.mixSnapshot(m.job.id)
				vj, err := dst.evaluate(append(specs, dstSpec), append(ids, j.id), j.id)
				if err != nil || !vj.IsAdmitted() {
					continue
				}
				if !f.commitMigrate(m, dst, alt, mSpec, vm) {
					return false
				}
				if err := f.commitPlace(j, dst, dstSpec, vj); err != nil {
					j.finish(StateFailed, err.Error())
					return true // outcome decided, do not fall through to reject
				}
				f.mu.Lock()
				f.repartitions++
				f.mu.Unlock()
				return true
			}
		}
	}
	return false
}

// commitPlace makes a placement durable, then visible.
func (f *Fleet) commitPlace(j *Job, n *node, spec core.KernelSpec, v *schema.Verdict) error {
	if err := f.appendPlacement(Placement{
		Kind:    KindPlace,
		JobID:   j.id,
		JobSeq:  j.seq,
		Node:    n.id,
		Request: j.req,
		Shares:  j.shares,
		Verdict: v,
	}); err != nil {
		return err
	}
	n.add(j, spec, j.shares)
	j.setPlaced(n.id, v)
	return nil
}

// commitMigrate moves an admitted job between nodes.
func (f *Fleet) commitMigrate(m *placedEntry, from, to *node, spec core.KernelSpec, v *schema.Verdict) bool {
	if err := f.appendPlacement(Placement{
		Kind:    KindMigrate,
		JobID:   m.job.id,
		JobSeq:  m.job.seq,
		Node:    to.id,
		From:    from.id,
		Request: m.job.req,
		Shares:  m.shares,
		Verdict: v,
	}); err != nil {
		return false
	}
	from.remove(m.job.id)
	to.add(m.job, spec, m.shares)
	m.job.setPlaced(to.id, v)
	return true
}

// release evicts a placed job (runs on the placement goroutine).
func (f *Fleet) release(id string) error {
	j, ok := f.store.get(id)
	if !ok {
		return ErrUnknownJob
	}
	view := j.View()
	if view.State != StatePlaced {
		return fmt.Errorf("%w: job %s is %s, not placed", ErrBadRequest, id, view.State)
	}
	n := f.nodeByID(view.Node)
	if n == nil {
		return fmt.Errorf("%w: %q", ErrUnknownNode, view.Node)
	}
	if err := f.appendPlacement(Placement{
		Kind:    KindRelease,
		JobID:   j.id,
		JobSeq:  j.seq,
		Node:    n.id,
		Request: j.req,
		Shares:  j.shares,
	}); err != nil {
		return err
	}
	n.remove(j.id)
	j.setReleased()
	return nil
}

// appendPlacement assigns the next index, journals the record (when
// journaling is on) and publishes it to the in-memory sequence.
func (f *Fleet) appendPlacement(p Placement) error {
	f.mu.Lock()
	p.Index = f.nextPlace
	f.nextPlace++
	f.mu.Unlock()
	if f.pj != nil {
		if err := f.pj.Append(placementStage, p.Index, p); err != nil {
			return fmt.Errorf("fleet: journal placement %d: %w", p.Index, err)
		}
	}
	f.mu.Lock()
	f.placements = append(f.placements, p)
	f.mu.Unlock()
	return nil
}
