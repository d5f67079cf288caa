package fleet

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/schema"
)

// loop is the placement goroutine: the only writer of node capacity
// ledgers, the job store and the placement journal, which is what
// makes the placement sequence deterministic for a given submission
// order. It also asks every what-if question itself, serially: place
// asks the capacity-feasible nodes in best-fit order and stops at the
// first that admits.
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

// candidate is one capacity-feasible node for a pending job.
type candidate struct {
	n    *node
	spec core.KernelSpec
	left float64 // best-fit key: leftover capacity once the job is placed
}

// place decides one pending job: capacity filter, then the candidates'
// what-if checks in best-fit order (least leftover capacity first, ties
// to the lower node index) until one admits, then the repartition
// search, then rejection. The node that admits first in that order is
// the one best fit would pick among all admitting nodes, so asking the
// rest would only cost them a decision record each.
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
			cands = append(cands, candidate{n: n, spec: spec, left: n.leftover(j.shares)})
		}
	}
	if len(cands) == 0 && specErr != nil {
		// The request itself is unresolvable (e.g. infeasible deadline)
		// on every node: a request error, not a capacity rejection.
		j.finish(StateFailed, specErr.Error())
		return
	}
	// Stable: leftovers within capEps keep node order.
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].left < cands[b].left-capEps })

	var evalErr error
	rejected := 0
	for _, c := range cands {
		specs, ids := c.n.mixSnapshot("")
		v, idx, err := c.n.evaluate(append(specs, c.spec), append(ids, j.id), j.id)
		switch {
		case err != nil:
			if evalErr == nil {
				evalErr = err
			}
		case !v.IsAdmitted():
			rejected++
		default:
			if err := f.commitPlace(j, c.n, c.spec, v, idx, false); err != nil {
				j.finish(StateFailed, errors.Join(err, c.n.flush()).Error())
			}
			return
		}
	}

	if len(cands) > 0 && rejected == 0 && evalErr != nil {
		// Every feasible node failed to evaluate (simulator error, not
		// a QoS rejection): the job failed, it was not crowded out.
		f.fail(j, evalErr)
		return
	}

	if f.repartition(j) {
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

// fail ends a job whose what-ifs failed with cause. Its fail record
// carries the job's id and sequence alone, so a restarted fleet never
// issues the id again; no node record or capacity changes.
func (f *Fleet) fail(j *Job, cause error) {
	if err := f.appendPlacement(Placement{Kind: KindFail, JobID: j.id, JobSeq: j.seq}); err != nil {
		cause = errors.Join(cause, err)
	}
	j.finish(StateFailed, cause.Error())
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
				vm, im, err := alt.evaluate(append(specs, mSpec), append(ids, m.job.id), m.job.id)
				if err != nil || !vm.IsAdmitted() {
					continue
				}
				// Would dst admit the pending job once m is gone? If not,
				// alt's admit is carried by no record: flush it before the
				// search moves on.
				specs, ids = dst.mixSnapshot(m.job.id)
				vj, ij, err := dst.evaluate(append(specs, dstSpec), append(ids, j.id), j.id)
				if err != nil || !vj.IsAdmitted() {
					if err := alt.flush(); err != nil {
						j.finish(StateFailed, err.Error())
						return true
					}
					continue
				}
				if err := f.commitMigrate(m, dst, alt, mSpec, vm, im); err != nil {
					j.finish(StateFailed, errors.Join(err, alt.flush(), dst.flush()).Error())
					return true
				}
				if err := f.commitPlace(j, dst, dstSpec, vj, ij, true); err != nil {
					j.finish(StateFailed, errors.Join(err, dst.flush()).Error())
				}
				return true // outcome decided, do not fall through to reject
			}
		}
	}
	return false
}

// commitPlace makes a placement durable, then visible. Its record
// carries decision, the index of n's admitting decision record, and its
// flush is the one that makes that record durable. A placement the
// repartition search made room for is counted in Repartitions before
// the job is marked placed, so a caller woken by the job sees the count.
func (f *Fleet) commitPlace(j *Job, n *node, spec core.KernelSpec, v *schema.Verdict, decision int, repartitioned bool) error {
	if err := f.appendPlacement(Placement{
		Kind:     KindPlace,
		JobID:    j.id,
		JobSeq:   j.seq,
		Node:     n.id,
		Decision: &decision,
		Request:  j.req,
		Shares:   j.shares,
		Verdict:  v,
	}); err != nil {
		return err
	}
	n.add(j, spec, j.shares)
	if repartitioned {
		f.mu.Lock()
		f.repartitions++
		f.mu.Unlock()
	}
	j.setPlaced(n.id, v)
	return nil
}

// commitMigrate moves an admitted job between nodes; its record carries
// decision, the index of to's admitting decision record, as commitPlace's
// does.
func (f *Fleet) commitMigrate(m *placedEntry, from, to *node, spec core.KernelSpec, v *schema.Verdict, decision int) error {
	if err := f.appendPlacement(Placement{
		Kind:     KindMigrate,
		JobID:    m.job.id,
		JobSeq:   m.job.seq,
		Node:     to.id,
		From:     from.id,
		Decision: &decision,
		Request:  m.job.req,
		Shares:   m.shares,
		Verdict:  v,
	}); err != nil {
		return err
	}
	from.remove(m.job.id)
	to.add(m.job, spec, m.shares)
	m.job.setPlaced(to.id, v)
	return nil
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
		f.ctr.flushes.Add(1)
		if err := f.pj.Append(placementStage, p.Index, p.record()); err != nil {
			return fmt.Errorf("fleet: journal placement %d: %w", p.Index, err)
		}
	}
	f.mu.Lock()
	f.placements = append(f.placements, p)
	f.kinds[p.Kind]++
	f.mu.Unlock()
	return nil
}
