package stream

import (
	"context"
	"errors"

	"repro/internal/schema"
	"repro/internal/server"
)

// ServerBackend submits arrivals to an in-process qosd decision loop
// via server.Drive — no listener, no transport, same decision path and
// journal as /v1. This is the backend of `stream -mode drive` and of
// the replay-determinism gate.
type ServerBackend struct {
	Server *server.Server
}

// Submit drives one arrival through the decision loop.
func (b ServerBackend) Submit(ctx context.Context, a Arrival) (Outcome, error) {
	req := server.JobRequest{
		Name:   a.Tenant,
		Kernel: server.KernelRequest{Workload: a.Workload},
	}
	if !a.Goal.IsZero() {
		g := a.Goal
		req.Kernel.Goal = &g
	}
	view, err := b.Server.Drive(ctx, req)
	switch {
	case err == nil:
	case errors.Is(err, server.ErrQueueFull):
		return Outcome{State: StateThrottled}, nil
	default:
		return Outcome{}, err
	}
	return outcomeFromStates(view.ID, view.State, view.Verdict), nil
}

// Release frees an admitted job's slot.
func (b ServerBackend) Release(ctx context.Context, jobID string) error {
	_, err := b.Server.ReleaseJob(jobID)
	return err
}

// outcomeFromStates maps a v1 job state (or the fleet's equivalent) to
// an Outcome.
func outcomeFromStates(id, state string, v *schema.Verdict) Outcome {
	out := Outcome{JobID: id, Verdict: v}
	switch state {
	case string(server.JobAdmitted), "placed":
		out.State = StateAdmitted
	case string(server.JobRejected):
		out.State = StateRejected
	default:
		out.State = StateFailed
	}
	return out
}
