package server

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/schema"
)

// Sentinels of the serving layer. Together with the core and journal
// sentinels they form the daemon's error taxonomy; httpStatus is
// the single place any of them is translated to a status code.
var (
	// ErrQueueFull rejects a submission because the bounded admission
	// queue is at capacity. Clients should back off (429 + Retry-After).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrAdmissionRejected marks a job whose what-if co-run missed a QoS
	// goal: either the candidate cannot reach its own goal next to the
	// admitted mix, or admitting it would break an incumbent's goal.
	ErrAdmissionRejected = errors.New("server: admission rejected")
	// ErrUnknownJob is returned for job ids the store has never issued.
	ErrUnknownJob = errors.New("server: unknown job")
	// ErrDraining rejects work because the daemon is shutting down.
	ErrDraining = errors.New("server: draining")
	// ErrBadRequest wraps request validation failures (malformed JSON,
	// missing workload, conflicting goal fields).
	ErrBadRequest = errors.New("server: bad request")
	// ErrFleetDisabled rejects /v2 fleet requests on a daemon started
	// without a fleet (501: the capability is not configured here).
	ErrFleetDisabled = errors.New("server: fleet not configured")
)

// httpStatus maps every error the daemon can surface to its HTTP status
// code. This is the only place in the repository where errors become
// status codes; handlers must not hand-pick codes.
func httpStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrQueueFull), errors.Is(err, fleet.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrAdmissionRejected), errors.Is(err, fleet.ErrNoPlacement):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownJob),
		errors.Is(err, fleet.ErrUnknownJob),
		errors.Is(err, fleet.ErrUnknownNode):
		return http.StatusNotFound
	case errors.Is(err, ErrDraining), errors.Is(err, fleet.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrFleetDisabled):
		return http.StatusNotImplemented
	case errors.As(err, new(*http.MaxBytesError)):
		// Ahead of ErrBadRequest, which decodeBody also wraps it in.
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest),
		errors.Is(err, fleet.ErrBadRequest),
		errors.Is(err, core.ErrUnknownScheme),
		errors.Is(err, core.ErrUnknownWorkload),
		errors.Is(err, core.ErrBadGoal),
		errors.Is(err, schema.ErrBadGoal),
		errors.Is(err, schema.ErrVersion),
		errors.Is(err, journal.ErrVersion):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		// Simulator faults (core.PanicError) and anything unclassified
		// are internal failures.
		return http.StatusInternalServerError
	}
}
