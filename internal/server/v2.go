// The /v2 API scales the daemon from one simulated GPU to a fleet:
// jobs carry fractional-GPU requests (gpu_fraction / vgpu_cores /
// vgpu_memory plus the typed goal union) and are bin-packed across N
// nodes by internal/fleet's deterministic placement scheduler, with
// per-node tiered admission and a nos-style repartitioning fallback.
//
//	POST   /v2/jobs        submit a fractional job (202 + job view;
//	                       ?wait=1 blocks until placed, 200)
//	GET    /v2/jobs        list jobs
//	GET    /v2/jobs/{id}   job view (?wait=1 blocks until placed)
//	DELETE /v2/jobs/{id}   release a placed job
//	GET    /v2/nodes       node registry with capacity + tier stats
//	GET    /v2/nodes/{id}  one node
//	GET    /v2/placements  the deterministic placement sequence
//
// On a daemon started without -fleet every /v2 route answers 501.
package server

import (
	"net/http"

	"repro/internal/fleet"
	"repro/internal/schema"
)

// v2JobResponse wraps a fleet job view in the versioned envelope.
type v2JobResponse struct {
	Schema int           `json:"schema"`
	Job    fleet.JobView `json:"job"`
}

type v2JobListResponse struct {
	Schema int             `json:"schema"`
	Jobs   []fleet.JobView `json:"jobs"`
}

type v2NodeListResponse struct {
	Schema int              `json:"schema"`
	Nodes  []fleet.NodeView `json:"nodes"`
}

type v2NodeResponse struct {
	Schema int            `json:"schema"`
	Node   fleet.NodeView `json:"node"`
}

type v2PlacementsResponse struct {
	Schema     int               `json:"schema"`
	Placements []fleet.Placement `json:"placements"`
}

// fleetOr501 returns the configured fleet or writes the 501 taxonomy
// error.
func (s *Server) fleetOr501(w http.ResponseWriter) *fleet.Fleet {
	if s.fleet == nil {
		s.writeErr(w, ErrFleetDisabled)
		return nil
	}
	return s.fleet
}

func (s *Server) handleV2Submit(w http.ResponseWriter, r *http.Request) {
	f := s.fleetOr501(w)
	if f == nil {
		return
	}
	var req fleet.Request
	if err := decodeBody(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	j, err := f.Submit(req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, submitStatus(r, j.Done()), v2JobResponse{Schema: schema.Version, Job: j.View()})
}

func (s *Server) handleV2List(w http.ResponseWriter, _ *http.Request) {
	f := s.fleetOr501(w)
	if f == nil {
		return
	}
	writeJSON(w, http.StatusOK, v2JobListResponse{Schema: schema.Version, Jobs: f.Jobs()})
}

func (s *Server) handleV2Get(w http.ResponseWriter, r *http.Request) {
	f := s.fleetOr501(w)
	if f == nil {
		return
	}
	j, err := f.JobHandle(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// ?wait=1 blocks until placement resolves (or the client leaves).
	waitDone(r, j.Done())
	writeJSON(w, http.StatusOK, v2JobResponse{Schema: schema.Version, Job: j.View()})
}

func (s *Server) handleV2Release(w http.ResponseWriter, r *http.Request) {
	f := s.fleetOr501(w)
	if f == nil {
		return
	}
	id := r.PathValue("id")
	if err := f.Release(id); err != nil {
		s.writeErr(w, err)
		return
	}
	v, err := f.Job(id)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v2JobResponse{Schema: schema.Version, Job: v})
}

func (s *Server) handleV2Nodes(w http.ResponseWriter, _ *http.Request) {
	f := s.fleetOr501(w)
	if f == nil {
		return
	}
	writeJSON(w, http.StatusOK, v2NodeListResponse{Schema: schema.Version, Nodes: f.Nodes()})
}

func (s *Server) handleV2Node(w http.ResponseWriter, r *http.Request) {
	f := s.fleetOr501(w)
	if f == nil {
		return
	}
	n, err := f.Node(r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v2NodeResponse{Schema: schema.Version, Node: n})
}

func (s *Server) handleV2Placements(w http.ResponseWriter, _ *http.Request) {
	f := s.fleetOr501(w)
	if f == nil {
		return
	}
	writeJSON(w, http.StatusOK, v2PlacementsResponse{Schema: schema.Version, Placements: f.Placements()})
}
