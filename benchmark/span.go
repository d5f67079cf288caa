package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Spans are recorded by the benchmark around its own calls into each
// layer (client submit/release, Server.Drive, Fleet.Submit/Wait,
// Replayer.Replay, journal.Append/Open, Session.Run/IsolatedIPC). They
// stay in memory during the run and are written once at exit. Spans
// inside the program under test are a later issue.

// span is one timed call. Times are microseconds from the recorder's
// origin. Parent is the index of the enclosing span (-1 for a root); ID
// is shared by every span of one request: the arrival seq on serving
// workloads, the mix index on simulator workloads (-1 when neither
// applies).
type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  int     `json:"parent"`
	ID      int     `json:"id"`
}

// recorder collects spans from one goroutine (every driver in this
// benchmark is a single closed-loop client). The nil *recorder is the
// untraced pass: every method is a no-op.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (r *recorder) now() float64 {
	return float64(time.Since(r.origin).Nanoseconds()) / 1e3
}

// begin opens a span and returns its index for end (and as a parent).
func (r *recorder) begin(name string, parent, id int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, StartUs: r.now(), Parent: parent, ID: id})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].EndUs = r.now()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that child spans cover. Children may overlap each
// other (concurrent fan-out) or stick out of the parent; the covered
// part is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		dur := s.EndUs - s.StartUs
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartUs < spans[kids[b]].StartUs })
		covered, edge := 0.0, s.StartUs
		for _, k := range kids {
			lo, hi := spans[k].StartUs, spans[k].EndUs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndUs {
				hi = s.EndUs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = dur - covered
	}
	return self
}

// selfByName groups span self times (µs) by span name.
func (r *recorder) selfByName() map[string][]float64 {
	out := make(map[string][]float64)
	if r == nil {
		return out
	}
	for i, st := range selfTimes(r.spans) {
		out[r.spans[i].Name] = append(out[r.spans[i].Name], st)
	}
	return out
}

// writeFile dumps the spans as JSON (tmp + rename).
func (r *recorder) writeFile(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Meta  map[string]any `json:"meta"`
		Spans []span         `json:"spans"`
	}{meta, r.spans})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
