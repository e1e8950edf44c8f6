package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// operation (request, cell pass, train cycle) share Op; Parent is the id
// of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: begin and end return at once, so the gated run
// pays a nil check per call and nothing else.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span named after the layer function being called and
// returns its id for end and for children's parent links.
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is one span name's aggregate: how many spans carried it, their
// total duration, and the part of that not covered by child spans.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, duration minus the part of the
// interval that child spans cover. Children may overlap each other
// (concurrent calls), so the covered part is the union of their
// intervals clipped to the parent, not their sum.
func selfTimes(spans []span) map[string]selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			continue // never ended: the run stopped inside it
		}
		covered := coveredBy(children[s.ID], s.Start, s.End)
		agg := out[s.Name]
		agg.Count++
		agg.TotalMs += float64(dur) / 1e6
		agg.SelfMs += float64(dur-covered) / 1e6
		out[s.Name] = agg
	}
	return out
}

// coveredBy is the length of the union of the kids' intervals inside
// [lo, hi].
func coveredBy(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered int64
	edge := lo
	for _, k := range kids {
		start, end := k.Start, k.End
		if start < edge {
			start = edge
		}
		if end > hi {
			end = hi
		}
		if end > start {
			covered += end - start
			edge = end
		}
	}
	return covered
}

// traceFile is what a traced run leaves in the out directory.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Self     map[string]selfTime `json:"self_time_by_span"`
	Spans    []span              `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
