package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded at a layer boundary, from the
// benchmark's side of a call into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`   // module.operation, e.g. core.init
	Op     string `json:"op"`     // the job or trial it belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID for use as a parent.
func (t *tracer) add(name, op string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// layerTime is the total and self time of all spans of one name. Self
// time is a span's duration minus the part of it its children cover.
type layerTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes folds the spans by name.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalS += float64(s.End-s.Start) / 1e9
		lt.SelfS += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
		out[s.Name] = lt
	}
	return out
}

// covered returns how many nanoseconds of parent the union of kids spans.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// write saves the spans and their per-layer self times as JSON.
func (t *tracer) write(path, workload string, e env) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	body, err := json.Marshal(struct {
		Workload string               `json:"workload"`
		Env      env                  `json:"env"`
		Layers   map[string]layerTime `json:"layers"`
		Spans    []span               `json:"spans"`
	}{workload, e, self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
