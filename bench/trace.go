package main

import (
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Name   string `json:"name"`   // "layer.call"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Key is shared by the spans of one ingest unit:
	// workload/pass/stream/window.
	Key string `json:"key"`
	// N is the number of items the call handled (frames, for the front-end
	// stages); zero when the call is its own unit.
	N int `json:"n,omitempty"`
	// Shadow marks a re-run, outside the parent's interval and on the same
	// input, of a call the parent makes internally: the only way to time a
	// layer that sits under another layer's public function from outside.
	Shadow bool `json:"shadow,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the part of the name before the first dot.
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, name, key string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.t0))
	return s.ID
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s.dur()
}

// endN closes span id and records the number of items it handled.
func (t *tracer) endN(id, n int) {
	t.end(id)
	t.spans[id-1].N = n
}

// shadow opens a shadow span of parent.
func (t *tracer) shadow(parent int, name, key string) int {
	id := t.begin(parent, name, key)
	t.spans[id-1].Shadow = true
	return id
}

// selfTimes returns each span's self time by id: its duration minus the
// part of its interval that its children cover, minus the whole duration of
// its shadow children (which run outside the interval but repeat work done
// inside it). Children of one span never overlap: every span is recorded by
// the one goroutine that makes the calls. A negative remainder — shadows
// that ran slower than the work they repeat — is reported as zero.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur()
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if s.Shadow {
			self[p.ID] -= s.dur()
			continue
		}
		if covered := min(s.End, p.End) - max(s.Start, p.Start); covered > 0 {
			self[p.ID] -= covered
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// layerSelf sums self time per layer over the spans that descend from a
// root span with the given name — the spans on the workload's path, as
// opposed to the off-path probes a traced run also records.
func layerSelf(spans []span, rootName string) map[string]int64 {
	self := selfTimes(spans)
	onPath := make(map[int]bool, len(spans))
	out := make(map[string]int64)
	for _, s := range spans { // parents are recorded before their children
		if (s.Parent == 0 && s.Name == rootName) || onPath[s.Parent] {
			onPath[s.ID] = true
			out[s.layer()] += self[s.ID]
		}
	}
	return out
}
