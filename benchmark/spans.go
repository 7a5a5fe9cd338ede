package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from this package only, around calls into a layer's public
// functions; they stay in memory until the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a repetition's root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer was made
	End    float64 `json:"end_s"`
}

// tracer collects spans. A nil *tracer records nothing, which is what
// an untraced repetition runs with: the difference between the two is
// harness.trace_overhead_ratio.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = time.Since(t.t0).Seconds()
	t.open = t.open[:n]
}

// in runs fn inside a span.
func (t *tracer) in(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// total sums the durations of the spans with the given name that lie
// under the given span (a repetition's root, or its timed region).
func (t *tracer) total(under int, name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name && t.isUnder(s.ID, under) {
			sum += s.End - s.Start
		}
	}
	return sum
}

func (t *tracer) isUnder(id, ancestor int) bool {
	for ; id >= 0; id = t.spans[id].Parent {
		if id == ancestor {
			return true
		}
	}
	return false
}

// selfTimes returns, per span ID, the span's duration minus the part
// its direct children cover.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanFile is the layout of benchmark/out/trace-<workload>.json.
type spanFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Spans    []span    `json:"spans"`
	SelfS    []float64 `json:"self_s"` // parallel to Spans
}

// write stores the collected spans with their self times.
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spanFile{Workload: workload, Seed: seed, Spans: t.spans, SelfS: selfTimes(t.spans)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
