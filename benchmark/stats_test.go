package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFastHalfMean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 2}, 2},                // fastest ceil(2/2) = 1
		{[]float64{9, 1, 5}, 3},             // fastest 2: 1, 5
		{[]float64{8, 2, 6, 4}, 3},          // fastest 2: 2, 4
		{[]float64{10, 1, 100, 3, 2}, 2},    // fastest 3: 1, 2, 3 — the outliers do not count
		{[]float64{1, 1, 1, 1, 1, 50}, 1.0}, // fastest 3 of 6
	} {
		if got := fastHalfMean(c.in); !near(got, c.want) {
			t.Errorf("fastHalfMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// Python: statistics.quantiles(v, n=4) gives these first and third
// cut points (default "exclusive" method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20, 50, 40}, 15, 45},
		{[]float64{2.4, 2.5, 2.45, 2.6, 3.1, 2.41, 2.52, 2.48, 2.9, 2.44}, 2.4325, 2.675},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	// rep [0,10] holds setup [0,2] and timed [2,9]; timed holds two runs
	// [3,5] and [6,8].
	spans := []span{
		{ID: 0, Parent: -1, Name: "rep", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "setup", Start: 0, End: 2},
		{ID: 2, Parent: 0, Name: "timed", Start: 2, End: 9},
		{ID: 3, Parent: 2, Name: "sim.run_s", Start: 3, End: 5},
		{ID: 4, Parent: 2, Name: "sim.run_s", Start: 6, End: 8},
	}
	want := []float64{1, 2, 3, 2, 2}
	for i, got := range selfTimes(spans) {
		if !near(got, want[i]) {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got, want[i])
		}
	}
	tr := &tracer{spans: spans}
	if got := tr.total(0, "sim.run_s"); !near(got, 4) {
		t.Errorf("total under root = %v, want 4", got)
	}
	if got := tr.total(1, "sim.run_s"); got != 0 {
		t.Errorf("total under setup = %v, want 0", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.begin("rep")
	tr.in("a", func() { tr.in("b", func() {}) })
	tr.end()
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	parents := []int{-1, 0, 1}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.End < s.Start {
			t.Errorf("span %d %+v: want parent %d and end >= start", i, s, parents[i])
		}
	}
	var none *tracer // an untraced repetition
	none.begin("x")
	none.in("y", func() {})
	none.end()
}
