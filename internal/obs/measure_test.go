package obs

import (
	"math"
	"math/rand"
	"slices"
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
	if s.Len() != 10 {
		t.Fatal("series length")
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
	gaps := s.GapsOver(ms(50), 0, ms(250))
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
	gaps = e.GapsOver(ms(50), 0, ms(250))
	if len(gaps) != 1 || gaps[0].Length != ms(200) {
		t.Fatalf("event-driven gaps %v", gaps)
	}
}

// TestGapsOverTrailingStall: a stall still open when the window ends
// is a gap up to the window's end, whether the series keeps polling
// the flat total or stops at the last progress; a stall shorter than
// the threshold at the end is none.
func TestGapsOverTrailingStall(t *testing.T) {
	var polled, event ByteSeries
	for _, s := range []*ByteSeries{&polled, &event} {
		s.Add(ms(0), 0)
		s.Add(ms(10), 100)
		s.Add(ms(20), 200)
	}
	for i := 30; i <= 300; i += 10 {
		polled.Add(ms(i), 200)
	}
	for _, s := range []*ByteSeries{&polled, &event} {
		gaps := s.GapsOver(ms(50), 0, ms(300))
		if len(gaps) != 1 || gaps[0].Start != ms(20) || gaps[0].Length != ms(280) {
			t.Fatalf("gaps %v, want one open stall start=20ms len=280ms", gaps)
		}
		if gaps := s.GapsOver(ms(50), 0, ms(60)); len(gaps) != 0 {
			t.Fatalf("gaps %v, want none: 40ms of trailing stall is under the threshold", gaps)
		}
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
		// quick draws float64s across ±MaxFloat64, where sums overflow;
		// scaled into [-1, 1] they keep their order and spread.
		var v []float64
		for _, x := range raw {
			v = append(v, x/math.MaxFloat64)
		}
		if len(v) == 0 {
			return true
		}
		in := slices.Clone(v)
		s := Summarize(v)
		sorted := slices.Clone(v)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Min <= s.P10 && s.P10 <= s.Median && s.Median <= s.P90 && s.P90 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max+1e-9 && s.Stddev >= 0 &&
			slices.Equal(v, in) // Summarize does not reorder its input
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestMsHelpers(t *testing.T) {
	if Ms(1500*time.Microsecond) != 1.5 {
		t.Fatal("Ms")
	}
	if FmtMs(1500*time.Microsecond) != "1.5ms" {
		t.Fatal("FmtMs")
	}
}
