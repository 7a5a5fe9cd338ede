// Measurement primitives the experiment harness uses: arrival
// recorders with gap analysis (convergence times), time-bucketed
// throughput series, and small descriptive statistics over samples.
package obs

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Recorder collects event timestamps (e.g. datagram arrivals at a
// receiver). The zero value is ready to use.
type Recorder struct {
	Times []time.Duration
}

// Record appends an event time.
func (r *Recorder) Record(t time.Duration) { r.Times = append(r.Times, t) }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.Times) }

// ConvergenceAfter measures the interruption a fault at "at" caused:
// the delay from the fault instant to the first event observed after
// it, minus the nominal inter-event interval (so an undisturbed
// constant-rate flow measures ≈ 0). The boolean is false when no
// event follows the fault (flow never recovered within the run).
func (r *Recorder) ConvergenceAfter(at, nominal time.Duration) (time.Duration, bool) {
	i := sort.Search(len(r.Times), func(i int) bool { return r.Times[i] > at })
	if i == len(r.Times) {
		return 0, false
	}
	d := r.Times[i] - at - nominal
	if d < 0 {
		d = 0
	}
	return d, true
}

// SteadyAfter finds the instant a disrupted flow became steady again:
// the earliest event time t > at such that every later inter-event
// gap is at most maxGap through the end of the recording. Unlike
// ConvergenceAfter (time to *first* event after the fault), this
// detects full convergence — a flow that limps through a flapping
// path delivers early stragglers long before its gaps settle. The
// boolean is false when no event follows at.
func (r *Recorder) SteadyAfter(at, maxGap time.Duration) (time.Duration, bool) {
	i := sort.Search(len(r.Times), func(i int) bool { return r.Times[i] > at })
	if i == len(r.Times) {
		return 0, false
	}
	steady := r.Times[i]
	for j := i + 1; j < len(r.Times); j++ {
		if r.Times[j]-r.Times[j-1] > maxGap {
			steady = r.Times[j]
		}
	}
	return steady, true
}

// CountIn returns events within [from, to).
func (r *Recorder) CountIn(from, to time.Duration) int {
	n := 0
	for _, t := range r.Times {
		if t >= from && t < to {
			n++
		}
	}
	return n
}

// ByteSeries accumulates (time, bytes) points — a receiver's delivery
// trace — and buckets them into throughput.
type ByteSeries struct {
	times []time.Duration
	bytes []int64
}

// Add appends a cumulative byte count observation.
func (s *ByteSeries) Add(t time.Duration, total int64) {
	s.times = append(s.times, t)
	s.bytes = append(s.bytes, total)
}

// Len returns the number of observations.
func (s *ByteSeries) Len() int { return len(s.times) }

// ThroughputPoint is one bucket of a throughput series.
type ThroughputPoint struct {
	T    time.Duration // bucket start
	Mbps float64
}

// Throughput converts the cumulative trace into per-bucket Mbps over
// [from, to).
func (s *ByteSeries) Throughput(from, to, bucket time.Duration) []ThroughputPoint {
	if bucket <= 0 || to <= from {
		return nil
	}
	n := int((to - from + bucket - 1) / bucket)
	counts := make([]int64, n)
	var last int64
	// Find the cumulative total just before the window.
	i := 0
	for ; i < len(s.times) && s.times[i] < from; i++ {
		last = s.bytes[i]
	}
	for ; i < len(s.times); i++ {
		if s.times[i] >= to {
			break
		}
		b := int((s.times[i] - from) / bucket)
		counts[b] += s.bytes[i] - last
		last = s.bytes[i]
	}
	out := make([]ThroughputPoint, n)
	for b := range counts {
		out[b] = ThroughputPoint{
			T:    from + time.Duration(b)*bucket,
			Mbps: float64(counts[b]) * 8 / bucket.Seconds() / 1e6,
		}
	}
	return out
}

// GapsOver returns the intervals (start, length) during which the
// cumulative byte count made no progress for longer than threshold
// within [from, to]. The series may be event-driven (points only on
// progress) or polled (repeated points with unchanged totals); both
// report the same stalls. A stall still open at to is returned too,
// from the last progress to to: delivery that never resumes is the
// longest gap of all, not none.
func (s *ByteSeries) GapsOver(threshold, from, to time.Duration) []ThroughputGap {
	var out []ThroughputGap
	var lastProgressAt time.Duration
	var lastBytes int64
	have := false
	for i, t := range s.times {
		if t < from || t > to {
			continue
		}
		if !have {
			have = true
			lastProgressAt = t
			lastBytes = s.bytes[i]
			continue
		}
		if s.bytes[i] > lastBytes {
			if t-lastProgressAt > threshold {
				out = append(out, ThroughputGap{Start: lastProgressAt, Length: t - lastProgressAt})
			}
			lastProgressAt = t
			lastBytes = s.bytes[i]
		}
	}
	if have && to-lastProgressAt > threshold {
		out = append(out, ThroughputGap{Start: lastProgressAt, Length: to - lastProgressAt})
	}
	return out
}

// ThroughputGap is a stall in a delivery trace.
type ThroughputGap struct {
	Start  time.Duration
	Length time.Duration
}

// Summary holds descriptive statistics of a sample set.
type Summary struct {
	N            int
	Min, Max     float64
	Mean, Median float64
	P10, P90     float64
	Stddev       float64
}

// Summarize computes descriptive statistics.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	var sum, sq float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	for _, x := range v {
		sq += (x - mean) * (x - mean)
	}
	return Summary{
		N:      len(v),
		Min:    v[0],
		Max:    v[len(v)-1],
		Mean:   mean,
		Median: quantile(v, 0.5),
		P10:    quantile(v, 0.1),
		P90:    quantile(v, 0.9),
		Stddev: math.Sqrt(sq / float64(len(v))),
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Ms converts a duration to float milliseconds (series units).
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// FmtMs renders a duration in milliseconds with one decimal.
func FmtMs(d time.Duration) string { return fmt.Sprintf("%.1fms", Ms(d)) }
