// Derived views over merged timelines: the windowed timeline entries a
// report embeds, the ARP-resolution latency histogram, and the
// registry-churn rate series.
package obs

import "time"

// TimelineEntry is one row of a report's timeline: a merged journal
// event serialized with its source and a rendered description.
type TimelineEntry struct {
	AtNs   int64     `json:"at_ns"`
	Source string    `json:"source"`
	Kind   string    `json:"kind"`
	Args   [4]uint64 `json:"args"`
	Text   string    `json:"text,omitempty"`
}

// Timeline windows a merged timeline to [from, to] and serializes it
// into report entries.
func Timeline(events []SourcedEvent, from, to time.Duration) []TimelineEntry {
	var out []TimelineEntry
	for _, e := range events {
		if e.At < from || e.At > to {
			continue
		}
		out = append(out, TimelineEntry{
			AtNs:   int64(e.At),
			Source: e.Source,
			Kind:   e.Kind.String(),
			Args:   [4]uint64{e.A, e.B, e.C, e.D},
			Text:   e.Text(),
		})
	}
	return out
}

// Histogram is a fixed-bucket latency histogram. Bounds are inclusive
// upper limits in microseconds; the last count holds overflows.
type Histogram struct {
	Unit     string  `json:"unit"` // always "us"
	BoundsUs []int64 `json:"bounds_us"`
	Counts   []int64 `json:"counts"`
	N        int64   `json:"n"`
	MaxNs    int64   `json:"max_ns"`
}

// histBounds are power-of-two microsecond buckets spanning sub-µs
// control-network answers through second-scale resync stalls.
var histBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576}

// NewHistogram returns an empty latency histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		Unit:     "us",
		BoundsUs: append([]int64(nil), histBounds...),
		Counts:   make([]int64, len(histBounds)+1),
	}
}

// Observe adds one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.N++
	if int64(d) > h.MaxNs {
		h.MaxNs = int64(d)
	}
	us := d.Microseconds()
	for i, b := range h.BoundsUs {
		if us <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// ARPLatencies builds the ARP-resolution latency histogram from every
// ARPResolved event in a merged timeline (the switch-side measurement:
// host request punted → proxied answer applied).
func ARPLatencies(events []SourcedEvent) *Histogram {
	h := NewHistogram()
	for _, e := range events {
		if e.Kind == ARPResolved {
			h.Observe(time.Duration(e.A))
		}
	}
	if h.N == 0 {
		return nil
	}
	return h
}

// ChurnPoint is one bucket of the registry-churn series: how many
// IP→PMAC registrations and migrations the fabric manager absorbed,
// and the combined rate.
type ChurnPoint struct {
	AtMs          float64 `json:"at_ms"` // bucket start
	Registrations int64   `json:"registrations"`
	Migrations    int64   `json:"migrations"`
	PerSec        float64 `json:"per_sec"`
}

// RegistryChurn buckets MgrRegister/MgrMigrate events into a rate
// series. Empty buckets are elided (churn is bursty: boot and
// migration storms, then silence).
func RegistryChurn(events []SourcedEvent, bucket time.Duration) []ChurnPoint {
	if bucket <= 0 {
		bucket = 100 * time.Millisecond
	}
	var out []ChurnPoint
	idx := make(map[int64]int) // bucket number -> out index
	for _, e := range events {
		if e.Kind != MgrRegister && e.Kind != MgrMigrate {
			continue
		}
		b := int64(e.At / bucket)
		i, ok := idx[b]
		if !ok {
			i = len(out)
			idx[b] = i
			out = append(out, ChurnPoint{AtMs: Ms(time.Duration(b) * bucket)})
		}
		if e.Kind == MgrRegister {
			out[i].Registrations++
		} else {
			out[i].Migrations++
		}
	}
	for i := range out {
		out[i].PerSec = float64(out[i].Registrations+out[i].Migrations) / bucket.Seconds()
	}
	return out
}

// FlowConvergence is one probe flow's recovery after a fault, measured
// by Recorder.ConvergenceAfter on the receiver's arrival
// times.
type FlowConvergence struct {
	Flow        string  `json:"flow"`
	ConvergedMs float64 `json:"converged_ms"`
	Recovered   bool    `json:"recovered"`
	Affected    bool    `json:"affected"`
}

// Convergence is the derived convergence view of one failure event:
// when the fault hit, when (if ever) it was repaired, and how every
// probe flow fared, with the affected flows' interruption summarized.
type Convergence struct {
	FaultAtNs   int64             `json:"fault_at_ns"`
	RestoreAtNs int64             `json:"restore_at_ns,omitempty"`
	Failure     Summary           `json:"failure_ms"`
	Recovery    Summary           `json:"recovery_ms"`
	Flows       []FlowConvergence `json:"flows,omitempty"`
}
