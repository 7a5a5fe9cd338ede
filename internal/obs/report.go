// The versioned JSON run report and its Prometheus-style text dump.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// SchemaVersion identifies the report layout. Decode rejects reports
// from a different schema so downstream tooling never misreads a field
// that moved.
const SchemaVersion = 1

// Counters is a flat name→value snapshot of every counter block a run
// accumulated (manager stats, per-switch dataplane stats aggregated,
// flow tables, link drops, control-channel bytes, journal totals).
// Keys are dotted lowercase paths ("mgr.arp_queries", "link.drops_down").
type Counters map[string]int64

// Add accumulates other into c (missing keys are created).
func (c Counters) Add(other Counters) {
	for k, v := range other {
		c[k] += v
	}
}

// CellReport summarizes one sweep cell (one private engine): its grid
// coordinate, derived seed, journal totals and counter snapshot.
type CellReport struct {
	Point    int      `json:"point"`
	Trial    int      `json:"trial"`
	Seed     uint64   `json:"seed"`
	Events   int64    `json:"events"`
	Dropped  int64    `json:"dropped,omitempty"`
	Counters Counters `json:"counters,omitempty"`
}

// Report is the versioned run report an experiment driver emits next
// to its printed results. Field order is the serialization order;
// map-valued fields serialize with sorted keys (encoding/json), so an
// encoded report is byte-deterministic for a given run.
type Report struct {
	Schema     int               `json:"schema"`
	Experiment string            `json:"experiment"`
	Seed       uint64            `json:"seed"`
	Params     map[string]string `json:"params,omitempty"`

	// Derived views (present when the experiment produces them).
	Convergence   *Convergence    `json:"convergence,omitempty"`
	ARPLatency    *Histogram      `json:"arp_latency,omitempty"`
	RegistryChurn []ChurnPoint    `json:"registry_churn,omitempty"`
	Timeline      []TimelineEntry `json:"timeline,omitempty"`

	// Counters is the whole-run (or representative-cell) snapshot.
	Counters Counters `json:"counters,omitempty"`

	// Cells carries per-cell summaries for sweep experiments, in
	// canonical (point, trial) order.
	Cells []CellReport `json:"cells,omitempty"`
}

// Encode writes the report as indented JSON with a trailing newline.
// The encoding is deterministic: struct fields serialize in
// declaration order and map keys sort.
func (r *Report) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// EncodeBytes returns Encode's output as a byte slice.
func (r *Report) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses a report, rejecting unknown fields, schema mismatches
// and a histogram without one count per bound plus the overflow — the
// golden-test contract is that Decode followed by Encode reproduces
// the input byte-for-byte.
func Decode(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("obs: decoding report: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("obs: report schema %d, this reader speaks %d", r.Schema, SchemaVersion)
	}
	if h := r.ARPLatency; h != nil && (len(h.BoundsUs) == 0 || len(h.Counts) != len(h.BoundsUs)+1) {
		return nil, fmt.Errorf("obs: ARP latency histogram has %d counts for %d bounds", len(h.Counts), len(h.BoundsUs))
	}
	return &r, nil
}

// promSanitize maps a dotted counter key to a Prometheus metric name.
func promSanitize(key string) string {
	var b strings.Builder
	b.WriteString("portland_")
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus dumps the report's counters (top-level plus the sum
// over cells) in Prometheus text exposition format, one counter family
// per key, labeled with the experiment ID.
func (r *Report) WritePrometheus(w io.Writer) error {
	total := Counters{}
	total.Add(r.Counters)
	for _, c := range r.Cells {
		total.Add(c.Counters)
	}
	keys := make([]string, 0, len(total))
	for k := range total {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := promSanitize(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s{experiment=%q} %d\n", name, name, r.Experiment, total[k]); err != nil {
			return err
		}
	}
	return nil
}
