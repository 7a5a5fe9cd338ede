package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func clockAt(t *time.Duration) func() time.Duration {
	return func() time.Duration { return *t }
}

func TestJournalRingBound(t *testing.T) {
	now := time.Duration(0)
	r := NewRegistry()
	j := r.Journal("sw", 4, clockAt(&now))
	for i := 0; i < 10; i++ {
		now = time.Duration(i) * time.Millisecond
		j.Record(LDPLevel, uint64(i), 0, 0, 0)
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	if j.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", j.Dropped())
	}
	evs := j.Events()
	for i, e := range evs {
		if want := uint64(6 + i); e.A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest evicted first)", i, e.A, want)
		}
	}
	if r.EventsCaptured() != 4 || r.EventsDropped() != 6 {
		t.Fatalf("registry totals: captured=%d dropped=%d", r.EventsCaptured(), r.EventsDropped())
	}
}

func TestNilJournalIsNoop(t *testing.T) {
	var j *Journal
	j.Record(LDPLevel, 1, 2, 3, 4) // must not panic
	if j.Len() != 0 || j.Dropped() != 0 || j.Events() != nil || j.Name() != "" {
		t.Fatal("nil journal must behave as an empty sink")
	}
}

func TestJournalRecordDoesNotAllocate(t *testing.T) {
	now := time.Duration(0)
	j := NewRegistry().Journal("sw", 64, clockAt(&now))
	avg := testing.AllocsPerRun(1000, func() {
		j.Record(NeighborDown, 1, 2, 3, 4)
	})
	if avg != 0 {
		t.Fatalf("Record allocates %.2f objects per call; want 0", avg)
	}
}

func TestMergeOrdering(t *testing.T) {
	now := time.Duration(0)
	r := NewRegistry()
	a := r.Journal("a", 8, clockAt(&now))
	b := r.Journal("b", 8, clockAt(&now))
	now = 2 * time.Millisecond
	b.Record(LDPLevel, 10, 0, 0, 0)
	a.Record(LDPLevel, 11, 0, 0, 0) // same instant: attach order wins
	now = 1 * time.Millisecond      // recorded later but timestamped earlier
	a.Record(LDPPod, 12, 0, 0, 0)
	m := r.Merge()
	if len(m) != 3 {
		t.Fatalf("merged %d events, want 3", len(m))
	}
	// Note: journal "a"'s 1ms event sorts first despite later insertion.
	if m[0].Source != "a" || m[0].A != 12 {
		t.Fatalf("m[0] = %+v, want a/12 at 1ms", m[0])
	}
	// At the 2ms tie, journal "a" (attached first) precedes "b".
	if m[1].Source != "a" || m[1].A != 11 {
		t.Fatalf("m[1] = %+v, want a/11", m[1])
	}
	if m[2].Source != "b" || m[2].A != 10 {
		t.Fatalf("m[2] = %+v, want b/10", m[2])
	}
}

// TestKindStringRoundTrip: every kind has its own wire name, so a
// report's timeline names each event's kind unambiguously.
func TestKindStringRoundTrip(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindUnknown; k < numKinds; k++ {
		s := k.String()
		if strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	h.Observe(500 * time.Nanosecond) // <= 1us bucket
	h.Observe(3 * time.Microsecond)  // <= 4us bucket
	h.Observe(10 * time.Second)      // overflow bucket
	if h.N != 3 {
		t.Fatalf("N = %d, want 3", h.N)
	}
	if h.Counts[0] != 1 || h.Counts[2] != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("bucket counts wrong: %v", h.Counts)
	}
	if h.MaxNs != int64(10*time.Second) {
		t.Fatalf("MaxNs = %d", h.MaxNs)
	}
}

func TestRegistryChurn(t *testing.T) {
	evs := []SourcedEvent{
		{Source: "mgr", Event: Event{At: 10 * time.Millisecond, Kind: MgrRegister}},
		{Source: "mgr", Event: Event{At: 20 * time.Millisecond, Kind: MgrRegister}},
		{Source: "mgr", Event: Event{At: 30 * time.Millisecond, Kind: MgrMigrate}},
		{Source: "mgr", Event: Event{At: 250 * time.Millisecond, Kind: MgrRegister}},
		{Source: "sw", Event: Event{At: 35 * time.Millisecond, Kind: FlowFlush}}, // ignored
	}
	pts := RegistryChurn(evs, 100*time.Millisecond)
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2 (empty buckets elided)", len(pts))
	}
	if pts[0].Registrations != 2 || pts[0].Migrations != 1 || pts[0].PerSec != 30 {
		t.Fatalf("bucket 0 = %+v", pts[0])
	}
	if pts[1].AtMs != 200 || pts[1].Registrations != 1 {
		t.Fatalf("bucket 1 = %+v", pts[1])
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := &Report{
		Schema:     SchemaVersion,
		Experiment: "f9",
		Seed:       1001,
		Params:     map[string]string{"faults": "1", "mode": "links"},
		Timeline: []TimelineEntry{
			{AtNs: 500000, Source: "fabric", Kind: LinkFailed.String(), Args: [4]uint64{17}, Text: "link=17"},
		},
		Counters: Counters{"mgr.arp_queries": 16, "link.drops_down": 3},
		Cells:    []CellReport{{Point: 1, Trial: 0, Seed: 1001, Events: 42, Counters: Counters{"sw.frames_in": 9}}},
	}
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("decode→re-encode not byte-identical:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"schema": 99, "experiment": "x", "seed": 1}`)); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
	if _, err := Decode(strings.NewReader(`{"schema": 1, "experiment": "x", "seed": 1, "bogus": true}`)); err == nil {
		t.Fatal("unknown fields must be rejected")
	}
}

// TestDecodeRejectsMalformedHistogram: every histogram has one count
// per bound plus the overflow count, and at least one bound; a report
// that breaks that would index out of range in any renderer.
func TestDecodeRejectsMalformedHistogram(t *testing.T) {
	for _, hist := range []string{
		`{"unit":"us","bounds_us":[],"counts":[1],"n":1,"max_ns":5}`,
		`{"unit":"us","bounds_us":[1,2],"counts":[1,0],"n":1,"max_ns":5}`,
		`{"unit":"us","bounds_us":[1],"counts":[1,0,0],"n":1,"max_ns":5}`,
	} {
		in := `{"schema":1,"experiment":"f9","seed":1,"arp_latency":` + hist + `}`
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("Decode accepted histogram %s", hist)
		}
	}
	ok := `{"schema":1,"experiment":"f9","seed":1,"arp_latency":{"unit":"us","bounds_us":[1],"counts":[0,1],"n":1,"max_ns":5000}}`
	if _, err := Decode(strings.NewReader(ok)); err != nil {
		t.Errorf("Decode rejected a well-formed histogram: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := &Report{
		Schema: SchemaVersion, Experiment: "t1",
		Counters: Counters{"mgr.arp_queries": 5},
		Cells:    []CellReport{{Counters: Counters{"mgr.arp_queries": 2, "sw.frames_in": 7}}},
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE portland_mgr_arp_queries counter",
		`portland_mgr_arp_queries{experiment="t1"} 7`,
		`portland_sw_frames_in{experiment="t1"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}
