package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"portland/internal/graydetect"
	"portland/internal/ldp"
	"portland/internal/pswitch"
	"portland/internal/workload"
)

// supportedOptions is the option matrix a Fabric supports: the zero
// Options plus each field at the value its production setter uses.
// Rows name their setter; a new Options field belongs here. Shards is
// the exception: TestOptionsMatrix crosses it with every row.
var supportedOptions = []struct {
	name string
	opts Options
}{
	{"zero", Options{}},
	{"ctrlloss(fmf)", Options{CtrlLoss: 0.1}},
	{"ldp(a4)", Options{LDP: ldp.Config{Interval: 50 * time.Millisecond}}},
	{"detect(sc)", Options{Detect: scDetect()}},
	{"mgrshards(mgr)", Options{MgrShards: 2}},
	{"puntbatch(mgr)", Options{PuntBatch: 200 * time.Microsecond}},
	{"mgrshards+puntbatch(mgr)", Options{MgrShards: 2, PuntBatch: 200 * time.Microsecond}},
	{"hardware(ft)", Options{Hardware: pswitch.Gen40.Scale(64)}},
	{"hardware-unbounded(ft)", Options{Hardware: pswitch.Generation{Name: "unbounded"}}},
	{"standby", Options{Standby: true}},
}

// scDetect is the detector profile the scenario sweep arms (DefaultSC).
func scDetect() graydetect.Config {
	d := graydetect.DefaultConfig
	d.Probes = true
	d.Clean = 5
	return d
}

// TestOptionsMatrix boots every supported option row at k=4, checks
// discovery against the blueprint, and drives a 16-flow CBR
// permutation in which every flow must still be delivering at the
// end. Each row is built twice, serial and on three engine shards, and
// the two must agree on every counter and on the merged journal: each
// row is as deterministic as the default, and sharding never moves a
// result.
func TestOptionsMatrix(t *testing.T) {
	for _, row := range supportedOptions {
		t.Run(row.name, func(t *testing.T) {
			serial := optionsRun(t, row.opts)
			sharded := row.opts
			sharded.Shards = 3
			if got := optionsRun(t, sharded); got != serial {
				t.Errorf("serial and 3 engine shards diverge: %s", firstDiff(serial, got))
			}
		})
	}
}

// optionsRun is one TestOptionsMatrix build; it returns the fabric's
// counters and merged journal as text.
func optionsRun(t *testing.T, opts Options) string {
	t.Helper()
	f, err := NewFatTree(4, opts)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckDiscovery(); err != nil {
		t.Fatal(err)
	}
	hosts := f.HostList()
	flows := workload.PairCBRs(hosts, workload.Permutation(f.Rand(), len(hosts)), time.Millisecond, 64)
	f.RunFor(200 * time.Millisecond)
	end := f.Now()
	for i, fl := range flows {
		fl.Stop()
		if fl.RX.CountIn(end-50*time.Millisecond, end) == 0 {
			t.Errorf("flow %d (%s→%s) dead: %d of %d delivered, none in the last 50ms",
				i, fl.Src.Name(), fl.Dst.Name(), fl.RX.Len(), fl.Sent)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", f.ObsCounters())
	for _, ev := range f.Obs.Merge() {
		fmt.Fprintf(&b, "%s %v %s\n", ev.Source, ev.Event.At, ev.Event.Text())
	}
	return b.String()
}
