package core

import (
	"testing"
	"time"

	"portland/internal/flowtable"
	"portland/internal/pswitch"
	"portland/internal/workload"
)

// BenchmarkFabricTablePressure measures the wall-clock cost of
// forwarding under a hardware envelope too small for the working set:
// a k=4 fabric whose switches hold 8 flow entries and 2 ECMP groups,
// re-resolving and re-sending an all-hosts fan-out each op. Every op
// thrashes the flow caches (evictions + slow-path recomputes) and
// re-runs group-table admission — the fabric-level companion of the
// flowtable pressure rig (flowtable.TestTablePressureSteadyState pins
// the exact half: occupancy 1, evictions, 0 allocs). The
// self-reported metrics record the pressure honestly: `occupancy` is
// the peak flow-table fill and `evict/op` the per-op eviction count
// across the fabric.
func BenchmarkFabricTablePressure(b *testing.B) {
	gen := pswitch.Generation{
		Name:        "tiny",
		ECMPGroups:  2,
		ECMPMembers: 8,
		FlowEntries: 8,
		FlowPolicy:  flowtable.EvictLRU,
	}
	f, err := NewFatTree(4, Options{
		Seed:     1,
		Hardware: gen,
	})
	if err != nil {
		b.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	hosts := f.HostList()
	workload.ARPStorm(hosts, 8)
	f.RunFor(time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.ARPStorm(hosts, 8)
		f.RunFor(5 * time.Millisecond)
	}
	b.StopTimer()
	var evictions int64
	var occ float64
	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		evictions += sw.FlowTable().Stats.Evictions
		if o := sw.FlowTable().Occupancy(); o > occ {
			occ = o
		}
	}
	b.ReportMetric(occ, "occupancy")
	b.ReportMetric(float64(evictions)/float64(b.N), "evict/op")
}
