package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"portland/internal/flowtable"
	"portland/internal/pswitch"
	"portland/internal/sim"
	"portland/internal/topo"
	"portland/internal/workload"
)

// evictionTrace boots a k=4 fabric whose switches run a deliberately
// tiny hardware envelope, drives enough distinct flows through it to
// force flow-table evictions and ECMP group-table degradations, and
// returns a per-switch signature of everything the hardware model
// decided: flow-table hit/miss/install/evict counts, live occupancy,
// and group-table charge state.
func evictionTrace(t *testing.T, shards int, policy flowtable.Policy) string {
	t.Helper()
	gen := pswitch.Generation{
		Name:        "tiny",
		ECMPGroups:  2,
		ECMPMembers: 8,
		FlowEntries: 8,
		FlowPolicy:  policy,
	}
	f, err := NewFatTree(4, Options{
		Seed:     7,
		Shards:   shards,
		Hardware: gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Dom.SetWorkers(f.Dom.Shards())
	f.Start()
	if err := f.AwaitDiscovery(10 * time.Second); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	// Every host resolving 8 peers pushes far more than 8 distinct
	// flow keys through each edge table: the envelope must evict.
	workload.ARPStorm(f.HostList(), 8)
	f.RunFor(2 * time.Second)

	var b strings.Builder
	var evictions int64
	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		ft := sw.FlowTable().Stats
		rs := sw.ResourceStats()
		evictions += ft.Evictions
		if n := sw.FlowTable().Len(); n > gen.FlowEntries {
			t.Errorf("%s holds %d flow entries, cap %d", sw.Name(), n, gen.FlowEntries)
		}
		fmt.Fprintf(&b, "%s: hits=%d misses=%d installs=%d evict=%d len=%d groups=%d members=%d degr=%d\n",
			sw.Name(), ft.Hits, ft.Misses, ft.Installs, ft.Evictions,
			sw.FlowTable().Len(), rs.GroupsLive, rs.MembersUsed, rs.Degrades)
	}
	if evictions == 0 {
		t.Fatalf("shards=%d policy=%v: workload produced no evictions; the envelope is not under pressure", shards, policy)
	}
	return b.String()
}

// TestEvictionShardIdentity is the fabric-scope eviction-determinism
// gate the flowtable unit tests point at: under a bounded Generation,
// the shard layout must not change which flow entries get evicted or
// which destination classes lose group-table admission. Each switch's
// eviction PRNG seeds from its own ID and its LRU order is driven only
// by its own traffic, so the per-switch hardware signature must be
// byte-identical at every shard count, for both policies.
func TestEvictionShardIdentity(t *testing.T) {
	for _, policy := range []flowtable.Policy{flowtable.EvictLRU, flowtable.EvictRandom} {
		serial := evictionTrace(t, 1, policy)
		for _, shards := range []int{2, 5} {
			if got := evictionTrace(t, shards, policy); got != serial {
				t.Errorf("policy=%v shards=%d hardware signature diverges from serial: %s",
					policy, shards, firstDiff(serial, got))
			}
		}
	}
}

// TestBuildLeavesBlueprintUntouched: a hardware model changes the
// fabric Build wires, never the blueprint it wires from. One spec built
// first under a named Generation and then under the zero Options must
// give the second fabric Options.Link's rate on every link, and stay
// equal to a fresh blueprint throughout.
func TestBuildLeavesBlueprintUntouched(t *testing.T) {
	spec, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := topo.FatTree(4)
	hw := Build(spec, Options{Hardware: pswitch.Gen40})
	if got := hw.Links[0].Config().Rate; got != 40e9 {
		t.Fatalf("hardware fabric's host link runs at %d b/s, want 40G", got)
	}
	if !reflect.DeepEqual(spec, fresh) {
		t.Fatal("Build under a Generation modified its blueprint")
	}
	plain := Build(spec, Options{})
	for i, l := range plain.Links {
		if got := l.Config().Rate; got != sim.DefaultLinkConfig.Rate {
			t.Fatalf("link %d of the plain rebuild runs at %d b/s, want Options.Link's %d",
				i, got, sim.DefaultLinkConfig.Rate)
		}
	}
	if !reflect.DeepEqual(spec, fresh) {
		t.Fatal("Build modified its blueprint")
	}
}
