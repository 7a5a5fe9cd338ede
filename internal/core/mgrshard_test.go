package core

import (
	"net/netip"
	"testing"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ether"
	"portland/internal/obs"
)

// buildSharded builds a started k=4 fabric with a prefix-sharded
// fabric manager.
func buildSharded(t *testing.T, opts Options) *Fabric {
	t.Helper()
	f, err := NewFatTree(4, opts)
	if err != nil {
		t.Fatalf("NewFatTree: %v", err)
	}
	f.Start()
	if err := f.AwaitDiscovery(2 * time.Second); err != nil {
		t.Fatalf("AwaitDiscovery: %v", err)
	}
	return f
}

// crossPodPairs drives one UDP datagram between every cross-pod host
// pair (i, 15-i) and returns how many landed.
func crossPodPairs(f *Fabric) *int {
	hosts := f.HostList()
	got := new(int)
	for i := 0; i < 8; i++ {
		a, b := hosts[i], hosts[15-i]
		b.Endpoint().BindUDP(7000, func(netip.Addr, uint16, ether.Payload) { *got++ })
		a.Endpoint().SendUDP(b.IP(), 7000, 7000, 64)
	}
	return got
}

// TestShardedManagerServes: with the registry split across 4 shards,
// registration and ARP resolution spread over all replicas — every
// shard owns part of the host registry, each lookup succeeds only on
// its owner, and cross-pod traffic still flows.
func TestShardedManagerServes(t *testing.T) {
	f := buildSharded(t, Options{Seed: 7, MgrShards: 4})
	got := crossPodPairs(f)
	f.RunFor(500 * time.Millisecond)
	if *got != 8 {
		t.Fatalf("delivered %d/8 cross-pod datagrams", *got)
	}
	for i, m := range f.Mgrs {
		if m.Stats.Registrations == 0 {
			t.Errorf("shard %d registered nothing; prefix striping broken", i)
		}
	}
	// Ownership is exclusive: each host IP resolves on exactly the
	// shard ShardOfIP names and on no other.
	for _, h := range f.HostList() {
		owner := ctrlmsg.ShardOfIP(h.IP(), len(f.Mgrs))
		for i, m := range f.Mgrs {
			_, ok := m.Lookup(h.IP())
			if want := i == owner; ok != want {
				t.Fatalf("host %v on shard %d: lookup=%v, want %v", h.IP(), i, ok, want)
			}
		}
	}
	// The route authority stayed on shard 0: no other shard saw a
	// fault event or installed an exclusion.
	li, ok := f.LinkBetween("agg-p0-s0", "core-0")
	if !ok {
		t.Fatal("no agg-core link")
	}
	f.FailLink(li)
	f.RunFor(600 * time.Millisecond)
	if f.Mgrs[0].Stats.FaultEvents == 0 || f.Mgrs[0].Stats.ExclusionsSet == 0 {
		t.Fatal("shard 0 did not react to the link fault")
	}
	for i := 1; i < len(f.Mgrs); i++ {
		if s := f.Mgrs[i].Stats; s.FaultEvents != 0 || s.ExclusionsSet != 0 {
			t.Fatalf("shard %d handled fault state (%d events, %d exclusions); route authority must be shard 0 alone", i, s.FaultEvents, s.ExclusionsSet)
		}
	}
}

// TestPuntBatching: with a hold timer armed, a burst of ARP misses
// reaches each manager shard as batch messages, the manager answers in
// batches, and resolution still completes for every flow. The journal
// records one MgrARPBatch per batch, not one event per query.
func TestPuntBatching(t *testing.T) {
	f := buildSharded(t, Options{Seed: 7, MgrShards: 2, PuntBatch: 200 * time.Microsecond})
	got := crossPodPairs(f)
	f.RunFor(500 * time.Millisecond)
	if *got != 8 {
		t.Fatalf("delivered %d/8 cross-pod datagrams", *got)
	}
	var batches, batched, queries int64
	for _, m := range f.Mgrs {
		batches += m.Stats.ARPBatches
		batched += m.Stats.BatchedQueries
		queries += m.Stats.ARPQueries
	}
	if batches == 0 {
		t.Fatal("no ARP batches reached the managers")
	}
	if batched != queries {
		t.Fatalf("%d of %d ARP queries arrived batched; with PuntBatch set all should", batched, queries)
	}
	if batches >= batched {
		t.Fatalf("%d batches for %d queries; batching amortized nothing", batches, batched)
	}
	// The amortization is visible in the journal: batch records exist
	// and per-query park/flood records are the only per-query events.
	n := 0
	for _, e := range f.Obs.Merge() {
		if e.Kind == obs.MgrARPBatch {
			n++
		}
	}
	if int64(n) != batches {
		t.Fatalf("journal has %d MgrARPBatch records, managers counted %d", n, batches)
	}
}

// TestMgrShardFailover (the PR's failover satellite): killing one
// registry shard mid-storm leaves the other shard serving; ARP queries
// for the dead shard's mappings park on the switches until that
// shard's watchdog replaces it and the replacement re-serves them from
// its resync replay — well before the hosts' 1s ARP retry could mask
// the mechanism.
func TestMgrShardFailover(t *testing.T) {
	f := buildSharded(t, Options{Seed: 7, MgrShards: 2, Standby: true})
	hosts := f.HostList()

	// Register everything first, so the switches hold the full
	// registry the replacement resyncs from.
	warm := crossPodPairs(f)
	f.RunFor(500 * time.Millisecond)
	if *warm != 8 {
		t.Fatalf("warmup delivered %d/8", *warm)
	}

	// Pick one cross-pod destination owned by each shard.
	var dst0, dst1, src0, src1 = -1, -1, 0, 1
	for i := 8; i < 16; i++ {
		switch ctrlmsg.ShardOfIP(hosts[i].IP(), 2) {
		case 0:
			dst0 = i
		case 1:
			dst1 = i
		}
	}
	if dst0 < 0 || dst1 < 0 {
		t.Fatal("pods 2-3 do not span both shards")
	}

	got0, got1 := 0, 0
	var got1At time.Duration
	hosts[dst0].Endpoint().BindUDP(7100, func(netip.Addr, uint16, ether.Payload) { got0++ })
	hosts[dst1].Endpoint().BindUDP(7100, func(netip.Addr, uint16, ether.Payload) {
		if got1At == 0 {
			got1At = f.Eng.Now()
		}
		got1++
	})

	killAt := f.Eng.Now()
	f.KillManagerShard(1)
	hosts[src0].FlushARP(hosts[dst0].IP())
	hosts[src1].FlushARP(hosts[dst1].IP())
	hosts[src0].Endpoint().SendUDP(hosts[dst0].IP(), 7100, 7100, 64)
	hosts[src1].Endpoint().SendUDP(hosts[dst1].IP(), 7100, 7100, 64)

	// Before the watchdog can fire (80ms timeout): shard 0 resolves,
	// the shard-1 query is parked on the edge switch with no answer.
	f.RunFor(60 * time.Millisecond)
	if got0 == 0 {
		t.Fatal("shard 0 went dark with shard 1; kill must be isolated")
	}
	if got1 != 0 {
		t.Fatal("shard-1 ARP resolved while its manager was dead")
	}

	// Takeover and resync re-serve the parked query.
	f.RunFor(440 * time.Millisecond)
	if !f.ShardTookOver(1) {
		t.Fatal("shard 1's watchdog never took over")
	}
	if f.ShardTookOver(0) {
		t.Fatal("shard 0's watchdog took over; its primary was healthy")
	}
	if got1 == 0 {
		t.Fatal("parked shard-1 ARP never re-served after takeover")
	}
	if d := got1At - killAt; d > 500*time.Millisecond {
		t.Fatalf("shard-1 delivery %v after kill; parked-query replay should beat the 1s host ARP retry", d)
	}
	// The replacement serves only its own slice.
	if _, ok := f.Mgrs[1].Lookup(hosts[dst1].IP()); !ok {
		t.Fatal("replacement shard missing its own mapping")
	}
	if _, ok := f.Mgrs[1].Lookup(hosts[dst0].IP()); ok {
		t.Fatal("replacement shard holds shard 0's mapping")
	}
}
