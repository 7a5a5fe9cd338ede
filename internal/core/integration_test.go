package core

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"portland/internal/ether"
	"portland/internal/sim"
	"portland/internal/workload"
)

// TestFabricDeterminism re-runs an identical scenario and requires
// byte-identical protocol outcomes — the property every experiment's
// reproducibility rests on.
func TestFabricDeterminism(t *testing.T) {
	type outcome struct {
		arrivals   []time.Duration
		queries    int64
		exclusions int64
		ctrlBytes  int64
	}
	run := func() outcome {
		f, err := NewFatTree(4, Options{Seed: 1234})
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		if err := f.AwaitDiscovery(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		hosts := f.HostList()
		flow := workload.StartCBR(hosts[1], hosts[14], 20000, time.Millisecond, 128)
		f.RunFor(300 * time.Millisecond)
		li, _ := f.LinkBetween("agg-p1-s0", "core-1")
		f.FailLink(li)
		f.RunFor(500 * time.Millisecond)
		toMgr, fromMgr := f.ControlStats()
		return outcome{
			arrivals:   append([]time.Duration(nil), flow.RX.Times...),
			queries:    f.Manager.Stats.ARPQueries,
			exclusions: f.Manager.Stats.ExclusionsSet,
			ctrlBytes:  toMgr.Bytes + fromMgr.Bytes,
		}
	}
	a, b := run(), run()
	if a.queries != b.queries || a.exclusions != b.exclusions || a.ctrlBytes != b.ctrlBytes {
		t.Fatalf("control-plane divergence: %+v vs %+v", a, b)
	}
	if len(a.arrivals) != len(b.arrivals) {
		t.Fatalf("arrival counts differ: %d vs %d", len(a.arrivals), len(b.arrivals))
	}
	for i := range a.arrivals {
		if a.arrivals[i] != b.arrivals[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a.arrivals[i], b.arrivals[i])
		}
	}
}

// TestStaggeredFailuresAndRecovery drives the fault machinery through
// a sequence: two failures at different times, then staggered
// recoveries, with a probe flow that must survive throughout.
func TestStaggeredFailuresAndRecovery(t *testing.T) {
	f := buildK4(t)
	src := f.HostByName("host-p0-e0-h0")
	dst := f.HostByName("host-p2-e1-h1")
	flow := workload.StartCBR(src, dst, 20500, time.Millisecond, 128)
	f.RunFor(300 * time.Millisecond)

	l1, _ := f.LinkBetween("agg-p0-s0", "core-0")
	l2, _ := f.LinkBetween("agg-p0-s1", "core-2")
	f.FailLink(l1)
	f.RunFor(400 * time.Millisecond)
	f.FailLink(l2)
	f.RunFor(400 * time.Millisecond)
	f.RestoreLink(l1)
	f.RunFor(400 * time.Millisecond)
	f.RestoreLink(l2)
	f.RunFor(400 * time.Millisecond)

	// Whatever happened, the flow must be alive and near-lossless in
	// the final window.
	end := f.Eng.Now()
	got := flow.RX.CountIn(end-300*time.Millisecond, end)
	if got < 290 {
		t.Fatalf("final-window delivery %d/300", got)
	}
	// All exclusions must have been retracted after full recovery.
	f.RunFor(200 * time.Millisecond)
	for _, id := range f.Spec.Switches() {
		if n := f.Switches[id].RoutingStateSize(); n > 40 {
			t.Errorf("%s retains %d state entries after full recovery (stale exclusions?)",
				f.Switches[id].Name(), n)
		}
	}
	flow.Stop()
}

// TestPcapCaptureIntegration verifies a live capture produces a valid
// pcap stream with the traffic that actually crossed the switch.
func TestPcapCaptureIntegration(t *testing.T) {
	f := buildK4(t)
	var buf bytes.Buffer
	pw, err := f.CapturePcap("edge-p0-s0", &buf)
	if err != nil {
		t.Fatal(err)
	}
	src := f.HostByName("host-p0-e0-h0")
	dst := f.HostByName("host-p3-e0-h0")
	for i := 0; i < 5; i++ {
		src.Endpoint().SendUDP(dst.IP(), 40, 40, 100)
	}
	f.RunFor(500 * time.Millisecond)
	// At least: 1 ARP request in, 1 proxy reply out... the tap
	// captures ingress only, so: ARP request + 5 UDP (from host) +
	// ACK-path nothing (UDP) + LDMs from fabric neighbors.
	if pw.Frames() < 6 {
		t.Fatalf("captured %d frames, want >= 6", pw.Frames())
	}
	// Structural validity is covered by the trace package's tests;
	// here require the global header plus one record header per frame.
	if buf.Len() < 24+16*pw.Frames() {
		t.Fatalf("pcap too short: %d bytes for %d frames", buf.Len(), pw.Frames())
	}
}

// TestARPFloodFallbackEndToEnd: a host that has never transmitted is
// unknown to the fabric manager; resolving it must fall back to the
// edge-port broadcast and still succeed.
func TestARPFloodFallbackEndToEnd(t *testing.T) {
	f := buildK4(t)
	src := f.HostByName("host-p0-e0-h0")
	// Pick a silent host: it never sends, so it was never registered.
	silent := f.HostByName("host-p2-e0-h1")
	if _, ok := f.Manager.Lookup(silent.IP()); ok {
		t.Fatal("test premise: silent host already registered")
	}
	n := 0
	silent.Endpoint().BindUDP(50, func(netip.Addr, uint16, ether.Payload) { n++ })
	src.Endpoint().SendUDP(silent.IP(), 50, 50, 64)
	f.RunFor(3 * time.Second)
	if n != 1 {
		t.Fatalf("datagram to flood-resolved host not delivered (n=%d)", n)
	}
	if f.Manager.Stats.ARPMisses == 0 {
		t.Fatal("no manager miss recorded; flood path untested")
	}
	// The reply taught the fabric manager the mapping.
	if _, ok := f.Manager.Lookup(silent.IP()); !ok {
		t.Fatal("manager did not learn the mapping from the flood reply")
	}
	// A second resolution from another host now hits the registry.
	misses := f.Manager.Stats.ARPMisses
	other := f.HostByName("host-p1-e1-h0")
	other.Endpoint().SendUDP(silent.IP(), 50, 50, 64)
	f.RunFor(2 * time.Second)
	if f.Manager.Stats.ARPMisses != misses {
		t.Fatal("second resolution missed; registry not effective")
	}
}

// TestCorePodUnreachableThenRecovered exercises the tier-1 exclusion:
// a core loses its entire descent into a pod and must be avoided for
// that pod by every other pod, then reused after recovery.
func TestCorePodUnreachableThenRecovered(t *testing.T) {
	f := buildK4(t)
	src := f.HostByName("host-p1-e0-h0")
	dst := f.HostByName("host-p0-e0-h0")
	flow := workload.StartCBR(src, dst, 20600, time.Millisecond, 128)
	f.RunFor(300 * time.Millisecond)

	// core-0's only link into pod 0 is via agg-p0-s0.
	li, ok := f.LinkBetween("agg-p0-s0", "core-0")
	if !ok {
		t.Fatal("link missing")
	}
	failAt := f.Eng.Now()
	f.FailLink(li)
	f.RunFor(time.Second)
	if _, rec := flow.RX.ConvergenceAfter(failAt, time.Millisecond); !rec {
		t.Fatal("flow never recovered")
	}
	got := flow.RX.CountIn(failAt+500*time.Millisecond, failAt+900*time.Millisecond)
	if got < 380 {
		t.Fatalf("post-exclusion delivery %d/400", got)
	}
	f.RestoreLink(li)
	f.RunFor(time.Second)
	end := f.Eng.Now()
	if got := flow.RX.CountIn(end-300*time.Millisecond, end); got < 290 {
		t.Fatalf("post-recovery delivery %d/300", got)
	}
	flow.Stop()
}

// TestFlowTableDynamics verifies the OpenFlow-style reactive cache:
// first packet takes the slow path, the rest hit; faults invalidate;
// idle entries expire.
func TestFlowTableDynamics(t *testing.T) {
	f := buildK4(t)
	src := f.HostByName("host-p0-e0-h0")
	dst := f.HostByName("host-p3-e1-h1")
	edge := f.SwitchByName("edge-p0-s0")

	flow := workload.StartCBR(src, dst, 20700, time.Millisecond, 128)
	f.RunFor(500 * time.Millisecond)
	st := edge.FlowTable().Stats
	if st.Installs == 0 {
		t.Fatal("no flow entries installed")
	}
	if st.Hits < 100 {
		t.Fatalf("cache barely hit: %+v", st)
	}
	if float64(st.Hits)/float64(st.Hits+st.Misses) < 0.9 {
		t.Fatalf("hit rate too low for a steady flow: %+v", st)
	}
	if edge.FlowTable().Len() == 0 {
		t.Fatal("no live entries during active flow")
	}

	// Faults invalidate where routing can change: the switch that
	// lost the port (via LDP port status) and the remote aggregation
	// switches that receive route exclusions. The edge keeps its
	// cache — its uplink choice is unaffected by this failure.
	agg := f.SwitchByName("agg-p0-s0")
	remote := f.SwitchByName("agg-p1-s0") // adjacent to core-0
	aggInv0 := agg.FlowTable().Stats.Invalidations
	remInv0 := remote.FlowTable().Stats.Invalidations
	li, _ := f.LinkBetween("agg-p0-s0", "core-0")
	f.FailLink(li)
	f.RunFor(300 * time.Millisecond)
	if agg.FlowTable().Stats.Invalidations == aggInv0 {
		t.Fatal("port-loss switch did not invalidate its flow cache")
	}
	// The remote aggregation switch received a RouteExclude; its
	// cache must hold no entries that predate it (a flush counts
	// only when the table was non-empty, so assert emptiness).
	if remInv0 == remote.FlowTable().Stats.Invalidations && remote.FlowTable().Len() != 0 {
		t.Fatal("route-excluded switch kept stale flow entries")
	}
	flow.Stop()

	// Idle expiry: after TTL with no traffic, entries are gone.
	f.RunFor(7 * time.Second)
	if n := edge.FlowTable().Len(); n != 0 {
		t.Fatalf("%d idle entries survived the soft timeout", n)
	}
}

// TestDiscoveryUnderLDPLoss: LDP must converge even when every link
// drops 10% of frames — periodic LDMs make the protocol self-healing.
func TestDiscoveryUnderLDPLoss(t *testing.T) {
	f, err := NewFatTree(4, Options{
		Seed: 21,
		Link: lossyLink(0.10),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckDiscovery(); err != nil {
		t.Fatal(err)
	}
	// Data still flows (UDP may lose some datagrams to the lossy
	// links themselves; require most through).
	src, dst := f.HostByName("host-p0-e0-h0"), f.HostByName("host-p2-e0-h0")
	got := 0
	dst.Endpoint().BindUDP(60, func(netip.Addr, uint16, ether.Payload) { got++ })
	// Pace the sends below the line rate so the egress queue never
	// tail-drops: the measurement is wire loss, not queue overflow.
	for i := 0; i < 200; i++ {
		src.Endpoint().SendUDP(dst.IP(), 60, 60, 64)
		f.RunFor(2 * time.Microsecond)
	}
	f.RunFor(5 * time.Second)
	if got < 80 {
		t.Fatalf("delivered %d/200 at 10%% per-link loss", got)
	}
	// No spurious fault storm: with a five-interval miss window the
	// odds of five consecutive LDM losses are 1e-5 per port-interval,
	// so a few false positives are tolerable but they must heal.
	if !f.AllResolved() {
		t.Fatal("resolution regressed")
	}
}

// TestDHCPBootstrap: a host with no address acquires one through the
// edge-intercepted, fabric-manager-served DHCP path (paper §3.3),
// then exchanges traffic normally.
func TestDHCPBootstrap(t *testing.T) {
	f := buildK4(t)
	booter := f.HostByName("host-p1-e1-h1")
	peer := f.HostByName("host-p0-e0-h0")

	var leased netip.Addr
	booter.Endpoint().BootWithDHCP(func(ip netip.Addr) { leased = ip })
	f.RunFor(500 * time.Millisecond)
	if !leased.IsValid() {
		t.Fatal("no lease acquired")
	}
	if leased.As4()[0] != 10 || leased.As4()[1] != 200 {
		t.Fatalf("lease %v outside the DHCP pool", leased)
	}
	if booter.IP() != leased {
		t.Fatalf("endpoint did not adopt the lease: %v vs %v", booter.IP(), leased)
	}
	if f.Manager.Leases() != 1 {
		t.Fatalf("manager leases: %d", f.Manager.Leases())
	}
	// The gratuitous ARP after the lease registered the mapping.
	if _, ok := f.Manager.Lookup(leased); !ok {
		t.Fatal("leased address not in the PMAC registry")
	}
	// Traffic to and from the freshly booted host.
	got := 0
	booter.Endpoint().BindUDP(90, func(netip.Addr, uint16, ether.Payload) { got++ })
	peer.Endpoint().SendUDP(leased, 90, 90, 64)
	f.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("freshly booted host unreachable (got=%d)", got)
	}
	// Idempotency: re-booting yields the same lease.
	again := netip.Addr{}
	booter.Endpoint().BootWithDHCP(func(ip netip.Addr) { again = ip })
	f.RunFor(500 * time.Millisecond)
	if again != leased {
		t.Fatalf("re-discovery changed the lease: %v vs %v", again, leased)
	}
	// No broadcast storm: DHCP must not have touched other hosts.
	if f.Manager.Stats.DHCPQueries < 2 {
		t.Fatal("manager never saw the queries")
	}
}

// TestScaleK16 boots the largest fabric the suite exercises — 320
// switches, 1024 hosts — checks discovery ground truth, runs sampled
// traffic, and survives a failure. Guarded by -short.
func TestScaleK16(t *testing.T) {
	if testing.Short() {
		t.Skip("k=16 fabric takes a few seconds")
	}
	f, err := NewFatTree(16, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckDiscovery(); err != nil {
		t.Fatal(err)
	}
	hosts := f.HostList()
	if len(hosts) != 1024 {
		t.Fatalf("hosts: %d", len(hosts))
	}
	// Sampled pairs spanning every pod.
	type probe struct {
		src, dst int
		got      *int
	}
	var probes []probe
	for i := 0; i < 64; i++ {
		p := probe{src: i * 16, dst: (i*16 + 512) % 1024, got: new(int)}
		h := hosts[p.dst]
		g := p.got
		h.Endpoint().BindUDP(uint16(26000+i), func(netip.Addr, uint16, ether.Payload) { *g++ })
		probes = append(probes, p)
	}
	for i, p := range probes {
		for j := 0; j < 5; j++ {
			hosts[p.src].Endpoint().SendUDP(hosts[p.dst].IP(), uint16(26000+i), uint16(26000+i), 64)
		}
	}
	f.RunFor(2 * time.Second)
	for i, p := range probes {
		if *p.got != 5 {
			t.Errorf("probe %d delivered %d/5", i, *p.got)
		}
	}
	// A link failure at scale still converges.
	li, ok := f.LinkBetween("agg-p0-s0", "core-0")
	if !ok {
		t.Fatal("link missing")
	}
	f.FailLink(li)
	f.RunFor(500 * time.Millisecond)
	for i, p := range probes {
		hosts[p.src].Endpoint().SendUDP(hosts[p.dst].IP(), uint16(26000+i), uint16(26000+i), 64)
	}
	f.RunFor(2 * time.Second)
	for i, p := range probes {
		if *p.got != 6 {
			t.Errorf("post-failure probe %d delivered %d/6", i, *p.got)
		}
	}
}

// TestSwitchCrashAndReboot: crash an aggregation switch, verify the
// fabric routes around it, reboot it, and verify it rediscovers its
// role (same pod, a valid position) and carries traffic again.
func TestSwitchCrashAndReboot(t *testing.T) {
	f := buildK4(t)
	src := f.HostByName("host-p0-e0-h0")
	dst := f.HostByName("host-p2-e0-h0")
	flow := workload.StartCBR(src, dst, 20800, time.Millisecond, 128)
	f.RunFor(300 * time.Millisecond)

	victim := f.SwitchByName("agg-p0-s0")
	podBefore := victim.Loc().Pod
	f.FailSwitch("agg-p0-s0")
	f.RunFor(time.Second)
	end := f.Eng.Now()
	if got := flow.RX.CountIn(end-300*time.Millisecond, end); got < 290 {
		t.Fatalf("delivery %d/300 with the aggregation switch down", got)
	}

	if !f.RecoverSwitch("agg-p0-s0") {
		t.Fatal("recover failed")
	}
	f.RunFor(2 * time.Second)
	if !victim.Resolved() {
		t.Fatal("rebooted switch did not rediscover its location")
	}
	loc := victim.Loc()
	if loc.Level != 2 /* aggregation */ {
		t.Fatalf("rediscovered level %d", loc.Level)
	}
	if loc.Pod != podBefore {
		t.Fatalf("rediscovered pod %d, had %d (pods are sticky via neighbors)", loc.Pod, podBefore)
	}
	if err := f.CheckDiscovery(); err != nil {
		t.Fatalf("post-reboot ground truth: %v", err)
	}
	// Traffic still clean after it rejoined the ECMP set.
	end = f.Eng.Now()
	if got := flow.RX.CountIn(end-300*time.Millisecond, end); got < 290 {
		t.Fatalf("delivery %d/300 after reboot", got)
	}
	flow.Stop()
}

// TestEdgeCrashAndRebootKeepsPosition: a rebooted edge switch must
// reclaim a valid position; the aggregation switches' claim registry
// re-grants its old slot (same switch ID), so PMACs stay stable.
func TestEdgeCrashAndRebootKeepsPosition(t *testing.T) {
	f := buildK4(t)
	victim := f.SwitchByName("edge-p1-s1")
	before := victim.Loc()
	f.FailSwitch("edge-p1-s1")
	f.RunFor(500 * time.Millisecond)
	f.RecoverSwitch("edge-p1-s1")
	f.RunFor(2 * time.Second)
	if !victim.Resolved() {
		t.Fatal("edge did not re-resolve")
	}
	after := victim.Loc()
	if after != before {
		t.Fatalf("location changed across reboot: %v -> %v", before, after)
	}
	// Its hosts are reachable again (fresh PMACs re-registered on
	// first traffic; peers' caches were invalidated by... nothing —
	// the PMAC is identical because pod/position/port survived).
	src := f.HostByName("host-p0-e0-h0")
	dst := f.HostByName("host-p1-e1-h0")
	got := 0
	dst.Endpoint().BindUDP(95, func(netip.Addr, uint16, ether.Payload) { got++ })
	src.Endpoint().SendUDP(dst.IP(), 95, 95, 64)
	f.RunFor(2 * time.Second)
	if got != 1 {
		t.Fatalf("host behind rebooted edge unreachable (got=%d)", got)
	}
}

// TestLoopFreedomUnderChurn verifies the paper's central forwarding
// claim: no frame ever revisits a switch, even while failures and
// recoveries churn the routing state. Frames keep their pointer
// identity between the edge rewrites, so a loop would show up as the
// same *ether.Frame entering fabric switches more than the tree depth
// allows (edge→agg→core→agg→edge = 4 fabric ingresses after the
// ingress-edge rewrite).
func TestLoopFreedomUnderChurn(t *testing.T) {
	f := buildK4(t)
	// Pooled frame structs are recycled across packets, so a bare
	// pointer is not a packet identity; (pointer, generation) is.
	type frameID struct {
		f   *ether.Frame
		gen uint32
	}
	seen := make(map[frameID]int)
	worst := 0
	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		sw.Tap = func(_ int, frame *ether.Frame, egress bool) {
			if egress || frame.Type == ether.TypeLDP {
				return
			}
			id := frameID{frame, frame.Generation()}
			seen[id]++
			if seen[id] > worst {
				worst = seen[id]
			}
		}
	}
	hosts := f.HostList()
	perm := workload.Permutation(f.Eng.Rand(), len(hosts))
	flows := workload.PairCBRs(hosts, perm, 2*time.Millisecond, 64)
	f.RunFor(300 * time.Millisecond)
	// Churn: fail and restore links while traffic flows.
	l1, _ := f.LinkBetween("agg-p0-s0", "core-0")
	l2, _ := f.LinkBetween("edge-p2-s0", "agg-p2-s1")
	f.FailLink(l1)
	f.RunFor(200 * time.Millisecond)
	f.FailLink(l2)
	f.RunFor(200 * time.Millisecond)
	f.RestoreLink(l1)
	f.RunFor(200 * time.Millisecond)
	f.RestoreLink(l2)
	f.RunFor(200 * time.Millisecond)
	for _, fl := range flows {
		fl.Stop()
	}
	f.RunFor(50 * time.Millisecond)

	// 5 ingress observations of one pointer = a revisit = a loop.
	if worst > 4 {
		t.Fatalf("a frame entered %d fabric switches; forwarding is not loop-free", worst)
	}
	if worst < 4 {
		t.Fatalf("sanity: no inter-pod frame observed (worst=%d)", worst)
	}
}

// TestFrameConservation: every frame sent into any link is either
// delivered or accounted as a drop — the simulator loses nothing
// silently.
func TestFrameConservation(t *testing.T) {
	f := buildK4(t)
	hosts := f.HostList()
	perm := workload.Permutation(f.Eng.Rand(), len(hosts))
	flows := workload.PairCBRs(hosts, perm, time.Millisecond, 128)
	li, _ := f.LinkBetween("agg-p1-s0", "core-0")
	f.RunFor(300 * time.Millisecond)
	f.FailLink(li)
	f.RunFor(300 * time.Millisecond)
	for _, fl := range flows {
		fl.Stop()
	}
	// Drain everything in flight, then count.
	f.RunFor(time.Second)
	var sentTotal, delivered, dropped int64
	for _, id := range f.Spec.Switches() {
		sentTotal += f.Switches[id].Stats.FramesOut
	}
	for _, h := range hosts {
		sentTotal += h.Stats.FramesOut
	}
	for _, l := range f.Links {
		delivered += l.Delivered()
		dropped += l.Drops()
	}
	if sentTotal != delivered+dropped {
		t.Fatalf("conservation violated: sent=%d delivered=%d dropped=%d (leak of %d)",
			sentTotal, delivered, dropped, sentTotal-delivered-dropped)
	}
	if dropped == 0 {
		t.Fatal("sanity: the failed link should have dropped something")
	}
}

// lossyLink returns the default link configuration with a per-frame
// random loss probability.
func lossyLink(rate float64) sim.LinkConfig {
	cfg := sim.DefaultLinkConfig
	cfg.LossRate = rate
	return cfg
}
