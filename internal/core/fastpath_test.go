package core

import (
	"net/netip"
	"testing"
	"time"

	"portland/internal/ether"
	"portland/internal/ippkt"
	"portland/internal/workload"
)

// echoRig is a k=4 fabric warmed up so that one cross-pod host pair
// exchanges prebuilt request/reply frames entirely on the steady-state
// data path: ARP caches hot, flow tables and candidate caches
// installed, every LDP agent stopped (no keepalive events), and no
// frame construction per round — SendFrame injects the same request
// each time and the destination's handler injects the same reply.
// One round exercises host → edge → agg → core → agg → edge → host in
// both directions, which is exactly the path the zero-alloc contract
// covers.
type echoRig struct {
	f        *Fabric
	src      *ether.Frame // prebuilt request (injected at the source host)
	received int          // replies landed back at the source
	sendOne  func()
}

func buildEchoRig(t testing.TB) *echoRig {
	f, err := NewFatTree(4, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	hosts := f.HostList()
	src, dst := hosts[1], hosts[14] // different pods
	dst.Endpoint().EnableEcho()
	pinged := false
	src.Endpoint().Ping(dst.IP(), 64, func(time.Duration) { pinged = true })
	f.RunFor(100 * time.Millisecond)
	if !pinged {
		t.Fatal("warmup ping did not complete")
	}
	dstPM, ok := src.ARPCacheLookup(dst.IP())
	if !ok {
		t.Fatal("source has no ARP entry for destination")
	}
	srcPM, ok := dst.ARPCacheLookup(src.IP())
	if !ok {
		t.Fatal("destination has no ARP entry for source")
	}

	rig := &echoRig{f: f}
	mkFrame := func(dstMAC, srcMAC ether.Addr, dstIP, srcIP netip.Addr, sport, dport uint16) *ether.Frame {
		return &ether.Frame{
			Dst: dstMAC, Src: srcMAC, Type: ether.TypeIPv4,
			Payload: &ippkt.IPv4{
				TTL: 64, Protocol: ippkt.ProtoUDP, Src: srcIP, Dst: dstIP,
				Payload: &ippkt.UDP{SrcPort: sport, DstPort: dport, Payload: ether.Raw(make([]byte, 64))},
			},
		}
	}
	rig.src = mkFrame(dstPM, src.MAC(), dst.IP(), src.IP(), 9000, 9001)
	reply := mkFrame(srcPM, dst.MAC(), src.IP(), dst.IP(), 9001, 9002)
	dst.Endpoint().BindUDP(9001, func(netip.Addr, uint16, ether.Payload) { dst.SendFrame(reply) })
	src.Endpoint().BindUDP(9002, func(netip.Addr, uint16, ether.Payload) { rig.received++ })

	// Silence the control plane: LDP keepalives are the only periodic
	// event source, and they are not part of the data path under test.
	for _, id := range f.Spec.Switches() {
		f.Switches[id].Agent().Stop()
	}
	f.Eng.Run() // drain stopped tickers, parked-ARP TTLs, etc.

	rig.sendOne = func() {
		src.SendFrame(rig.src)
		f.Eng.Run()
	}
	// One cold round installs the 9000/9001/9002 flows and grows every
	// heap, pool and table to its high-water mark.
	rig.sendOne()
	if rig.received != 1 {
		t.Fatalf("warmup echo rounds completed: %d, want 1", rig.received)
	}
	return rig
}

// TestEndToEndEchoAllocFree is the tentpole assertion: a full
// request/reply round across the fabric allocates nothing once warm —
// with journaling enabled. Control-plane activity must have recorded
// events during warmup (proof the journals are live), and the
// steady-state echo rounds must record nothing (the hot path is
// counters only — see internal/obs).
func TestEndToEndEchoAllocFree(t *testing.T) {
	rig := buildEchoRig(t)
	capBefore := rig.f.Obs.EventsCaptured()
	if capBefore == 0 {
		t.Fatal("no journal events captured during warmup; journaling is wired off")
	}
	before := rig.received
	avg := testing.AllocsPerRun(500, rig.sendOne)
	if avg != 0 {
		t.Fatalf("end-to-end echo allocates %.2f objects per round; want 0", avg)
	}
	if rig.received == before {
		t.Fatal("no replies delivered during measurement")
	}
	if got := rig.f.Obs.EventsCaptured(); got != capBefore {
		t.Fatalf("steady-state echo journaled %d events; the data path must not record", got-capBefore)
	}
}

// BenchmarkEndToEndEcho times one request/reply round across the k=4
// fabric (14 switch hops, 16 link deliveries);
// TestEndToEndEchoAllocFree holds it at 0 allocs.
func BenchmarkEndToEndEcho(b *testing.B) {
	rig := buildEchoRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.sendOne()
	}
	b.StopTimer()
	if rig.received != b.N+1 {
		b.Fatalf("echo replies %d, want %d", rig.received, b.N+1)
	}
}

// TestPooledFrameOwnership drives data, ARP, multicast and fault-churn
// traffic with every observation point armed — link taps, switch taps,
// host receive hooks — and asserts none of them ever sees a recycled
// frame. Run under -race this also checks the pool stays confined to
// the engine's goroutine. It is the enforcement of ether.FramePool's
// ownership rules.
func TestPooledFrameOwnership(t *testing.T) {
	f, err := NewFatTree(4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	check := func(fr *ether.Frame) {
		if fr.Recycled() {
			t.Fatal("a tap observed a frame that is parked in the free list")
		}
		observed++
	}
	for _, l := range f.Links {
		l.Tap = check
	}
	for _, id := range f.Spec.Switches() {
		f.Switches[id].Tap = func(_ int, fr *ether.Frame, _ bool) { check(fr) }
	}
	for _, h := range f.Hosts {
		h.RecvHook = check
	}
	f.Start()
	if err := f.AwaitDiscovery(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	hosts := f.HostList()
	perm := workload.Permutation(f.Eng.Rand(), len(hosts))
	workload.PairCBRs(hosts, perm, 2*time.Millisecond, 128)
	hosts[3].Endpoint().JoinGroup(0x42, true, nil)
	hosts[12].Endpoint().JoinGroup(0x42, false, func(*ether.Frame) {})
	f.RunFor(100 * time.Millisecond)
	hosts[3].Endpoint().SendGroup(0x42, 5000, 5001, 64)
	// Churn a link so drop paths and cache invalidation recycle frames
	// mid-flight.
	li, ok := f.LinkBetween("agg-p0-s0", "core-0")
	if !ok {
		t.Fatal("no agg-core link")
	}
	f.FailLink(li)
	f.RunFor(100 * time.Millisecond)
	f.RestoreLink(li)
	f.RunFor(100 * time.Millisecond)
	if observed == 0 {
		t.Fatal("taps observed no frames")
	}
	if f.Eng.FramePool().Len() == 0 {
		t.Fatal("frame pool never recycled anything; the data path is not using it")
	}
}
