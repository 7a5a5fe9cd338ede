package host

import (
	"net/netip"
	"testing"
	"time"

	"portland/internal/arppkt"
	"portland/internal/ether"
	"portland/internal/grouppkt"
	"portland/internal/ippkt"
	"portland/internal/sim"
	"portland/internal/tcplite"
)

// wire connects two hosts back-to-back (no switch) — enough to
// exercise the host stack in isolation.
func wire(t *testing.T) (*sim.Engine, *Host, *Host) {
	t.Helper()
	eng := sim.New(1)
	a := New(eng.NewProc(), "a", ether.Addr{2, 0, 0, 0, 0, 1}, netip.MustParseAddr("10.0.0.1"))
	b := New(eng.NewProc(), "b", ether.Addr{2, 0, 0, 0, 0, 2}, netip.MustParseAddr("10.0.0.2"))
	sim.Connect(eng, a, 0, b, 0, sim.LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 64})
	return eng, a, b
}

// TestTCPOverLossyLink: a bulk TCP transfer across a data-plane link
// with 10% i.i.d. frame loss must still complete — RTO and fast
// retransmit recover every lost segment, and the loss is visible in
// the retransmission counters rather than in missing bytes.
func TestTCPOverLossyLink(t *testing.T) {
	eng := sim.New(3)
	a := New(eng.NewProc(), "a", ether.Addr{2, 0, 0, 0, 0, 1}, netip.MustParseAddr("10.0.0.1"))
	b := New(eng.NewProc(), "b", ether.Addr{2, 0, 0, 0, 0, 2}, netip.MustParseAddr("10.0.0.2"))
	sim.Connect(eng, a, 0, b, 0, sim.LinkConfig{
		Rate: 1e9, Delay: 10 * time.Microsecond, QueueFrames: 64, LossRate: 0.1,
	})

	const total = 256 << 10
	var srv *tcplite.Conn
	b.Endpoint().ListenTCP(80, func(c *tcplite.Conn) { srv = c })
	cli := a.Endpoint().DialTCP(b.IP(), 40000, 80, tcplite.Config{})
	cli.Queue(total)
	eng.RunUntil(30 * time.Second)

	if srv == nil {
		t.Fatal("connection never established through the lossy link")
	}
	if got := srv.Delivered(); got != total {
		t.Fatalf("delivered %d of %d bytes; transfer did not converge", got, total)
	}
	if cli.Stats.Retransmits == 0 {
		t.Fatal("10%% loss caused no retransmissions; loss not exercised")
	}
	t.Logf("converged: %d retransmits, %d RTO events", cli.Stats.Retransmits, cli.Stats.Timeouts)
}

func TestARPResolveAndSend(t *testing.T) {
	eng, a, b := wire(t)
	var got []int
	b.Endpoint().BindUDP(9, func(src netip.Addr, sport uint16, p ether.Payload) {
		got = append(got, p.WireSize())
	})
	a.Endpoint().SendUDP(b.IP(), 9, 9, 77)
	eng.Run()
	if len(got) != 1 || got[0] != 77 {
		t.Fatalf("got %v", got)
	}
	if a.Stats.ARPRequests != 1 {
		t.Fatalf("ARP requests %d", a.Stats.ARPRequests)
	}
	if mac, ok := a.ARPCacheLookup(b.IP()); !ok || mac != b.MAC() {
		t.Fatal("cache not populated from reply")
	}
	// Second send uses the cache.
	a.Endpoint().SendUDP(b.IP(), 9, 9, 10)
	eng.Run()
	if a.Stats.ARPRequests != 1 {
		t.Fatal("cache hit still sent an ARP")
	}
}

func TestARPQueueHoldsMultiplePackets(t *testing.T) {
	eng, a, b := wire(t)
	n := 0
	b.Endpoint().BindUDP(9, func(netip.Addr, uint16, ether.Payload) { n++ })
	for i := 0; i < 5; i++ {
		a.Endpoint().SendUDP(b.IP(), 9, 9, 10)
	}
	eng.Run()
	if n != 5 {
		t.Fatalf("delivered %d/5 queued packets", n)
	}
	if a.Stats.ARPRequests != 1 {
		t.Fatalf("%d ARP requests for one resolution", a.Stats.ARPRequests)
	}
}

func TestARPRetryAndGiveUp(t *testing.T) {
	eng := sim.New(1)
	a := New(eng.NewProc(), "a", ether.Addr{2, 0, 0, 0, 0, 1}, netip.MustParseAddr("10.0.0.1"))
	// No link at all: requests vanish.
	a.Endpoint().SendUDP(netip.MustParseAddr("10.0.0.9"), 9, 9, 10)
	eng.RunUntil(30 * time.Second)
	if a.Stats.ARPRequests != arpMaxRetries {
		t.Fatalf("retries %d, want %d", a.Stats.ARPRequests, arpMaxRetries)
	}
	if a.Stats.Unresolved != 1 {
		t.Fatalf("unresolved %d", a.Stats.Unresolved)
	}
}

func TestNICFilter(t *testing.T) {
	eng, a, b := wire(t)
	// Frame addressed to a third MAC must be filtered.
	alien := &ether.Frame{
		Dst: ether.Addr{2, 9, 9, 9, 9, 9}, Src: a.MAC(), Type: ether.TypeIPv4,
		Payload: &ippkt.IPv4{Src: a.IP(), Dst: b.IP(), Protocol: ippkt.ProtoUDP,
			Payload: &ippkt.UDP{DstPort: 9}},
	}
	a.link.Send(a, alien)
	eng.Run()
	if b.Stats.Filtered != 1 {
		t.Fatalf("filtered %d", b.Stats.Filtered)
	}
}

func TestGratuitousARPUpdatesCache(t *testing.T) {
	eng, a, b := wire(t)
	a.Endpoint().SendUDP(b.IP(), 9, 9, 10) // populate cache
	eng.Run()
	newMAC := ether.Addr{2, 5, 5, 5, 5, 5}
	b.sendFrame(arppkt.GratuitousReply(newMAC, b.IP()))
	eng.Run()
	if mac, _ := a.ARPCacheLookup(b.IP()); mac != newMAC {
		t.Fatalf("cache %v after gratuitous ARP, want %v", mac, newMAC)
	}
	// Unicast (migration-invalidation style) replies update too.
	newer := ether.Addr{2, 6, 6, 6, 6, 6}
	b.sendFrame(&ether.Frame{
		Dst: a.MAC(), Src: newer, Type: ether.TypeARP,
		Payload: &arppkt.Packet{Op: arppkt.OpReply, SenderMAC: newer, SenderIP: b.IP(), TargetMAC: a.MAC(), TargetIP: a.IP()},
	})
	eng.Run()
	if mac, _ := a.ARPCacheLookup(b.IP()); mac != newer {
		t.Fatalf("cache %v after unicast update", mac)
	}
}

func TestVMEndpointLifecycle(t *testing.T) {
	eng, a, b := wire(t)
	vm := NewVM(ether.Addr{2, 0xaa, 0, 0, 0, 1}, netip.MustParseAddr("10.0.0.50"))
	b.AttachVM(vm)
	eng.Run()
	// The attach gratuitous ARP announced the VM to a.
	if mac, ok := a.ARPCacheLookup(vm.LocalIP()); !ok || mac != vm.MAC() {
		t.Fatal("gratuitous ARP on attach not observed")
	}
	// UDP to the VM via its own endpoint identity.
	n := 0
	vm.BindUDP(9, func(netip.Addr, uint16, ether.Payload) { n++ })
	a.Endpoint().SendUDP(vm.LocalIP(), 9, 9, 10)
	eng.Run()
	if n != 1 {
		t.Fatal("VM endpoint did not receive")
	}
	// Detach: frames for the VM are filtered by the host NIC.
	b.DetachVM(vm)
	a.Endpoint().SendUDP(vm.LocalIP(), 9, 9, 10)
	eng.Run()
	if n != 1 {
		t.Fatal("detached VM still receiving")
	}
	if vm.Host() != nil {
		t.Fatal("detached VM keeps a host")
	}
}

func TestVMARPAnsweredByHost(t *testing.T) {
	eng, a, b := wire(t)
	vm := NewVM(ether.Addr{2, 0xbb, 0, 0, 0, 1}, netip.MustParseAddr("10.0.0.60"))
	b.AttachVM(vm)
	eng.Run()
	a.FlushARP(vm.LocalIP())
	a.Endpoint().SendUDP(vm.LocalIP(), 9, 9, 10) // forces an ARP request
	eng.Run()
	if mac, ok := a.ARPCacheLookup(vm.LocalIP()); !ok || mac != vm.MAC() {
		t.Fatalf("host did not answer ARP for its VM: %v %v", mac, ok)
	}
}

func TestGroupJoinEmitsManagementFrame(t *testing.T) {
	eng, a, b := wire(t)
	var mgmt []*grouppkt.Packet
	b.RecvHook = func(f *ether.Frame) {
		if f.Type == ether.TypeGroupMgmt {
			mgmt = append(mgmt, f.Payload.(*grouppkt.Packet))
		}
	}
	a.Endpoint().JoinGroup(7, true, nil)
	a.Endpoint().LeaveGroup(7)
	eng.Run()
	if len(mgmt) != 2 {
		t.Fatalf("management frames: %d", len(mgmt))
	}
	if !mgmt[0].Join || !mgmt[0].Source || mgmt[0].Group != 7 {
		t.Fatalf("join frame %+v", mgmt[0])
	}
	if mgmt[1].Join {
		t.Fatalf("leave frame %+v", mgmt[1])
	}
}

func TestGroupReceive(t *testing.T) {
	eng, a, b := wire(t)
	got := 0
	b.Endpoint().JoinGroup(9, false, func(f *ether.Frame) { got++ })
	eng.Run()
	// Deliver a group frame directly (no switch in this rig).
	a.sendFrame(&ether.Frame{
		Dst: ether.GroupAddr(9), Src: a.MAC(), Type: ether.TypeIPv4,
		Payload: &ippkt.IPv4{Protocol: ippkt.ProtoUDP, Src: a.IP(), Dst: netip.MustParseAddr("239.0.0.1"),
			Payload: &ippkt.UDP{DstPort: 1}},
	})
	// A frame for a group b did not join is ignored.
	a.sendFrame(&ether.Frame{
		Dst: ether.GroupAddr(10), Src: a.MAC(), Type: ether.TypeIPv4,
		Payload: &ippkt.IPv4{Protocol: ippkt.ProtoUDP, Src: a.IP(), Dst: netip.MustParseAddr("239.0.0.1"),
			Payload: &ippkt.UDP{DstPort: 1}},
	})
	eng.Run()
	if got != 1 {
		t.Fatalf("group frames delivered: %d", got)
	}
}

func TestLDPFramesIgnored(t *testing.T) {
	eng, a, b := wire(t)
	before := b.Stats.FramesOut
	a.sendFrame(&ether.Frame{Dst: ether.Broadcast, Src: a.MAC(), Type: ether.TypeLDP, Payload: ether.Raw("x")})
	eng.Run()
	if b.Stats.FramesOut != before {
		t.Fatal("host reacted to an LDP frame")
	}
}

func TestPingEcho(t *testing.T) {
	eng, a, b := wire(t)
	b.Endpoint().EnableEcho()
	var rtts []time.Duration
	for i := 0; i < 3; i++ {
		a.Endpoint().Ping(b.IP(), 64, func(rtt time.Duration) { rtts = append(rtts, rtt) })
	}
	eng.Run()
	if len(rtts) != 3 {
		t.Fatalf("got %d pongs", len(rtts))
	}
	for _, rtt := range rtts {
		if rtt <= 0 || rtt > time.Millisecond {
			t.Fatalf("rtt %v implausible for a direct wire", rtt)
		}
	}
	// Concurrent outstanding pings use distinct ports and never cross.
	done := 0
	a.Endpoint().Ping(b.IP(), 64, func(time.Duration) { done++ })
	a.Endpoint().Ping(b.IP(), 64, func(time.Duration) { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("concurrent pings resolved %d/2", done)
	}
}

func TestDHCPTimesOutWithoutServer(t *testing.T) {
	// Two bare hosts, no fabric: Discover goes unanswered and the
	// client keeps retrying without adopting an address.
	eng, a, b := wire(t)
	_ = b
	called := false
	a.Endpoint().BootWithDHCP(func(netip.Addr) { called = true })
	eng.RunUntil(5 * time.Second)
	if called {
		t.Fatal("lease callback fired with no server")
	}
	if ip := a.IP(); ip.IsValid() && !ip.IsUnspecified() {
		t.Fatalf("address adopted from nowhere: %v", ip)
	}
}

// The sender rule (see ether.FramePool): a sent packet costs at most
// one heap object — the datagram, its IP and UDP headers one struct,
// its zero payload none, its frame pooled — and a datagram built once
// and sent again costs none. The echo responder is a SendUDP per
// request, so a request/reply round is two.
func TestSendUDPAllocs(t *testing.T) {
	eng, a, b := wire(t)
	got := 0
	count := func(netip.Addr, uint16, ether.Payload) { got++ }
	b.Endpoint().BindUDP(9, count)
	b.Endpoint().JoinGroup(5, false, func(*ether.Frame) { got++ })
	b.Endpoint().EnableEcho()
	a.Endpoint().BindUDP(9, count)
	prebuilt := ippkt.NewUDP(a.IP(), b.IP(), 9, 9, 1472)
	for _, tc := range []struct {
		name string
		send func()
		want float64
	}{
		{"SendUDP", func() { a.Endpoint().SendUDP(b.IP(), 9, 9, 1472) }, 1},
		{"SendGroup", func() { a.Endpoint().SendGroup(5, 9, 9, 256) }, 1},
		{"echo round", func() { a.Endpoint().SendUDP(b.IP(), 9, EchoPort, 64) }, 2},
		{"prebuilt datagram re-sent", func() { a.Endpoint().SendIP(b.IP(), ippkt.ProtoUDP, prebuilt) }, 0},
	} {
		tc.send() // resolve ARP, grow the pool and the link rings
		eng.Run()
		before := got
		avg := testing.AllocsPerRun(200, func() {
			tc.send()
			eng.Run()
		})
		if got-before != 201 { // AllocsPerRun adds one warm-up call
			t.Fatalf("%s: %d of 201 datagrams delivered", tc.name, got-before)
		}
		if avg != tc.want {
			t.Fatalf("%s allocates %.1f objects per datagram; want %.0f", tc.name, avg, tc.want)
		}
	}
}

// An idle host is two objects, the Host and its primary Endpoint: its
// resolver, socket and group maps, and the VM map, are made on first
// insert.
func TestNewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation count; the race runtime adds its own")
	}
	eng := sim.New(1)
	p := eng.NewProc()
	ip := netip.MustParseAddr("10.0.0.1")
	if n := testing.AllocsPerRun(100, func() { New(p, "h", ether.Addr{2, 0, 0, 0, 0, 1}, ip) }); n != 2 {
		t.Fatalf("host.New allocates %.1f objects; want 2", n)
	}
}
