package baseline

import (
	"net/netip"
	"testing"
	"time"

	"portland/internal/ether"
	"portland/internal/ippkt"
	"portland/internal/sim"
	"portland/internal/topo"
)

func buildK4(t *testing.T) *Fabric {
	t.Helper()
	spec, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	f := BuildFabric(spec, 3, Config{})
	f.Start()
	if err := f.AwaitTree(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSpanningTreeElection(t *testing.T) {
	f := buildK4(t)
	// The root must be the lowest switch ID.
	var want uint32 = 1 << 31
	for _, id := range f.Spec.Switches() {
		if v := uint32(id) + 1; v < want {
			want = v
		}
	}
	for _, id := range f.Spec.Switches() {
		if got := f.Switches[id].Root(); got != want {
			t.Fatalf("%s elected root %d, want %d", f.Switches[id].Name(), got, want)
		}
	}
	// The forwarding subgraph must be loop-free: exactly V-1 tree
	// links among switches (both ends unblocked).
	n := 0
	for i, ls := range f.Spec.Links {
		a, aok := f.Switches[ls.A.Node]
		b, bok := f.Switches[ls.B.Node]
		if !aok || !bok {
			continue
		}
		if a.Forwarding(ls.A.Port) && b.Forwarding(ls.B.Port) && f.Links[i].Up() {
			n++
		}
	}
	if want := len(f.Spec.Switches()) - 1; n != want {
		t.Fatalf("forwarding subgraph has %d switch-switch links, want %d (tree)", n, want)
	}
}

func TestBaselineAllPairs(t *testing.T) {
	f := buildK4(t)
	hosts := f.HostList()
	got := make(map[string]int)
	for _, h := range hosts {
		h := h
		h.Endpoint().BindUDP(7, func(netip.Addr, uint16, ether.Payload) { got[h.Name()]++ })
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				a.Endpoint().SendUDP(b.IP(), 7, 7, 64)
			}
		}
	}
	f.RunFor(8 * time.Second)
	want := len(hosts) - 1
	for _, h := range hosts {
		if got[h.Name()] != want {
			t.Errorf("%s received %d/%d", h.Name(), got[h.Name()], want)
		}
	}
}

func TestBaselineARPFloodsEverywhere(t *testing.T) {
	f := buildK4(t)
	hosts := f.HostList()
	// One ARP resolution must be heard by every host (broadcast
	// domain = whole fabric) — the cost PortLand eliminates.
	before := make([]int64, len(hosts))
	for i, h := range hosts {
		before[i] = h.Stats.FramesIn
	}
	hosts[0].Endpoint().SendUDP(hosts[len(hosts)-1].IP(), 5, 5, 10)
	f.RunFor(1 * time.Second)
	heard := 0
	for i, h := range hosts {
		if h.Stats.FramesIn > before[i] {
			heard++
		}
	}
	if heard < len(hosts)-1 {
		t.Fatalf("broadcast ARP heard by %d/%d hosts; learning fabric must flood", heard, len(hosts))
	}
}

func TestSpanningTreeReconvergesAfterRootFailure(t *testing.T) {
	f := buildK4(t)
	// Find and crash the root.
	var rootName string
	for _, id := range f.Spec.Switches() {
		if f.Switches[id].IsRoot() {
			rootName = f.Switches[id].Name()
		}
	}
	if rootName == "" {
		t.Fatal("no root elected")
	}
	f.SwitchByName(rootName).Fail()
	// Re-election takes max-age (to expire the dead root's info) plus
	// hellos plus the forward delay.
	f.RunFor(3 * time.Second)
	var newRoot uint32
	first := true
	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		if sw.Name() == rootName {
			continue
		}
		if first {
			newRoot = sw.Root()
			first = false
		} else if sw.Root() != newRoot {
			t.Fatalf("split brain after root failure: %d vs %d (%s)", sw.Root(), newRoot, sw.Name())
		}
	}
	old := f.SwitchByName(rootName)
	if newRoot == old.Root() && rootName != "" {
		// The dead switch keeps its stale belief; survivors must have
		// moved on to the next-lowest ID.
	}
	// Traffic still flows end to end on the new tree.
	hosts := f.HostList()
	var srcH, dstH = hosts[2], hosts[13]
	n := 0
	dstH.Endpoint().BindUDP(70, func(netip.Addr, uint16, ether.Payload) { n++ })
	for i := 0; i < 10; i++ {
		srcH.Endpoint().SendUDP(dstH.IP(), 70, 70, 64)
		f.RunFor(50 * time.Millisecond)
	}
	f.RunFor(3 * time.Second)
	if n < 8 {
		t.Fatalf("delivered %d/10 after root failure", n)
	}
}

func TestBaselineFailureRecoveryIsSlow(t *testing.T) {
	// The contrast behind the paper's fault-tolerance story: STP
	// recovery waits out max-age + forward delay (~1s at our scaled
	// timers, ~50s at standard ones) where PortLand takes ~50 ms.
	f := buildK4(t)
	hosts := f.HostList()
	src, dst := hosts[0], hosts[15]
	var rec []time.Duration
	dst.Endpoint().BindUDP(71, func(netip.Addr, uint16, ether.Payload) { rec = append(rec, f.Eng.Now()) })
	tick := f.Eng.NewTicker(time.Millisecond, 0, func() { src.Endpoint().SendUDP(dst.IP(), 71, 71, 64) })
	defer tick.Stop()
	f.RunFor(2 * time.Second)
	if len(rec) < 1500 {
		t.Fatalf("warm-up delivery %d", len(rec))
	}
	// Fail a link on the current spanning tree (the root port path):
	// pick the busiest switch-switch link.
	base := make([]int64, len(f.Links))
	for i, l := range f.Links {
		base[i] = l.Delivered()
	}
	f.RunFor(100 * time.Millisecond)
	best, bestDelta := -1, int64(0)
	for i, ls := range f.Spec.Links {
		if f.Spec.Nodes[ls.A.Node].Level == topo.Host || f.Spec.Nodes[ls.B.Node].Level == topo.Host {
			continue
		}
		if d := f.Links[i].Delivered() - base[i]; d > bestDelta {
			bestDelta, best = d, i
		}
	}
	failAt := f.Eng.Now()
	f.FailLink(best)
	f.RunFor(8 * time.Second)
	// Find the recovery instant.
	var recovered time.Duration
	for _, at := range rec {
		if at > failAt {
			recovered = at
			break
		}
	}
	if recovered == 0 {
		t.Fatal("baseline never recovered")
	}
	gap := recovered - failAt
	t.Logf("baseline STP recovery after link failure: %v", gap)
	if gap < 300*time.Millisecond {
		t.Fatalf("gap %v suspiciously fast; expected max-age-bound recovery", gap)
	}
	if gap > 5*time.Second {
		t.Fatalf("gap %v; STP failed to reconverge", gap)
	}
}

func TestBPDUCodecRoundTrip(t *testing.T) {
	in := &BPDU{Root: 7, Cost: 3, Sender: 99, AgeMs: 450, TCMs: 123}
	out, err := ParseBPDU(in.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip %+v vs %+v", out, in)
	}
	if _, err := ParseBPDU(make([]byte, bpduWireLen-1)); err == nil {
		t.Fatal("short BPDU accepted")
	}
	if in.WireSize() != len(in.AppendTo(nil)) {
		t.Fatal("WireSize mismatch")
	}
}

// TestMACTablePressure pins the conventional-L2 failure mode the
// `-exp ft` sweep quantifies: with the CAM capped below the host
// count, learning keeps evicting, the table never exceeds the cap,
// and delivery survives only because evicted destinations fall back
// to flooding (more FloodCopies than the unbounded fabric needs).
func TestMACTablePressure(t *testing.T) {
	build := func(cap int) (*Fabric, int64, int64) {
		spec, err := topo.FatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		f := BuildFabric(spec, 3, Config{MACTableCap: cap})
		f.Start()
		if err := f.AwaitTree(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		hosts := f.HostList()
		got := 0
		for _, h := range hosts {
			h.Endpoint().BindUDP(7, func(netip.Addr, uint16, ether.Payload) { got++ })
		}
		for _, a := range hosts {
			for _, b := range hosts {
				if a != b {
					a.Endpoint().SendUDP(b.IP(), 7, 7, 64)
				}
			}
		}
		f.RunFor(8 * time.Second)
		if want := len(hosts) * (len(hosts) - 1); got != want {
			t.Fatalf("cap=%d delivered %d/%d", cap, got, want)
		}
		var ev, copies int64
		for _, id := range f.Spec.Switches() {
			sw := f.Switches[id]
			if cap > 0 && sw.MACTableLen() > cap {
				t.Fatalf("%s holds %d learned addresses, cap %d", sw.Name(), sw.MACTableLen(), cap)
			}
			ev += sw.Stats.MACEvictions
			copies += sw.Stats.FloodCopies
		}
		return f, ev, copies
	}
	_, ev0, copies0 := build(0) // unbounded
	if ev0 != 0 {
		t.Fatalf("unbounded fabric evicted %d", ev0)
	}
	_, ev, copies := build(6) // 16 hosts through 6-entry CAMs
	if ev == 0 {
		t.Fatal("capped CAM never evicted under 16-host all-pairs load")
	}
	if copies <= copies0 {
		t.Fatalf("table pressure should force extra flooding: %d copies capped vs %d unbounded", copies, copies0)
	}
}

// TestMACTablePressureDeterministic pins that eviction choice (LRU
// recency list, no map iteration) is reproducible run over run.
func TestMACTablePressureDeterministic(t *testing.T) {
	run := func() []int64 {
		spec, _ := topo.FatTree(4)
		f := BuildFabric(spec, 3, Config{MACTableCap: 6})
		f.Start()
		if err := f.AwaitTree(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		hosts := f.HostList()
		for _, a := range hosts {
			for _, b := range hosts {
				if a != b {
					a.Endpoint().SendUDP(b.IP(), 7, 7, 64)
				}
			}
		}
		f.RunFor(4 * time.Second)
		var sig []int64
		for _, id := range f.Spec.Switches() {
			sw := f.Switches[id]
			sig = append(sig, sw.Stats.MACEvictions, int64(sw.MACTableLen()), sw.Stats.FloodCopies)
		}
		return sig
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("signature[%d] differs across runs: %d vs %d", i, a[i], b[i])
		}
	}
}

// sink is a link peer that consumes what it is sent, as a host does.
type sink struct{ pool *ether.FramePool }

func (sink) Name() string                        { return "sink" }
func (sink) Attach(int, *sim.Link)               {}
func (sink) Start()                              {}
func (s sink) HandleFrame(_ int, f *ether.Frame) { s.pool.Put(f) }

// floodRig is one unstarted k-port switch (no BPDUs), every port wired
// to a sink and past its listening period.
func floodRig(k int) (*sim.Engine, *Switch) {
	eng := sim.New(1)
	sw := New(eng.NewProc(), 1, "sw", k+1, Config{}) // port k stays unwired
	for p := 0; p < k; p++ {
		sim.Connect(eng, sw, p, sink{eng.FramePool()}, 0, sim.LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 8})
	}
	eng.RunUntil(time.Second)
	return eng, sw
}

// Flooding is the baseline's common case (every ARP, every frame after
// a topology change): k−1 pooled clones out, the ingress frame back to
// the pool, nothing from the heap.
func TestFloodAllocFree(t *testing.T) {
	const k = 8
	eng, sw := floodRig(k)
	pool := eng.FramePool()
	payload := ether.Zeros(64)
	flood := func() {
		f := pool.Get()
		f.Dst, f.Src, f.Type, f.Payload = ether.Addr{2, 0, 0, 0, 0, 9}, ether.Addr{2, 0, 0, 0, 0, 1}, ether.TypeIPv4, payload
		sw.HandleFrame(0, f)
		eng.Run()
	}
	flood()
	parked := pool.Len()
	if avg := testing.AllocsPerRun(200, flood); avg != 0 {
		t.Fatalf("flooding one frame to %d ports allocates %.1f objects; want 0", k-1, avg)
	}
	if got := sw.Stats.FloodCopies; got != 202*(k-1) { // AllocsPerRun adds one warm-up call
		t.Fatalf("flood copies %d, want %d", got, 202*(k-1))
	}
	if pool.Len() != parked {
		t.Fatalf("pool holds %d frames at rest, %d after the first flood: frames leaked or multiplied", pool.Len(), parked)
	}
}

// Every point at which the switch consumes a frame releases it.
func TestConsumedFramesReleased(t *testing.T) {
	const k = 4
	eng, sw := floodRig(k)
	pool := eng.FramePool()
	known := ether.Addr{2, 0, 0, 0, 0, 1}
	frame := func(dst ether.Addr) *ether.Frame {
		f := pool.Get()
		f.Dst, f.Src, f.Type = dst, known, ether.TypeIPv4
		return f
	}
	f := frame(ether.Broadcast)
	sw.HandleFrame(0, f) // learns known on port 0, floods
	if !f.Recycled() {
		t.Fatal("flooded ingress frame not released")
	}
	eng.Run()
	f = frame(known)
	sw.HandleFrame(0, f)
	if !f.Recycled() {
		t.Fatal("frame for a destination behind its own ingress port not released")
	}
	f = frame(known)
	sw.send(k, f)
	if !f.Recycled() {
		t.Fatal("frame sent to an unwired port not released")
	}
	sw.ports[1].blocked = true
	f = frame(ether.Broadcast)
	sw.HandleFrame(1, f)
	if !f.Recycled() {
		t.Fatal("frame arriving on a blocked port not released")
	}
	sw.Fail()
	f = frame(ether.Broadcast)
	sw.HandleFrame(0, f)
	if !f.Recycled() {
		t.Fatal("frame arriving at a failed switch not released")
	}
}

// TestBaselineFrameOwnership is core's TestPooledFrameOwnership for the
// flat-L2 fabric: one-way UDP flows (receivers answer one ARP and never
// transmit again) across a root failure, after which every learned
// address is flushed, every frame floods, and replicas keep arriving at
// the dead root. No link tap or host receive hook may observe a
// recycled frame, and the pool must neither grow nor leak: it parks the
// same number of frames after each of two equal traffic windows, and —
// the datagrams being prebuilt — a window allocates next to nothing (a
// leaked frame is replaced from the heap, so a leak shows there).
func TestBaselineFrameOwnership(t *testing.T) {
	f := buildK4(t)
	observed := 0
	check := func(fr *ether.Frame) {
		if fr.Recycled() {
			t.Fatal("observed a frame that is parked in the free list")
		}
		observed++
	}
	for _, l := range f.Links {
		l.Tap = check
	}
	for _, h := range f.Hosts {
		h.RecvHook = check
	}
	hosts := f.HostList()
	sent, delivered := 0, 0
	for i := 0; i < len(hosts)/2; i++ {
		src, dst := hosts[i], hosts[len(hosts)-1-i]
		dst.Endpoint().BindUDP(72, func(netip.Addr, uint16, ether.Payload) { delivered++ })
		pkt := ippkt.NewUDP(src.IP(), dst.IP(), 72, 72, 64)
		tick := src.Sim().NewTicker(time.Millisecond, time.Millisecond, func() {
			sent++
			src.Endpoint().SendIP(dst.IP(), ippkt.ProtoUDP, pkt)
		})
		defer tick.Stop()
	}
	f.RunFor(time.Second)
	for _, id := range f.Spec.Switches() {
		if sw := f.Switches[id]; sw.IsRoot() {
			sw.Fail()
		}
	}
	f.RunFor(3 * time.Second) // re-election; the pool reaches its high-water mark
	pool := f.Eng.FramePool()
	flooded := func() (n int64) {
		for _, sw := range f.Switches {
			n += sw.Stats.Flooded
		}
		return n
	}
	sent, delivered = 0, 0
	floodsBefore := flooded()
	parked := make([]int, 0, 2)
	allocs := testing.AllocsPerRun(1, func() { // two runs: a warm-up and the measured one
		f.RunFor(time.Second)
		parked = append(parked, pool.Len())
	})
	// The root may be an edge switch, whose own hosts stay dark.
	if sent != 16000 || delivered < sent/2 {
		t.Fatalf("delivered %d of %d datagrams on the new tree", delivered, sent)
	}
	if got := flooded() - floodsBefore; got < int64(sent) {
		t.Fatalf("%d datagrams flooded only %d times; receivers should be unlearnable", sent, got)
	}
	if parked[0] == 0 || parked[1] != parked[0] {
		t.Fatalf("pool parks %v frames after two equal windows; want one stable non-zero level", parked)
	}
	if allocs > 500 { // ~200 BPDUs a second; a leak costs thousands
		t.Fatalf("a window of %d flooded datagrams allocated %.0f objects: frames are leaking from the pool", sent/2, allocs)
	}
	if observed == 0 {
		t.Fatal("taps observed no frames")
	}
}
