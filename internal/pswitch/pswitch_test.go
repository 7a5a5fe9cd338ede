package pswitch

import (
	"testing"

	"portland/internal/ctrlmsg"
	"portland/internal/ether"
	"portland/internal/ippkt"
	"portland/internal/ldp"
	"portland/internal/sim"
)

func TestFlowHashStableAndSpreads(t *testing.T) {
	mk := func(sport uint16) *ether.Frame {
		return &ether.Frame{
			Dst: ether.Addr{0, 1, 0, 0, 0, 1}, Src: ether.Addr{0, 2, 1, 0, 0, 1},
			Type: ether.TypeIPv4,
			Payload: &ippkt.IPv4{Protocol: ippkt.ProtoTCP,
				Payload: &ippkt.TCPSegment{SrcPort: sport, DstPort: 80}},
		}
	}
	// Same 5-tuple hashes identically (in-order delivery per flow).
	if flowHash(mk(1000)) != flowHash(mk(1000)) {
		t.Fatal("hash unstable for one flow")
	}
	// Different flows spread: over 64 source ports expect both
	// parities with 2 uplinks.
	buckets := map[uint32]int{}
	for p := uint16(1000); p < 1064; p++ {
		buckets[flowHash(mk(p))%2]++
	}
	if buckets[0] == 0 || buckets[1] == 0 {
		t.Fatalf("ECMP hash does not spread: %v", buckets)
	}
	// UDP ports participate as well.
	udp := &ether.Frame{Type: ether.TypeIPv4, Payload: &ippkt.IPv4{Protocol: ippkt.ProtoUDP,
		Payload: &ippkt.UDP{SrcPort: 5, DstPort: 6}}}
	udp2 := &ether.Frame{Type: ether.TypeIPv4, Payload: &ippkt.IPv4{Protocol: ippkt.ProtoUDP,
		Payload: &ippkt.UDP{SrcPort: 7, DstPort: 6}}}
	if flowHash(udp) == flowHash(udp2) {
		t.Log("note: two UDP flows collided (possible but unlikely); not fatal")
	}
}

func TestSwitchFailsClosed(t *testing.T) {
	eng := sim.New(1)
	s := New(eng.NewProc(), 1, "sw", 4, ldp.Config{})
	s.Start()
	s.Fail()
	if !s.Failed() {
		t.Fatal("Failed()")
	}
	before := s.Stats.FramesOut
	s.HandleFrame(0, &ether.Frame{Dst: ether.Broadcast, Type: ether.TypeIPv4, Payload: ether.Raw("x")})
	eng.RunUntil(eng.Now() + 1e9)
	if s.Stats.FramesOut != before {
		t.Fatal("failed switch transmitted")
	}
}

func TestRoutingStateSizeCountsEverything(t *testing.T) {
	eng := sim.New(1)
	s := New(eng.NewProc(), 1, "sw", 4, ldp.Config{})
	base := s.RoutingStateSize()
	s.mcast[7] = []int{0, 1}
	s.excl[exclKey{via: 9, pod: 1, pos: 2}] = true
	if got := s.RoutingStateSize(); got != base+3 {
		t.Fatalf("state size %d, want %d", got, base+3)
	}
}

func TestUnresolvedSwitchDropsData(t *testing.T) {
	eng := sim.New(1)
	s := New(eng.NewProc(), 1, "sw", 4, ldp.Config{})
	s.Start()
	s.HandleFrame(0, &ether.Frame{Dst: ether.Addr{0, 1, 0, 0, 0, 1}, Type: ether.TypeIPv4, Payload: ether.Raw("x")})
	if s.Stats.Dropped != 1 {
		t.Fatalf("dropped %d; pre-resolution dataplane must be down", s.Stats.Dropped)
	}
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestSortInts(t *testing.T) {
	v := []int{5, 1, 4, 1, 3}
	sortInts(v)
	for i := 1; i < len(v); i++ {
		if v[i-1] > v[i] {
			t.Fatalf("not sorted: %v", v)
		}
	}
}

// resolvedCore returns a 4-port switch hand-resolved as a core (agg
// LDMs on all ports), so a frame has somewhere to go without a full
// fabric.
func resolvedCore(tb testing.TB) (*sim.Engine, *Switch) {
	eng := sim.New(1)
	s := New(eng.NewProc(), 1, "sw", 4, ldp.Config{})
	s.Start()
	for p := 0; p < 4; p++ {
		s.agent.HandleLDP(p, &ldp.Packet{Kind: ldp.KindLDM, Switch: ctrlmsg.SwitchID(p + 10),
			Level: ctrlmsg.LevelAggregation, Pod: uint16(p), Pos: 0xff})
	}
	if !s.Resolved() {
		tb.Fatal("switch did not resolve as core")
	}
	return eng, s
}

// pod2Frame is a UDP frame addressed to a PMAC in pod 2.
func pod2Frame() *ether.Frame {
	return &ether.Frame{
		Dst:  ether.Addr{0x00, 0x02, 0x00, 0x00, 0x00, 0x01}, // pod 2
		Src:  ether.Addr{0x00, 0x01, 0x00, 0x00, 0x00, 0x01},
		Type: ether.TypeIPv4,
		Payload: &ippkt.IPv4{Protocol: ippkt.ProtoUDP,
			Payload: &ippkt.UDP{SrcPort: 1, DstPort: 2}},
	}
}

// BenchmarkForwardUnicast measures the cached fast path through one
// switch's dataplane.
func BenchmarkForwardUnicast(b *testing.B) {
	_, s := resolvedCore(b)
	f := pod2Frame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HandleFrame(0, f)
	}
	if s.Stats.Blackholed > 0 {
		b.Fatalf("blackholed %d", s.Stats.Blackholed)
	}
}

// sink is a minimal sim.Node that swallows frames (and recycles them,
// like a host NIC would).
type sink struct {
	eng *sim.Engine
	n   int64
}

func (s *sink) Name() string                      { return "sink" }
func (s *sink) Attach(int, *sim.Link)             {}
func (s *sink) HandleFrame(_ int, f *ether.Frame) { s.n++; s.eng.FramePool().Put(f) }

// hitRig wires resolvedCore's ports to a sink over real links and
// warms the flow table and candidate cache with one frame, so that
// hit() is the full flow-table-hit unit of work — HandleFrame, flow
// lookup, Link.Send, delivery event: what every fabric hop costs in
// steady state.
type hitRig struct {
	eng   *sim.Engine
	s     *Switch
	drain *sink
	f     *ether.Frame
}

func newHitRig(tb testing.TB) *hitRig {
	eng, s := resolvedCore(tb)
	r := &hitRig{eng: eng, s: s, drain: &sink{eng: eng}, f: pod2Frame()}
	for p := 0; p < 4; p++ {
		sim.Connect(eng, s, p, r.drain, p, sim.LinkConfig{Rate: 100e9, Delay: 1000, QueueFrames: 64})
	}
	s.agent.Stop() // no keepalive events during measurement
	r.hit()
	return r
}

func (r *hitRig) hit() {
	r.s.HandleFrame(0, r.f)
	r.eng.Run()
}

// check fails unless every one of the n hits since newHitRig (plus its
// warm-up) was forwarded to the sink.
func (r *hitRig) check(tb testing.TB, n int) {
	if r.s.Stats.Blackholed > 0 || r.s.Stats.Dropped > 0 {
		tb.Fatalf("blackholed %d dropped %d", r.s.Stats.Blackholed, r.s.Stats.Dropped)
	}
	if r.drain.n != int64(n)+1 {
		tb.Fatalf("sink got %d/%d", r.drain.n, n+1)
	}
}

// TestForwardUnicastHitAllocFree: the steady-state hop must not
// allocate, and must deliver every frame it is handed.
func TestForwardUnicastHitAllocFree(t *testing.T) {
	r := newHitRig(t)
	const runs = 1000
	if avg := testing.AllocsPerRun(runs, r.hit); avg != 0 {
		t.Errorf("flow-table hit allocates %.2f objects per frame; want 0", avg)
	}
	r.check(t, runs+1) // AllocsPerRun adds one warm-up call
}

// BenchmarkForwardUnicastHit times the unit of work that
// TestForwardUnicastHitAllocFree holds at 0 allocs.
func BenchmarkForwardUnicastHit(b *testing.B) {
	r := newHitRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.hit()
	}
	r.check(b, b.N)
}
