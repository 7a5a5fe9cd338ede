package pswitch

import (
	"net/netip"
	"testing"
	"time"

	"portland/internal/arppkt"
	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/ippkt"
	"portland/internal/ldp"
	"portland/internal/pmac"
	"portland/internal/sim"
)

// recConn is a control channel that records what the switch sends.
type recConn struct{ msgs []ctrlmsg.Msg }

func (c *recConn) Send(m ctrlmsg.Msg) error { c.msgs = append(c.msgs, m); return nil }

// The edge rig's cast. The host's IP and the stale target's IP are
// owned by different manager shards of two (ShardOfIP stripes /30
// blocks), so a query sent to the wrong shard shows.
var (
	hostAMAC   = ether.Addr{0x02, 0, 0, 0, 0, 0x01}
	hostPMAC   = pmac.PMAC{Pod: 1, Position: 0, Port: 0, VMID: 1}.Addr()
	hostIP     = netip.MustParseAddr("10.0.0.1") // shard 0
	staleIP    = netip.MustParseAddr("10.0.0.4") // shard 1
	emptyPMAC  = pmac.PMAC{Pod: 1, Position: 0, Port: 1, VMID: 1}.Addr()
	movedPMAC  = pmac.PMAC{Pod: 2, Position: 1, Port: 0, VMID: 1}.Addr()
	senderPMAC = pmac.PMAC{Pod: 0, Position: 1, Port: 0, VMID: 1}.Addr()
	senderIP   = netip.MustParseAddr("10.0.9.9")
)

const uplink = 3

// sentFrame is one frame the switch transmitted, as its Tap saw it.
type sentFrame struct {
	port    int
	dst     ether.Addr
	payload ether.Payload
}

// edgeRig is one edge switch hand-resolved at pod 1, position 0: host
// ports 0–2, one aggregation uplink on port 3, every port wired to a
// sink. ctrl[i] records what the switch sends to manager shard i, and
// sent what it transmits (LDP aside).
type edgeRig struct {
	eng  *sim.Engine
	s    *Switch
	ctrl [2]*recConn
	sent []sentFrame
	ip   ippkt.IPv4 // the payload inject sends
}

func newEdgeRig(tb testing.TB) *edgeRig {
	tb.Helper()
	eng := sim.New(1)
	s := New(eng.NewProc(), 1, "edge", 4, ldp.Config{})
	r := &edgeRig{eng: eng, s: s, ctrl: [2]*recConn{{}, {}}}
	s.SetControlShards([]ctrlnet.Conn{r.ctrl[0], r.ctrl[1]})
	drain := &sink{eng: eng}
	for p := 0; p < 4; p++ {
		sim.Connect(eng, s, p, drain, p, sim.LinkConfig{Rate: 100e9, Delay: 1000, QueueFrames: 64})
	}
	s.Start()
	agg := ldp.Packet{Kind: ldp.KindLDM, Switch: 20, Level: ctrlmsg.LevelAggregation, Pod: 1, Pos: ldp.PosUnknown}
	s.agent.HandleLDP(uplink, &agg)
	for p := 0; p < uplink; p++ {
		s.agent.NoteDataFrame(p)
	}
	// One live uplink leaves one candidate position, 0: grant it.
	grant := agg
	grant.Kind, grant.Candidate, grant.Granted = ldp.KindPosGrant, 0, true
	s.agent.HandleLDP(uplink, &grant)
	if want := (ctrlmsg.Loc{Level: ctrlmsg.LevelEdge, Pod: 1, Pos: 0}); !s.Resolved() || s.Loc() != want {
		tb.Fatalf("edge resolved=%v at %v, want %v", s.Resolved(), s.Loc(), want)
	}
	s.agent.Stop() // no keepalive events from here on
	s.handleCtrlFrom(0, ctrlmsg.HostInstall{IP: hostIP, AMAC: hostAMAC, PMAC: hostPMAC})
	s.Tap = func(port int, f *ether.Frame, egress bool) {
		if egress && f.Type != ether.TypeLDP {
			r.sent = append(r.sent, sentFrame{port: port, dst: f.Dst, payload: f.Payload})
		}
	}
	r.eng.Run()
	r.ctrl[0].msgs, r.ctrl[1].msgs, r.sent = nil, nil, nil
	return r
}

// inject hands the switch, on its uplink, a frame from the remote
// sender to dst whose payload is pl (r.ip when nil).
func (r *edgeRig) inject(dst ether.Addr, pl ether.Payload) {
	if pl == nil {
		pl = &r.ip
	}
	f := r.s.pool.Get()
	f.Dst, f.Src, f.Type, f.Payload = dst, senderPMAC, ether.TypeIPv4, pl
	r.s.HandleFrame(uplink, f)
}

// to sets the destination IP inject's frames carry.
func (r *edgeRig) to(dst netip.Addr) {
	r.ip = ippkt.IPv4{TTL: 64, Protocol: ippkt.ProtoUDP, Src: senderIP, Dst: dst,
		Payload: &ippkt.UDP{SrcPort: 1, DstPort: 2}}
}

// msgs returns how many control messages the switch has sent since
// the rig was built, over both shards.
func (r *edgeRig) msgs() int { return len(r.ctrl[0].msgs) + len(r.ctrl[1].msgs) }

// query returns the one ARPQuery sent to shard, failing otherwise.
func (r *edgeRig) query(tb testing.TB, shard int) ctrlmsg.ARPQuery {
	tb.Helper()
	if r.msgs() != 1 || len(r.ctrl[shard].msgs) != 1 {
		tb.Fatalf("control messages %v / %v, want one ARPQuery to shard %d", r.ctrl[0].msgs, r.ctrl[1].msgs, shard)
	}
	q, ok := r.ctrl[shard].msgs[0].(ctrlmsg.ARPQuery)
	if !ok {
		tb.Fatalf("sent %T, want ARPQuery", r.ctrl[shard].msgs[0])
	}
	return q
}

// TestTrapUnmappedQueriesOnce: a frame to an unmapped local PMAC is
// refused and sends one query, to the shard owning its destination IP.
// Every further frame before the answer costs nothing; the answer
// becomes one unicast ARP reply into the fabric toward the sender, and
// frees the slot for the next trap.
func TestTrapUnmappedQueriesOnce(t *testing.T) {
	r := newEdgeRig(t)
	r.to(staleIP)
	r.inject(emptyPMAC, nil)
	q := r.query(t, ctrlmsg.ShardOfIP(staleIP, 2))
	want := ctrlmsg.ARPQuery{Switch: 1, QueryID: q.QueryID, SenderPMAC: senderPMAC, SenderIP: senderIP, TargetIP: staleIP}
	if q != want {
		t.Fatalf("trap query %+v, want %+v", q, want)
	}
	if r.s.Stats.StaleTraps != 1 || r.s.Stats.Dropped != 1 || len(r.sent) != 0 {
		t.Fatalf("stale traps %d, dropped %d, sent %v; want 1, 1, nothing", r.s.Stats.StaleTraps, r.s.Stats.Dropped, r.sent)
	}

	const runs = 100
	if avg := testing.AllocsPerRun(runs, func() { r.inject(emptyPMAC, nil) }); avg != 0 {
		t.Errorf("a repeat trap allocates %.2f objects; want 0", avg)
	}
	if r.msgs() != 1 || r.s.Stats.StaleTraps != runs+2 {
		t.Fatalf("%d repeats: %d control messages, %d stale traps; want 1, %d", runs+1, r.msgs(), r.s.Stats.StaleTraps, runs+2)
	}

	r.s.CtrlHandlerFor(1)(ctrlmsg.ARPAnswer{QueryID: q.QueryID, Found: true, TargetIP: staleIP, PMAC: movedPMAC})
	r.eng.RunUntil(r.eng.Now() + time.Millisecond)
	if len(r.sent) != 1 || r.s.Stats.GratuitousSent != 1 {
		t.Fatalf("answer sent %v, gratuitous %d; want one reply", r.sent, r.s.Stats.GratuitousSent)
	}
	got := r.sent[0]
	reply := arppkt.Packet{Op: arppkt.OpReply, SenderMAC: movedPMAC, SenderIP: staleIP, TargetMAC: senderPMAC, TargetIP: senderIP}
	if p, ok := got.payload.(*arppkt.Packet); !ok || got.port != uplink || got.dst != senderPMAC || *p != reply {
		t.Fatalf("correction %+v, want %+v to %v on port %d", got, reply, senderPMAC, uplink)
	}

	r.inject(emptyPMAC, nil)
	if r.msgs() != 2 {
		t.Fatalf("a trap after the answer sent %d messages in all, want 2", r.msgs())
	}
}

// TestTrapSlotExpires: an unanswered trap frees its slot when the
// parked query times out.
func TestTrapSlotExpires(t *testing.T) {
	r := newEdgeRig(t)
	r.to(staleIP)
	r.inject(emptyPMAC, nil)
	r.eng.RunUntil(r.eng.Now() + pendingARPTTL - time.Millisecond)
	r.inject(emptyPMAC, nil)
	if r.msgs() != 1 {
		t.Fatalf("%d queries before the TTL, want 1", r.msgs())
	}
	r.eng.RunUntil(r.eng.Now() + 2*time.Millisecond)
	r.inject(emptyPMAC, nil)
	if r.msgs() != 2 {
		t.Fatalf("%d queries after the TTL, want 2", r.msgs())
	}
}

// TestTrapRefusesOtherHostsIP: a PMAC that maps to a host is still
// refused when that host does not own the frame's destination IP —
// the sender's cache names an address since reissued.
func TestTrapRefusesOtherHostsIP(t *testing.T) {
	r := newEdgeRig(t)
	r.to(staleIP)
	r.inject(hostPMAC, nil)
	r.eng.Run()
	if len(r.sent) != 0 || r.s.Stats.StaleTraps != 1 {
		t.Fatalf("sent %v with %d stale traps; the frame must be trapped, not delivered", r.sent, r.s.Stats.StaleTraps)
	}
	if q := r.query(t, 1); q.TargetIP != staleIP {
		t.Fatalf("trap asked for %v, want %v", q.TargetIP, staleIP)
	}
}

// TestDeliverLocalMatchingIP: a frame for the mapped host's own IP is
// delivered to its port with the AMAC restored, without allocating.
func TestDeliverLocalMatchingIP(t *testing.T) {
	r := newEdgeRig(t)
	r.to(hostIP)
	r.inject(hostPMAC, nil)
	r.eng.Run()
	if len(r.sent) != 1 || r.sent[0].port != 0 || r.sent[0].dst != hostAMAC || r.msgs() != 0 {
		t.Fatalf("sent %v, %d control messages; want one frame to %v on port 0", r.sent, r.msgs(), hostAMAC)
	}
	r.s.Tap = nil
	deliver := func() {
		r.inject(hostPMAC, nil)
		r.eng.Run()
	}
	if avg := testing.AllocsPerRun(100, deliver); avg != 0 {
		t.Errorf("local delivery allocates %.2f objects per frame; want 0", avg)
	}
	if r.s.Stats.EgressRewrites != 102 || r.s.Stats.StaleTraps != 0 {
		t.Fatalf("egress rewrites %d, stale traps %d; want 102, 0", r.s.Stats.EgressRewrites, r.s.Stats.StaleTraps)
	}
}

// TestTrapNeedsAnIP: a frame carrying no IP names no owner to check or
// ask for, so it is dropped without a query.
func TestTrapNeedsAnIP(t *testing.T) {
	r := newEdgeRig(t)
	r.inject(hostPMAC, ether.Raw("x"))
	r.eng.Run()
	if len(r.sent) != 0 || r.msgs() != 0 || r.s.Stats.StaleTraps != 1 || r.s.Stats.Dropped != 1 {
		t.Fatalf("sent %v, %d messages, stale traps %d, dropped %d; want a silent drop",
			r.sent, r.msgs(), r.s.Stats.StaleTraps, r.s.Stats.Dropped)
	}
}

// TestTrapBatches: with punt batching armed, traps ride the same
// per-shard batch as host ARP misses.
func TestTrapBatches(t *testing.T) {
	r := newEdgeRig(t)
	r.s.SetPuntBatch(time.Millisecond)
	r.to(staleIP)
	r.inject(emptyPMAC, nil)
	r.inject(emptyPMAC, nil)
	if r.msgs() != 0 {
		t.Fatalf("%d messages before the hold timer, want 0", r.msgs())
	}
	r.eng.RunUntil(r.eng.Now() + time.Millisecond)
	if r.msgs() != 1 || len(r.ctrl[1].msgs) != 1 {
		t.Fatalf("control messages %v / %v, want one batch to shard 1", r.ctrl[0].msgs, r.ctrl[1].msgs)
	}
	b, ok := r.ctrl[1].msgs[0].(ctrlmsg.ARPQueryBatch)
	if !ok || len(b.Queries) != 1 || b.Queries[0].TargetIP != staleIP || b.Queries[0].SenderPMAC != senderPMAC {
		t.Fatalf("batch %+v, want one query for %v from %v", r.ctrl[1].msgs[0], staleIP, senderPMAC)
	}
}

// TestTrapSurvivesResync: a manager resync re-issues a parked trap
// under the stale sender's PMAC, so a registry miss still floods a
// request the real host can answer.
func TestTrapSurvivesResync(t *testing.T) {
	r := newEdgeRig(t)
	r.to(staleIP)
	r.inject(emptyPMAC, nil)
	q := r.query(t, 1)
	r.ctrl[1].msgs = nil
	r.s.CtrlHandlerFor(1)(ctrlmsg.StateSyncRequest{Epoch: 1})
	for _, m := range r.ctrl[1].msgs {
		if re, ok := m.(ctrlmsg.ARPQuery); ok {
			if re != q {
				t.Fatalf("resync re-issued %+v, want %+v", re, q)
			}
			return
		}
	}
	t.Fatalf("resync sent %v, no ARPQuery", r.ctrl[1].msgs)
}
