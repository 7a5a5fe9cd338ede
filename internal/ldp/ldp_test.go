package ldp

import (
	"testing"
	"testing/quick"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/pmac"
	"portland/internal/sim"
)

func TestPacketRoundTrip(t *testing.T) {
	f := func(kind uint8, sw uint32, level uint8, pod uint16, pos, cand uint8, granted bool, owner uint32) bool {
		k := PacketKind(kind%4) + KindLDM
		in := &Packet{
			Kind: k, Switch: ctrlmsg.SwitchID(sw), Level: level, Pod: pod,
			Pos: pos, Candidate: cand, Granted: granted, Owner: ctrlmsg.SwitchID(owner),
		}
		out, err := Parse(in.AppendTo(nil))
		return err == nil && *out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketParseErrors(t *testing.T) {
	if _, err := Parse(make([]byte, packetWireLen-1)); err == nil {
		t.Fatal("short packet must parse as error")
	}
	b := (&Packet{Kind: KindLDM}).AppendTo(nil)
	b[0] = 0
	if _, err := Parse(b); err == nil {
		t.Fatal("kind 0 must fail")
	}
}

// fakeEnv drives one agent in isolation.
type fakeEnv struct {
	id       ctrlmsg.SwitchID
	ports    int
	sent     []sentPkt // every SendLDP call
	resolved *ctrlmsg.Loc
	podReqs  int
	statuses []statusEvent
	updates  int
}

type sentPkt struct {
	port int
	pkt  Packet
}

type statusEvent struct {
	port int
	peer Neighbor
	up   bool
}

func (e *fakeEnv) ID() ctrlmsg.SwitchID { return e.id }
func (e *fakeEnv) NumPorts() int        { return e.ports }
func (e *fakeEnv) SendLDP(port int, p *Packet) {
	e.sent = append(e.sent, sentPkt{port, *p})
}
func (e *fakeEnv) LocationResolved(loc ctrlmsg.Loc) { e.resolved = &loc }
func (e *fakeEnv) RequestPod()                      { e.podReqs++ }
func (e *fakeEnv) PortStatus(port int, peer Neighbor, up bool) {
	e.statuses = append(e.statuses, statusEvent{port, peer, up})
}
func (e *fakeEnv) NeighborUpdate(int, Neighbor) { e.updates++ }

func ldm(sw ctrlmsg.SwitchID, level uint8, pod uint16, pos uint8) *Packet {
	return &Packet{Kind: KindLDM, Switch: sw, Level: level, Pod: pod, Pos: pos}
}

func TestCoreInference(t *testing.T) {
	eng := sim.New(1)
	env := &fakeEnv{id: 100, ports: 4}
	a := New(eng.NewProc(), env, Config{})
	a.Start()
	// Aggregation neighbors on three of four ports: not yet decisive
	// (the fourth could still turn out to be a host port).
	for p := 0; p < 3; p++ {
		a.HandleLDP(p, ldm(ctrlmsg.SwitchID(p+1), ctrlmsg.LevelAggregation, 0, PosUnknown))
	}
	if a.Level() != ctrlmsg.LevelUnknown {
		t.Fatal("must not conclude core while a port could be host-facing")
	}
	// The moment every port has an aggregation neighbor, core is the
	// only possibility — no need to wait out the silence window.
	a.HandleLDP(3, ldm(4, ctrlmsg.LevelAggregation, 0, PosUnknown))
	if a.Level() != ctrlmsg.LevelCore {
		t.Fatalf("level %d, want core", a.Level())
	}
	if a.Pod() != pmac.CorePod {
		t.Fatalf("core pod %d", a.Pod())
	}
	if env.resolved == nil {
		t.Fatal("core must resolve on level alone")
	}
}

func TestEdgeInferenceViaDataFrame(t *testing.T) {
	eng := sim.New(1)
	env := &fakeEnv{id: 5, ports: 4}
	a := New(eng.NewProc(), env, Config{})
	a.Start()
	// A data frame on port 0 marks it as a host port immediately.
	a.NoteDataFrame(0)
	if a.Level() != ctrlmsg.LevelEdge {
		t.Fatal("host traffic must imply edge")
	}
	if !a.IsHostPort(0) || a.IsHostPort(1) {
		t.Fatal("host port classification")
	}
}

func TestAggInferenceFromEdgeNeighbor(t *testing.T) {
	eng := sim.New(1)
	env := &fakeEnv{id: 6, ports: 4}
	a := New(eng.NewProc(), env, Config{})
	a.Start()
	a.HandleLDP(1, ldm(2, ctrlmsg.LevelEdge, PodUnknown, PosUnknown))
	if a.Level() != ctrlmsg.LevelAggregation {
		t.Fatal("edge neighbor must imply aggregation")
	}
	// Pod adoption from an edge that learned its pod.
	a.HandleLDP(1, ldm(2, ctrlmsg.LevelEdge, 3, 0))
	if a.Pod() != 3 {
		t.Fatalf("pod %d, want 3 (adopted)", a.Pod())
	}
	if env.resolved == nil || env.resolved.Pod != 3 {
		t.Fatal("aggregation resolves with level+pod")
	}
}

func TestEdgePositionNegotiation(t *testing.T) {
	eng := sim.New(1)
	env := &fakeEnv{id: 7, ports: 4}
	a := New(eng.NewProc(), env, Config{})
	a.Start()
	a.NoteDataFrame(0)
	a.NoteDataFrame(1)
	// Two aggregation neighbors appear.
	a.HandleLDP(2, ldm(20, ctrlmsg.LevelAggregation, PodUnknown, PosUnknown))
	a.HandleLDP(3, ldm(21, ctrlmsg.LevelAggregation, PodUnknown, PosUnknown))
	eng.RunUntil(50 * time.Millisecond) // let a tick trigger the proposal
	var prop *sentPkt
	for i := range env.sent {
		if env.sent[i].pkt.Kind == KindPosPropose {
			prop = &env.sent[i]
			break
		}
	}
	if prop == nil {
		t.Fatal("no position proposal sent")
	}
	cand := prop.pkt.Candidate
	if cand > 1 {
		t.Fatalf("candidate %d outside position space {0,1}", cand)
	}
	// Both aggs grant.
	grant := &Packet{Kind: KindPosGrant, Switch: 20, Level: ctrlmsg.LevelAggregation, Pod: PodUnknown, Pos: PosUnknown, Candidate: cand, Granted: true}
	a.HandleLDP(2, grant)
	g2 := *grant
	g2.Switch = 21
	a.HandleLDP(3, &g2)
	if a.Pos() != cand {
		t.Fatalf("pos %d after full grants, want %d", a.Pos(), cand)
	}
	if cand == 0 && env.podReqs != 1 {
		t.Fatalf("position-0 edge must request a pod (reqs=%d)", env.podReqs)
	}
	if cand != 0 && env.podReqs != 0 {
		t.Fatal("non-zero edge must not request a pod")
	}
	// Pod assignment completes resolution.
	a.SetPod(9)
	if env.resolved == nil || env.resolved.Pod != 9 || env.resolved.Pos != cand {
		t.Fatalf("resolution %v", env.resolved)
	}
}

func TestEdgePositionDenialRetries(t *testing.T) {
	eng := sim.New(3)
	env := &fakeEnv{id: 8, ports: 4}
	a := New(eng.NewProc(), env, Config{})
	a.Start()
	a.NoteDataFrame(0)
	a.HandleLDP(2, ldm(20, ctrlmsg.LevelAggregation, PodUnknown, PosUnknown))
	a.HandleLDP(3, ldm(21, ctrlmsg.LevelAggregation, PodUnknown, PosUnknown))
	eng.RunUntil(50 * time.Millisecond)
	var cand uint8 = 255
	for _, s := range env.sent {
		if s.pkt.Kind == KindPosPropose {
			cand = s.pkt.Candidate
			break
		}
	}
	if cand == 255 {
		t.Fatal("no proposal")
	}
	// Deny it; the agent must release and re-propose the other slot.
	a.HandleLDP(2, &Packet{Kind: KindPosGrant, Switch: 20, Level: ctrlmsg.LevelAggregation, Pod: PodUnknown, Pos: PosUnknown, Candidate: cand, Granted: false, Owner: 99})
	eng.RunUntil(200 * time.Millisecond)
	released, reproposed := false, false
	var cand2 uint8 = 255
	for _, s := range env.sent {
		if s.pkt.Kind == KindPosRelease && s.pkt.Candidate == cand {
			released = true
		}
		if s.pkt.Kind == KindPosPropose && s.pkt.Candidate != cand {
			reproposed = true
			cand2 = s.pkt.Candidate
		}
	}
	if !released || !reproposed {
		t.Fatalf("released=%v reproposed=%v", released, reproposed)
	}
	a.HandleLDP(2, &Packet{Kind: KindPosGrant, Switch: 20, Level: ctrlmsg.LevelAggregation, Pod: PodUnknown, Pos: PosUnknown, Candidate: cand2, Granted: true})
	a.HandleLDP(3, &Packet{Kind: KindPosGrant, Switch: 21, Level: ctrlmsg.LevelAggregation, Pod: PodUnknown, Pos: PosUnknown, Candidate: cand2, Granted: true})
	if a.Pos() != cand2 {
		t.Fatalf("pos %d after retry, want %d", a.Pos(), cand2)
	}
}

func TestAggregationGrantsFirstComeFirstServed(t *testing.T) {
	eng := sim.New(1)
	env := &fakeEnv{id: 9, ports: 4}
	a := New(eng.NewProc(), env, Config{})
	a.Start()
	a.HandleLDP(0, ldm(2, ctrlmsg.LevelEdge, PodUnknown, PosUnknown))
	env.sent = nil
	// Edge 2 proposes 0; edge 3 proposes 0 later.
	a.HandleLDP(0, &Packet{Kind: KindPosPropose, Switch: 2, Level: ctrlmsg.LevelEdge, Pod: PodUnknown, Pos: PosUnknown, Candidate: 0})
	a.HandleLDP(1, &Packet{Kind: KindPosPropose, Switch: 3, Level: ctrlmsg.LevelEdge, Pod: PodUnknown, Pos: PosUnknown, Candidate: 0})
	if len(env.sent) != 2 {
		t.Fatalf("grants sent: %d", len(env.sent))
	}
	if !env.sent[0].pkt.Granted || env.sent[0].pkt.Owner != 0 {
		t.Fatalf("first proposer must win: %+v", env.sent[0].pkt)
	}
	if env.sent[1].pkt.Granted || env.sent[1].pkt.Owner != 2 {
		t.Fatalf("second proposer must be denied with owner: %+v", env.sent[1].pkt)
	}
	// Re-proposal by the owner is re-granted (idempotent).
	a.HandleLDP(0, &Packet{Kind: KindPosPropose, Switch: 2, Level: ctrlmsg.LevelEdge, Pod: PodUnknown, Pos: PosUnknown, Candidate: 0})
	if !env.sent[2].pkt.Granted {
		t.Fatal("owner re-proposal denied")
	}
	// Release frees the claim.
	a.HandleLDP(0, &Packet{Kind: KindPosRelease, Switch: 2, Pod: PodUnknown, Pos: PosUnknown, Candidate: 0})
	a.HandleLDP(1, &Packet{Kind: KindPosPropose, Switch: 3, Level: ctrlmsg.LevelEdge, Pod: PodUnknown, Pos: PosUnknown, Candidate: 0})
	if !env.sent[3].pkt.Granted {
		t.Fatal("released claim not grantable")
	}
}

func TestMissedLDMFaultDetection(t *testing.T) {
	eng := sim.New(1)
	env := &fakeEnv{id: 10, ports: 2}
	cfg := Config{Interval: 10 * time.Millisecond}
	a := New(eng.NewProc(), env, cfg)
	a.Start()
	// Feed LDMs on port 0 every interval via a ticker, then stop.
	alive := true
	eng.NewTicker(10*time.Millisecond, 0, func() {
		if alive {
			a.HandleLDP(0, ldm(44, ctrlmsg.LevelCore, pmac.CorePod, PosUnknown))
		}
	})
	eng.RunUntil(200 * time.Millisecond)
	if len(env.statuses) != 0 {
		t.Fatalf("spurious status events: %+v", env.statuses)
	}
	stopAt := eng.Now()
	alive = false
	eng.RunUntil(stopAt + 300*time.Millisecond)
	if len(env.statuses) != 1 || env.statuses[0].up {
		t.Fatalf("statuses %+v, want one down event", env.statuses)
	}
	down := env.statuses[0]
	if down.port != 0 || down.peer.ID != 44 {
		t.Fatalf("down event %+v", down)
	}
	// Detection latency ≈ missFactor × interval (+1 tick of sweep
	// granularity).
	detect := eng.Now() // not exact; bound via statuses? use range check below
	_ = detect
	// Recovery: LDMs resume.
	alive = true
	eng.RunUntil(eng.Now() + 50*time.Millisecond)
	if len(env.statuses) != 2 || !env.statuses[1].up {
		t.Fatalf("statuses %+v, want up event after resumption", env.statuses)
	}
}

func TestAnnounceOnStateChange(t *testing.T) {
	eng := sim.New(1)
	env := &fakeEnv{id: 11, ports: 4}
	a := New(eng.NewProc(), env, Config{})
	a.Start()
	before := len(env.sent)
	a.HandleLDP(1, ldm(2, ctrlmsg.LevelEdge, PodUnknown, PosUnknown))
	// Level change must announce immediately, not wait a tick.
	found := false
	for _, s := range env.sent[before:] {
		if s.pkt.Kind == KindLDM && s.pkt.Level == ctrlmsg.LevelAggregation {
			found = true
		}
	}
	if !found {
		t.Fatal("no immediate LDM after level resolution")
	}
}
