package sim

import (
	"slices"
	"testing"
	"time"

	"portland/internal/ether"
)

func TestEngineOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	e.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	if n := e.Run(); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock %v", e.Now())
	}
}

func TestEngineTieBreakIsInsertionOrder(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie broken out of insertion order: %v", order)
		}
	}
}

func TestScheduleFromEvent(t *testing.T) {
	e := New(1)
	hits := 0
	e.Schedule(time.Millisecond, func() {
		e.Schedule(time.Millisecond, func() { hits++ })
	})
	e.Run()
	if hits != 1 || e.Now() != 2*time.Millisecond {
		t.Fatalf("hits=%d now=%v", hits, e.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(5*time.Second, func() { fired = true })
	e.RunUntil(1 * time.Second)
	if fired {
		t.Fatal("future event fired early")
	}
	if e.Now() != 1*time.Second {
		t.Fatalf("clock %v after RunUntil", e.Now())
	}
	e.RunUntil(10 * time.Second)
	if !fired || e.Now() != 10*time.Second {
		t.Fatalf("fired=%v now=%v", fired, e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New(1)
	e.RunUntil(time.Second)
	ran := false
	e.Schedule(-5*time.Second, func() { ran = true })
	e.Run()
	if !ran || e.Now() != time.Second {
		t.Fatal("negative delay must run now, not in the past")
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	e.Schedule(1, func() { n++; e.Stop() })
	e.Schedule(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("Stop did not halt the loop: n=%d", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending=%d", e.Pending())
	}
}

// eachSched runs fn against the three scheduling surfaces timers and
// tickers are built on: the engine root, an entity's Proc, and a
// domain's exclusive stream (one shard, so e.Run drives all three).
func eachSched(t *testing.T, fn func(t *testing.T, e *Engine, s Sched)) {
	t.Run("engine", func(t *testing.T) { e := New(7); fn(t, e, e) })
	t.Run("proc", func(t *testing.T) { e := New(7); fn(t, e, e.NewProc()) })
	t.Run("domain", func(t *testing.T) { d := NewDomain(7, 1); fn(t, d.Engine(0), d) })
}

func TestTimerStopAndReset(t *testing.T) {
	eachSched(t, func(t *testing.T, e *Engine, s Sched) {
		fires := 0
		tm := s.NewTimer(func() { fires++ })
		tm.Reset(10 * time.Millisecond)
		tm.Stop()
		e.Run()
		if fires != 0 {
			t.Fatal("stopped timer fired")
		}
		tm.Reset(10 * time.Millisecond)
		tm.Reset(30 * time.Millisecond) // reschedule invalidates the first
		e.Run()
		if fires != 1 {
			t.Fatalf("timer fired %d times after double Reset", fires)
		}
		if e.Now() != 40*time.Millisecond {
			t.Fatalf("fired at %v, want 40ms", e.Now())
		}
		if tm.Armed() {
			t.Fatal("timer still armed after firing")
		}
	})
}

func TestTickerStop(t *testing.T) {
	eachSched(t, func(t *testing.T, e *Engine, s Sched) {
		ticks := 0
		var tk *Ticker
		tk = s.NewTicker(10*time.Millisecond, 0, func() {
			ticks++
			if ticks == 3 {
				tk.Stop()
			}
		})
		e.RunUntil(time.Second)
		if ticks != 3 {
			t.Fatalf("ticks=%d", ticks)
		}
	})
}

func TestTickerJitterWithinBound(t *testing.T) {
	eachSched(t, func(t *testing.T, e *Engine, s Sched) {
		var first time.Duration
		tk := s.NewTicker(10*time.Millisecond, 10*time.Millisecond, func() {
			if first == 0 {
				first = e.Now()
			}
		})
		e.RunUntil(50 * time.Millisecond)
		tk.Stop()
		if first <= 0 || first > 10*time.Millisecond {
			t.Fatalf("first jittered tick at %v", first)
		}
	})
}

// node is a minimal sim.Node for link tests.
type node struct {
	name string
	got  []*ether.Frame
	at   []time.Duration
	eng  *Engine
}

func (n *node) Name() string      { return n.name }
func (n *node) Attach(int, *Link) {}
func (n *node) HandleFrame(_ int, f *ether.Frame) {
	n.got = append(n.got, f)
	n.at = append(n.at, n.eng.Now())
}

// linkRig is two nodes joined by one link, either on a standalone
// engine (the sim.Connect spelling) or on a Domain with a on shard 0 and
// b on the last shard, so that with two shards every frame crosses the
// epoch mailboxes.
type linkRig struct {
	a, b  *node
	l     *Link
	sched Sched  // for test actions: the engine, or the domain's exclusive stream
	run   func() // runs to quiescence
}

func newLinkRig(seed uint64, shards int, cfg LinkConfig) *linkRig {
	if shards == 0 {
		e := New(seed)
		r := &linkRig{a: &node{name: "a", eng: e}, b: &node{name: "b", eng: e}, sched: e, run: func() { e.Run() }}
		r.l = Connect(e, r.a, 0, r.b, 0, cfg)
		return r
	}
	d := NewDomain(seed, shards)
	ea, eb := d.Engine(0), d.Engine(shards-1)
	r := &linkRig{a: &node{name: "a", eng: ea}, b: &node{name: "b", eng: eb}, sched: d}
	r.run = func() {
		for d.Pending() > 0 {
			d.RunUntil(d.Now() + time.Second)
		}
	}
	r.l = d.Connect(ea, eb, r.a, 0, r.b, 0, cfg)
	return r
}

// eachLinkLayout runs fn on one engine, on a one-shard domain and on a
// two-shard domain: a link test's expectations are layout-independent.
func eachLinkLayout(t *testing.T, fn func(t *testing.T, shards int)) {
	for shards, name := range []string{"engine", "domain-1", "domain-2"} {
		t.Run(name, func(t *testing.T) { fn(t, shards) })
	}
}

// numbered is a data frame whose payload carries its index.
func numbered(i int) *ether.Frame {
	return &ether.Frame{Type: ether.TypeIPv4, Payload: ether.Raw{byte(i >> 8), byte(i)}}
}

// indices decodes the payloads of numbered frames.
func indices(frames []*ether.Frame) []int {
	out := make([]int, len(frames))
	for i, f := range frames {
		p := f.Payload.(ether.Raw)
		out[i] = int(p[0])<<8 | int(p[1])
	}
	return out
}

func TestLinkDelivery(t *testing.T) {
	eachLinkLayout(t, func(t *testing.T, shards int) {
		r := newLinkRig(1, shards, LinkConfig{Rate: 1e9, Delay: 5 * time.Microsecond, QueueFrames: 4})
		tapped := 0
		r.l.Tap = func(*ether.Frame) { tapped++ }
		f := &ether.Frame{Type: ether.TypeIPv4, Payload: ether.Raw(make([]byte, 986))} // 1000B + 14 hdr
		r.l.Send(r.a, f)
		r.run()
		if len(r.b.got) != 1 || tapped != 1 {
			t.Fatalf("delivered %d, tapped %d; want 1/1", len(r.b.got), tapped)
		}
		// 1004 bytes on the wire (incl FCS) at 1 Gbps = 8.032 µs + 5 µs.
		want := time.Duration(f.WireSize()*8) + 5*time.Microsecond
		if r.b.at[0] != want {
			t.Fatalf("arrival %v, want %v", r.b.at[0], want)
		}
	})
}

func TestLinkSerializationQueuing(t *testing.T) {
	eachLinkLayout(t, func(t *testing.T, shards int) {
		r := newLinkRig(1, shards, LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 10})
		for i := 0; i < 3; i++ {
			r.l.Send(r.a, &ether.Frame{Payload: ether.Raw(make([]byte, 986))})
		}
		r.run()
		if len(r.b.at) != 3 {
			t.Fatalf("delivered %d/3", len(r.b.at))
		}
		ser := time.Duration(1004 * 8)
		for i, at := range r.b.at {
			if want := ser*time.Duration(i+1) + time.Microsecond; at != want {
				t.Fatalf("frame %d arrived %v, want %v (store-and-forward)", i, at, want)
			}
		}
	})
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	eachLinkLayout(t, func(t *testing.T, shards int) {
		r := newLinkRig(1, shards, LinkConfig{Rate: 1e6, Delay: time.Microsecond, QueueFrames: 2})
		for i := 0; i < 5; i++ {
			r.l.Send(r.a, &ether.Frame{Payload: ether.Raw(make([]byte, 100))})
		}
		// LDP rides the strict-priority class: never tail-dropped.
		r.l.Send(r.a, &ether.Frame{Type: ether.TypeLDP, Payload: ether.Raw(make([]byte, 100))})
		r.run()
		l := r.l
		if len(r.b.got) != 3 || r.b.got[2].Type != ether.TypeLDP || l.Drops() != 3 {
			t.Fatalf("delivered=%d drops=%d, want 2 data + LDP / 3", len(r.b.got), l.Drops())
		}
		if l.QueueDrops() != 3 || l.LossDrops() != 0 || l.DownDrops() != 0 {
			t.Fatalf("drop causes queue=%d loss=%d down=%d, want 3/0/0",
				l.QueueDrops(), l.LossDrops(), l.DownDrops())
		}
	})
}

// The egress queue holds frames until their serialization ends, not
// until they are delivered: a frame still propagating has left the
// transmitter and frees its slot. (The receiver pops the in-flight ring
// on another shard; it must not feed back into transmit decisions.)
func TestLinkQueueFreedAtSerializationEnd(t *testing.T) {
	eachLinkLayout(t, func(t *testing.T, shards int) {
		// 118 wire bytes at 1 Mbps serialize in 944 µs; delivery is 10 ms on.
		r := newLinkRig(1, shards, LinkConfig{Rate: 1e6, Delay: 10 * time.Millisecond, QueueFrames: 2})
		send := func(i int) {
			f := numbered(i)
			f.Payload = append(f.Payload.(ether.Raw), make([]byte, 98)...)
			r.l.Send(r.a, f)
		}
		send(0)
		send(1)
		send(2) // queue holds 0 and 1: dropped
		// At 1 ms frame 0 is on the wire (undelivered) and 1 is serializing.
		r.sched.Schedule(time.Millisecond, func() {
			send(3) // takes the slot frame 0 left
			send(4) // queue holds 1 and 3: dropped
		})
		r.run()
		if got := indices(r.b.got); !slices.Equal(got, []int{0, 1, 3}) {
			t.Fatalf("delivered %v, want [0 1 3]", got)
		}
		if r.l.QueueDrops() != 2 {
			t.Fatalf("QueueDrops=%d, want 2", r.l.QueueDrops())
		}
		ser := 944 * time.Microsecond
		for i, want := range []time.Duration{ser, 2 * ser, 3 * ser} {
			if at := r.b.at[i]; at != want+10*time.Millisecond {
				t.Fatalf("frame %d arrived %v, want %v", i, at, want+10*time.Millisecond)
			}
		}
	})
}

// Drops is the sum of per-cause counters; each loss mechanism must
// charge its own counter so experiments can tell congestion from
// faults from injected bit errors. At rest, RxStats is the direction's
// transmitter-owned half plus its receiver-owned half.
func TestLinkDropAccountingByCause(t *testing.T) {
	eachLinkLayout(t, func(t *testing.T, shards int) {
		r := newLinkRig(7, shards, LinkConfig{Rate: 1e9, Delay: time.Millisecond, QueueFrames: 8, LossRate: 0.5})
		l, a, b := r.l, r.a, r.b
		for i := 0; i < 64; i++ {
			l.Send(a, &ether.Frame{Payload: ether.Raw("x")})
		}
		l.Send(b, &ether.Frame{Payload: ether.Raw("reverse")})
		r.run()
		l.SetUp(false)
		l.Send(a, &ether.Frame{Payload: ether.Raw("y")})
		r.run()
		if l.LossDrops() == 0 {
			t.Fatal("LossRate drops not charged to LossDrops")
		}
		if l.DownDrops() != 1 {
			t.Fatalf("DownDrops=%d, want 1", l.DownDrops())
		}
		if l.Drops() != l.QueueDrops()+l.LossDrops()+l.DownDrops() {
			t.Fatalf("Drops=%d is not the sum of causes %d+%d+%d",
				l.Drops(), l.QueueDrops(), l.LossDrops(), l.DownDrops())
		}
		if int64(len(a.got)+len(b.got))+l.Drops() != 66 {
			t.Fatal("conservation violated")
		}
		toB, toA := l.RxStats(b), l.RxStats(a)
		wantB := DirStats{
			Delivered:  int64(len(b.got)),
			QueueDrops: l.ab.tx.QueueDrops,
			LossDrops:  l.ab.rx.LossDrops,
			DownDrops:  l.ab.tx.DownDrops + l.ab.rx.DownDrops,
		}
		if toB != wantB || toB.QueueDrops != 56 || toB.DownDrops != 1 {
			t.Fatalf("RxStats(b)=%+v, want %+v with 56 queue drops and 1 down drop", toB, wantB)
		}
		if toA.Delivered+toA.LossDrops != 1 || toA.QueueDrops != 0 || toA.DownDrops != 0 {
			t.Fatalf("RxStats(a)=%+v, want the one reverse frame delivered or lost", toA)
		}
		if l.Delivered() != toA.Delivered+toB.Delivered || l.RxWireErrs(b) != toB.LossDrops {
			t.Fatalf("Delivered=%d RxWireErrs(b)=%d disagree with RxStats %+v / %+v",
				l.Delivered(), l.RxWireErrs(b), toA, toB)
		}
	})
}

func TestLinkDownDropsInFlight(t *testing.T) {
	eachLinkLayout(t, func(t *testing.T, shards int) {
		r := newLinkRig(1, shards, LinkConfig{Rate: 1e9, Delay: time.Millisecond, QueueFrames: 8})
		l, a, b := r.l, r.a, r.b
		l.Send(a, &ether.Frame{Payload: ether.Raw("x")})
		r.sched.Schedule(100*time.Microsecond, func() { l.SetUp(false) })
		r.run()
		if len(b.got) != 0 || l.Up() {
			t.Fatal("in-flight frame survived link failure")
		}
		if s := l.RxStats(b); s.DownDrops != 1 {
			t.Fatalf("in-flight loss not charged to the receiver half: %+v", s)
		}
		// Down link swallows new frames silently.
		l.Send(a, &ether.Frame{Payload: ether.Raw("y")})
		r.run()
		if len(b.got) != 0 {
			t.Fatal("down link delivered")
		}
		// Recovery.
		l.SetUp(true)
		l.Send(a, &ether.Frame{Payload: ether.Raw("z")})
		r.run()
		if len(b.got) != 1 {
			t.Fatal("restored link did not deliver")
		}
	})
}

func TestLinkFullDuplex(t *testing.T) {
	eachLinkLayout(t, func(t *testing.T, shards int) {
		r := newLinkRig(1, shards, LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 8})
		r.l.Send(r.a, &ether.Frame{Payload: ether.Raw("ab")})
		r.l.Send(r.b, &ether.Frame{Payload: ether.Raw("ba")})
		r.run()
		if len(r.a.got) != 1 || len(r.b.got) != 1 {
			t.Fatal("full duplex broken")
		}
		// Directions must not share the transmitter: both arrive at the
		// same instant.
		if r.a.at[0] != r.b.at[0] {
			t.Fatalf("asymmetric delivery: %v vs %v", r.a.at[0], r.b.at[0])
		}
	})
}

// Wiring rules: a zero config takes the default, a cross-shard link
// registers its delay as the pair's lookahead, and misuse panics.
func TestLinkWiring(t *testing.T) {
	d := NewDomain(1, 2)
	a, b := &node{name: "a", eng: d.Engine(0)}, &node{name: "b", eng: d.Engine(1)}
	l := d.Connect(d.Engine(0), d.Engine(1), a, 0, b, 0, LinkConfig{})
	if l.Config() != DefaultLinkConfig {
		t.Fatalf("zero config became %+v", l.Config())
	}
	if d.pairLook(0, 1) != DefaultLinkConfig.Delay || d.pairLook(1, 0) != DefaultLinkConfig.Delay {
		t.Fatalf("cross-shard link registered lookahead %v/%v", d.pairLook(0, 1), d.pairLook(1, 0))
	}
	if l.String() != "a[0]<->b[0]" {
		t.Fatalf("String() = %q", l.String())
	}
	mustPanic := func(what string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	stranger := &node{name: "c", eng: d.Engine(0)}
	mustPanic("Send from a node not on the link", func() { l.Send(stranger, &ether.Frame{}) })
	mustPanic("RxStats of a node not on the link", func() { l.RxStats(stranger) })
	mustPanic("Domain.Connect with a foreign engine", func() {
		d.Connect(d.Engine(0), New(1), a, 1, b, 1, LinkConfig{})
	})
}

func TestLinkPeerAndPorts(t *testing.T) {
	e := New(1)
	a := &node{name: "a", eng: e}
	b := &node{name: "b", eng: e}
	l := Connect(e, a, 3, b, 7, LinkConfig{Rate: 1e9, QueueFrames: 1})
	if p, port := l.Peer(a); p != b || port != 7 {
		t.Fatal("Peer(a)")
	}
	if p, port := l.Peer(b); p != a || port != 3 {
		t.Fatal("Peer(b)")
	}
	if l.LocalPort(a) != 3 || l.LocalPort(b) != 7 {
		t.Fatal("LocalPort")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := New(99)
		a := &node{name: "a", eng: e}
		b := &node{name: "b", eng: e}
		l := Connect(e, a, 0, b, 0, LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 64})
		e.NewTicker(time.Duration(e.Rand().Int64N(1000))+1, 0, func() {
			l.Send(a, &ether.Frame{Payload: ether.Raw(make([]byte, e.Rand().IntN(100)+1))})
		})
		e.RunUntil(time.Millisecond)
		return b.at
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("non-deterministic event counts: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("non-deterministic timing at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

// Wire-loss and gray coins are flipped at delivery from the receiving
// direction's own stream, so which frames survive depends on the seed
// alone — not on whether the two ends share a shard.
func TestLinkLossRate(t *testing.T) {
	const n = 4000
	var survivors [2][]int
	for shards := 1; shards <= 2; shards++ {
		r := newLinkRig(5, shards, LinkConfig{Rate: 1e12, Delay: time.Microsecond, QueueFrames: 1 << 20, LossRate: 0.25})
		for i := 0; i < n; i++ {
			r.l.Send(r.a, numbered(i))
		}
		r.run()
		loss := float64(r.l.Drops()) / n
		if loss < 0.2 || loss > 0.3 || r.l.Drops() != r.l.LossDrops() {
			t.Fatalf("loss rate %.3f (%d of %d drops are loss drops), want ~0.25", loss, r.l.LossDrops(), r.l.Drops())
		}
		if len(r.b.got)+int(r.l.Drops()) != n {
			t.Fatal("conservation violated")
		}
		survivors[shards-1] = indices(r.b.got)
	}
	if !slices.Equal(survivors[0], survivors[1]) {
		t.Fatal("LossRate survivors differ between a one-shard and a two-shard domain")
	}
}

// A gray failure drops data toward one end only, never LDP keepalives,
// and — like LossRate — identically on every shard layout.
func TestLinkGrayLoss(t *testing.T) {
	const n = 2000
	var survivors [2][]int
	for shards := 1; shards <= 2; shards++ {
		r := newLinkRig(9, shards, LinkConfig{Rate: 1e12, Delay: time.Microsecond, QueueFrames: 1 << 20})
		r.l.SetGrayLoss(0, 0.5)
		if toA, toB := r.l.GrayLoss(); toA != 0 || toB != 0.5 {
			t.Fatalf("GrayLoss() = %v, %v", toA, toB)
		}
		for i := 0; i < n; i++ {
			r.l.Send(r.a, numbered(i))
			r.l.Send(r.a, &ether.Frame{Type: ether.TypeLDP, Payload: ether.Raw("ldm")})
			r.l.Send(r.b, numbered(i))
		}
		r.run()
		if len(r.a.got) != n {
			t.Fatalf("clean direction delivered %d of %d", len(r.a.got), n)
		}
		var data []*ether.Frame
		for _, f := range r.b.got {
			if f.Type != ether.TypeLDP {
				data = append(data, f)
			}
		}
		if ldp := len(r.b.got) - len(data); ldp != n {
			t.Fatalf("gray failure dropped LDP keepalives: %d of %d delivered", ldp, n)
		}
		gray := r.l.GrayDrops()
		if gray < n*4/10 || gray > n*6/10 || len(data)+int(gray) != n {
			t.Fatalf("gray rate 0.5 dropped %d and delivered %d of %d", gray, len(data), n)
		}
		if r.l.RxWireErrs(r.b) != gray || r.l.RxWireErrs(r.a) != 0 {
			t.Fatalf("RxWireErrs b=%d a=%d, want %d/0", r.l.RxWireErrs(r.b), r.l.RxWireErrs(r.a), gray)
		}
		survivors[shards-1] = indices(data)
	}
	if !slices.Equal(survivors[0], survivors[1]) {
		t.Fatal("gray-loss survivors differ between a one-shard and a two-shard domain")
	}
}
