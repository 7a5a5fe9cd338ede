package tcplite

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"portland/internal/ippkt"
	"portland/internal/sim"
)

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	eng := sim.New(1)
	a, b := newPair(eng, 100*time.Microsecond)
	dropped := false
	a.drop = func(seg *ippkt.TCPSegment) bool {
		// Drop exactly one data segment mid-stream.
		if !dropped && seg.Seq > 50000 && seg.Payload != nil && seg.Payload.WireSize() > 0 {
			dropped = true
			return true
		}
		return false
	}
	b.conn = Accept(b, a.ip, 80, 1234, Config{})
	a.conn = Dial(a, b.ip, 1234, 80, Config{})
	a.conn.Queue(1 << 20)
	eng.RunUntil(5 * time.Second)
	if got := b.conn.Delivered(); got != 1<<20 {
		t.Fatalf("delivered %d", got)
	}
	if a.conn.Stats.FastRetrans == 0 {
		t.Fatal("single loss with continuing dupACKs must fast-retransmit")
	}
	if a.conn.Stats.Timeouts != 0 {
		t.Fatalf("RTO fired (%d) where fast retransmit sufficed", a.conn.Stats.Timeouts)
	}
}

func TestRTORecoversBlackout(t *testing.T) {
	eng := sim.New(1)
	a, b := newPair(eng, 100*time.Microsecond)
	blackout := false
	a.drop = func(*ippkt.TCPSegment) bool { return blackout }
	b.drop = func(*ippkt.TCPSegment) bool { return blackout }
	b.conn = Accept(b, a.ip, 80, 1234, Config{})
	a.conn = Dial(a, b.ip, 1234, 80, Config{})
	a.conn.Queue(1 << 20)
	eng.RunUntil(500 * time.Millisecond)
	mid := b.conn.Delivered()
	if mid != 1<<20 {
		t.Fatal("no progress before blackout")
	}
	// Queue more while the path is dark: every transmission is lost
	// and only the retransmission timer can recover.
	blackout = true
	a.conn.Queue(1 << 20)
	eng.RunUntil(eng.Now() + 700*time.Millisecond)
	blackout = false
	eng.RunUntil(eng.Now() + 10*time.Second)
	if got := b.conn.Delivered(); got != 2<<20 {
		t.Fatalf("delivered %d after blackout, want all", got)
	}
	if a.conn.Stats.Timeouts == 0 {
		t.Fatal("blackout must trigger RTO")
	}
	// Exponential backoff: RTO grew during the blackout and the
	// smoothed estimate recovers afterwards.
	if a.conn.RTO() > 10*time.Second {
		t.Fatalf("RTO %v did not come back down", a.conn.RTO())
	}
}

func TestMinRTOHonored(t *testing.T) {
	eng := sim.New(1)
	a, b := newPair(eng, 10*time.Microsecond)
	b.conn = Accept(b, a.ip, 80, 1234, Config{})
	a.conn = Dial(a, b.ip, 1234, 80, Config{})
	a.conn.Queue(1 << 20)
	eng.RunUntil(2 * time.Second)
	// With ~20µs RTTs the computed RTO would be microseconds; the
	// floor must hold it at 200ms (the paper's convergence anchor).
	if a.conn.RTO() < 200*time.Millisecond {
		t.Fatalf("RTO %v under the floor", a.conn.RTO())
	}
	if a.conn.SRTT() > time.Millisecond {
		t.Fatalf("SRTT %v implausible for a µs pipe", a.conn.SRTT())
	}
}

func TestRandomLossEventuallyDeliversAll(t *testing.T) {
	f := func(seed uint64, lossPct uint8) bool {
		loss := float64(lossPct%20) / 100 // 0–19%
		eng := sim.New(seed + 1)
		rng := rand.New(rand.NewPCG(seed, seed^0xdead))
		a, b := newPair(eng, 200*time.Microsecond)
		a.drop = func(seg *ippkt.TCPSegment) bool {
			// Never drop handshake segments: this property targets
			// data-path recovery.
			if seg.HasFlag(ippkt.FlagSYN) {
				return false
			}
			return rng.Float64() < loss
		}
		b.drop = a.drop
		b.conn = Accept(b, a.ip, 80, 1234, Config{})
		a.conn = Dial(a, b.ip, 1234, 80, Config{})
		const total = 256 << 10
		a.conn.Queue(total)
		// Run in virtual-time chunks until the transfer completes,
		// failing only if a chunk makes no progress at all. A chunk of
		// 2×maxRTO guarantees at least one retransmission opportunity
		// even at the deepest backoff, so the property has no tuned
		// wall-of-virtual-time deadline to flake against: any seed that
		// can recover does, and a genuinely stuck connection (no new
		// bytes and no timer fire across a full backoff interval) fails
		// deterministically.
		chunk := 2 * maxRTO
		for b.conn.Delivered() < total {
			before := b.conn.Delivered()
			timeouts := a.conn.Stats.Timeouts
			retrans := a.conn.Stats.FastRetrans
			eng.RunUntil(eng.Now() + chunk)
			if b.conn.Delivered() == before &&
				a.conn.Stats.Timeouts == timeouts &&
				a.conn.Stats.FastRetrans == retrans {
				t.Logf("seed %d loss %.0f%%: stalled at %d/%d bytes after %v",
					seed, loss*100, before, total, eng.Now())
				return false
			}
		}
		return b.conn.Delivered() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	eng := sim.New(1)
	a, b := newPair(eng, 100*time.Microsecond)
	b.conn = Accept(b, a.ip, 80, 1234, Config{})
	a.conn = Dial(a, b.ip, 1234, 80, Config{})
	eng.Run()
	if b.conn.State() != StateEstablished {
		t.Fatal("handshake")
	}
	// Hand-deliver segments out of order.
	mss := 1000
	seg := func(seq uint32) *ippkt.TCPSegment {
		return &ippkt.TCPSegment{SrcPort: 1234, DstPort: 80, Seq: seq, Ack: 1,
			Flags: ippkt.FlagACK, Payload: rawN(mss)}
	}
	b.conn.HandleSegment(seg(1 + 1000))
	b.conn.HandleSegment(seg(1 + 2000))
	if b.conn.Delivered() != 0 {
		t.Fatal("out-of-order data delivered early")
	}
	b.conn.HandleSegment(seg(1))
	if b.conn.Delivered() != 3000 {
		t.Fatalf("delivered %d after hole filled, want 3000", b.conn.Delivered())
	}
	// Duplicate of an old segment leaves the count unchanged.
	b.conn.HandleSegment(seg(1))
	if b.conn.Delivered() != 3000 {
		t.Fatal("duplicate advanced the stream")
	}
}

func rawN(n int) interface {
	AppendTo([]byte) []byte
	WireSize() int
} {
	return payloadN(n)
}

type payloadN int

func (p payloadN) AppendTo(b []byte) []byte { return append(b, make([]byte, int(p))...) }
func (p payloadN) WireSize() int            { return int(p) }

func TestCwndGrowth(t *testing.T) {
	eng := sim.New(1)
	a, b := newPair(eng, 500*time.Microsecond)
	b.conn = Accept(b, a.ip, 80, 1234, Config{})
	a.conn = Dial(a, b.ip, 1234, 80, Config{})
	start := a.conn.Cwnd()
	a.conn.Queue(4 << 20)
	eng.RunUntil(time.Second)
	if a.conn.Cwnd() <= start {
		t.Fatalf("cwnd did not grow: %d -> %d", start, a.conn.Cwnd())
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateClosed: "closed", StateSynSent: "syn-sent",
		StateSynReceived: "syn-received", StateEstablished: "established",
		State(9): "state9",
	} {
		if s.String() != want {
			t.Errorf("%d: %q", int(s), s.String())
		}
	}
}
