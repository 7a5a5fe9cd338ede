package ctrlnet

import (
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/sim"
)

// simPipe builds a pipe on a fresh domain: end a on shard 0, end b on
// the last shard — the same engine when shards is 1, across the epoch
// mailboxes when it is 2.
func simPipe(seed uint64, shards int, cfg PipeConfig) (*sim.Domain, *SimConn, *SimConn) {
	d := sim.NewDomain(seed, shards)
	a, b := SimPipe(d, d.Engine(0), d.Engine(shards-1), cfg)
	return d, a, b
}

// quiesce runs the domain until nothing is queued.
func quiesce(d *sim.Domain) {
	for d.Pending() > 0 {
		d.RunUntil(d.Now() + time.Second)
	}
}

// eachLayout runs fn with both ends on one shard and with the ends on
// two shards.
func eachLayout(t *testing.T, fn func(t *testing.T, shards int)) {
	t.Run("same-shard", func(t *testing.T) { fn(t, 1) })
	t.Run("cross-shard", func(t *testing.T) { fn(t, 2) })
}

func TestSimPipeDeliveryAndLatency(t *testing.T) {
	eachLayout(t, func(t *testing.T, shards int) {
		d, a, b := simPipe(1, shards, PipeConfig{Delay: 50 * time.Microsecond})
		var gotB, gotA []ctrlmsg.Msg
		var at []time.Duration
		b.SetHandler(func(m ctrlmsg.Msg) {
			gotB = append(gotB, m)
			at = append(at, b.Sched().Now())
		})
		a.SetHandler(func(m ctrlmsg.Msg) { gotA = append(gotA, m) })
		if err := a.Send(ctrlmsg.Hello{Switch: 1}); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(ctrlmsg.PodAssign{Pod: 3}); err != nil {
			t.Fatal(err)
		}
		// The reverse direction is its own FIFO.
		for i := uint64(0); i < 3; i++ {
			if err := b.Send(ctrlmsg.ARPAnswer{QueryID: i}); err != nil {
				t.Fatal(err)
			}
		}
		quiesce(d)
		if len(gotB) != 2 || gotB[0] != (ctrlmsg.Hello{Switch: 1}) || gotB[1] != (ctrlmsg.PodAssign{Pod: 3}) {
			t.Fatalf("a→b messages %v", gotB)
		}
		if at[0] != 50*time.Microsecond || at[1] != at[0] {
			t.Fatalf("arrivals %v, want both at the pipe delay", at)
		}
		for i, m := range gotA {
			if m.(ctrlmsg.ARPAnswer).QueryID != uint64(i) {
				t.Fatalf("b→a reordered: %v", gotA)
			}
		}
		if len(gotA) != 3 {
			t.Fatalf("b→a delivered %d of 3", len(gotA))
		}
		s := a.Stats()
		if s.Msgs != 2 || s.Bytes <= 0 {
			t.Fatalf("stats %+v", s)
		}
	})
}

func TestSimPipeClose(t *testing.T) {
	dom, a, b := simPipe(1, 1, PipeConfig{Delay: time.Microsecond})
	eng := dom.Engine(0)
	n := 0
	b.SetHandler(func(ctrlmsg.Msg) { n++ })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctrlmsg.Hello{Switch: 1}); err != ErrClosed {
		t.Fatalf("Send after Close: %v", err)
	}
	// Peer-closed drops in-flight deliveries.
	c, d := SimPipe(dom, eng, eng, PipeConfig{Delay: time.Microsecond})
	d.SetHandler(func(ctrlmsg.Msg) { n++ })
	_ = c.Send(ctrlmsg.Hello{Switch: 2})
	_ = d.Close()
	eng.Run()
	if n != 0 {
		t.Fatalf("handler ran %d times", n)
	}
}

func TestTCPConnRoundTrip(t *testing.T) {
	ca, cb := net.Pipe()
	var mu sync.Mutex
	var got []ctrlmsg.Msg
	done := make(chan struct{}, 1)
	a := NewTCPConn(ca, nil)
	b := NewTCPConn(cb, func(m ctrlmsg.Msg) {
		mu.Lock()
		got = append(got, m)
		n := len(got)
		mu.Unlock()
		if n == 3 {
			done <- struct{}{}
		}
	})
	// Note: unset netip.Addr fields encode as 0.0.0.0 and decode as
	// such (not as the zero Addr), so use explicit addresses here.
	msgs := []ctrlmsg.Msg{
		ctrlmsg.Hello{Switch: 9},
		ctrlmsg.ARPQuery{Switch: 9, QueryID: 1,
			SenderIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			TargetIP: netip.AddrFrom4([4]byte{10, 0, 0, 2})},
		ctrlmsg.McastInstall{Group: 5, OutPorts: []uint8{1, 2}},
	}
	go func() {
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0] != msgs[0] || got[1] != msgs[1] {
		t.Fatalf("messages: %v", got)
	}
	mi := got[2].(ctrlmsg.McastInstall)
	if mi.Group != 5 || len(mi.OutPorts) != 2 {
		t.Fatalf("mcast install: %+v", mi)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctrlmsg.Hello{Switch: 1}); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
	if a.ReadErr() != nil || b.ReadErr() != nil {
		t.Fatalf("read errors: %v / %v", a.ReadErr(), b.ReadErr())
	}
}

func TestTCPConnBidirectionalLoad(t *testing.T) {
	ca, cb := net.Pipe()
	const n = 500
	recvA := make(chan ctrlmsg.Msg, n)
	recvB := make(chan ctrlmsg.Msg, n)
	a := NewTCPConn(ca, func(m ctrlmsg.Msg) { recvA <- m })
	b := NewTCPConn(cb, func(m ctrlmsg.Msg) { recvB <- m })
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = a.Send(ctrlmsg.ARPQuery{Switch: 1, QueryID: uint64(i)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = b.Send(ctrlmsg.ARPAnswer{QueryID: uint64(i)})
		}
	}()
	wg.Wait()
	for i := 0; i < n; i++ {
		q := (<-recvB).(ctrlmsg.ARPQuery)
		if q.QueryID != uint64(i) {
			t.Fatalf("reordered or lost: got %d want %d", q.QueryID, i)
		}
		an := (<-recvA).(ctrlmsg.ARPAnswer)
		if an.QueryID != uint64(i) {
			t.Fatalf("reordered answer: %d want %d", an.QueryID, i)
		}
	}
	a.Close()
	b.Close()
	sa, sb := a.Stats(), b.Stats()
	if sa.Msgs != n || sb.Msgs != n {
		t.Fatalf("stats %+v %+v", sa, sb)
	}
}

func TestTCPConnOverLoopback(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer ln.Close()
	got := make(chan ctrlmsg.Msg, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		NewTCPConn(c, func(m ctrlmsg.Msg) { got <- m })
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTCPConn(c, nil)
	defer tc.Close()
	if err := tc.Send(ctrlmsg.PodRequest{Switch: 77}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m != (ctrlmsg.PodRequest{Switch: 77}) {
			t.Fatalf("got %v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
}

// TestSimPipeCorruptFrameCountedNotFatal is the hardening guarantee:
// a control frame that fails to decode costs one message, never the
// process. Each hostile frame is fed straight to the receiving end;
// it is counted in the receiver's stats and surfaced via Err(), and a
// valid frame sent afterwards still flows.
func TestSimPipeCorruptFrameCountedNotFatal(t *testing.T) {
	highBit := ctrlmsg.Encode(ctrlmsg.Hello{Switch: 1})
	highBit[0] ^= 0x80 // no valid kind has the high bit set
	reg := ctrlmsg.Encode(ctrlmsg.PMACRegister{Switch: 4, IP: netip.MustParseAddr("10.0.0.2")})
	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"kind-high-bit", highBit},
		{"truncated-body", reg[:len(reg)-3]},
		{"trailing-bytes", append(ctrlmsg.Encode(ctrlmsg.Hello{Switch: 1}), 0xff)},
		{"nested-seqdata", ctrlmsg.Encode(ctrlmsg.SeqData{Seq: 1, Payload: ctrlmsg.SeqData{Seq: 2, Payload: ctrlmsg.Hello{Switch: 1}}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dom, a, b := simPipe(7, 1, PipeConfig{Delay: time.Microsecond})
			var got []ctrlmsg.Msg
			b.SetHandler(func(m ctrlmsg.Msg) { got = append(got, m) })
			b.deliverRaw(tc.frame)
			if len(got) != 0 {
				t.Fatalf("hostile frame was delivered: %v", got)
			}
			if bs := b.Stats(); bs.Corrupt != 1 || bs.Drops != 1 {
				t.Fatalf("receiver stats %+v, want Corrupt=1 Drops=1", bs)
			}
			if b.Err() == nil {
				t.Fatal("decode failure not surfaced via Err()")
			}
			if err := a.Send(ctrlmsg.PodAssign{Pod: 2}); err != nil {
				t.Fatal(err)
			}
			dom.Engine(0).Run()
			if len(got) != 1 || got[0] != (ctrlmsg.PodAssign{Pod: 2}) {
				t.Fatalf("channel dead after hostile frame: %v", got)
			}
		})
	}
}

// TestSimPipeLossRate also pins loss determinism: the coins ride the
// sending end's own stream, so which messages survive is the same
// whether the peer shares the shard or not.
func TestSimPipeLossRate(t *testing.T) {
	const sent = 400
	var survivors [2][]uint64
	for shards := 1; shards <= 2; shards++ {
		d, a, b := simPipe(3, shards, PipeConfig{Delay: time.Microsecond, LossRate: 0.5})
		got := &survivors[shards-1]
		b.SetHandler(func(m ctrlmsg.Msg) { *got = append(*got, m.(ctrlmsg.ARPQuery).QueryID) })
		for i := 0; i < sent; i++ {
			_ = a.Send(ctrlmsg.ARPQuery{Switch: 1, QueryID: uint64(i)})
		}
		quiesce(d)
		n, s := len(*got), a.Stats()
		if s.Drops == 0 || n == 0 {
			t.Fatalf("loss rate 0.5 delivered %d, dropped %d", n, s.Drops)
		}
		if n+int(s.Drops) != sent {
			t.Fatalf("delivered %d + dropped %d != sent %d", n, s.Drops, sent)
		}
		if n < sent/4 || n > 3*sent/4 {
			t.Fatalf("delivered %d of %d at loss 0.5; loss model skewed", n, sent)
		}
	}
	if !slices.Equal(survivors[0], survivors[1]) {
		t.Fatalf("delivered set depends on shard layout:\n same-shard  %v\n cross-shard %v", survivors[0], survivors[1])
	}
}

// TestSimPipeSetUp models a crashed process: a down end neither
// transmits nor receives, and reviving it restores the channel
// without losing accumulated stats.
func TestSimPipeSetUp(t *testing.T) {
	dom, a, b := simPipe(1, 1, PipeConfig{Delay: time.Microsecond})
	eng := dom.Engine(0)
	n := 0
	b.SetHandler(func(ctrlmsg.Msg) { n++ })
	_ = a.Send(ctrlmsg.Hello{Switch: 1})
	eng.Run()

	b.SetUp(false)
	if b.Up() {
		t.Fatal("down end reports Up")
	}
	_ = a.Send(ctrlmsg.Hello{Switch: 2}) // dropped at the dead receiver
	_ = b.Send(ctrlmsg.Hello{Switch: 3}) // a dead process sends nothing
	eng.Run()
	if n != 1 {
		t.Fatalf("dead end received a frame: n=%d", n)
	}
	if b.Stats().Drops != 2 {
		t.Fatalf("stats %+v, want 2 drops (1 rx, 1 tx)", b.Stats())
	}

	b.SetUp(true)
	_ = a.Send(ctrlmsg.Hello{Switch: 4})
	eng.Run()
	if n != 2 {
		t.Fatalf("revived end did not receive: n=%d", n)
	}
	if s := a.Stats(); s.Msgs != 3 {
		t.Fatalf("sender stats lost across peer restart: %+v", s)
	}
}

// TestReliableOverLossyPipe: with 30% control loss in both
// directions, every message still arrives exactly once and in order.
func TestReliableOverLossyPipe(t *testing.T) {
	eachLayout(t, func(t *testing.T, shards int) {
		d, a, b := simPipe(11, shards, PipeConfig{Delay: 50 * time.Microsecond, LossRate: 0.3})
		ra := NewReliable(a.Sched(), a)
		rb := NewReliable(b.Sched(), b)
		var got []uint64
		rb.SetHandler(func(m ctrlmsg.Msg) { got = append(got, m.(ctrlmsg.ARPQuery).QueryID) })
		ra.SetHandler(func(ctrlmsg.Msg) {})
		const n = 100
		for i := 0; i < n; i++ {
			if err := ra.Send(ctrlmsg.ARPQuery{Switch: 1, QueryID: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		quiesce(d)
		if len(got) != n {
			t.Fatalf("delivered %d of %d", len(got), n)
		}
		for i, q := range got {
			if q != uint64(i) {
				t.Fatalf("out of order or duplicated at %d: %d", i, q)
			}
		}
		if ra.Retransmits == 0 {
			t.Fatal("30% loss produced no retransmits")
		}
		if ra.Pending() != 0 {
			t.Fatalf("%d messages never acked", ra.Pending())
		}
	})
}

// TestReliableNoOverheadWhenIdle: the wrapper must not generate
// spontaneous traffic — only Sends and their acks touch the wire.
func TestReliableQuiescent(t *testing.T) {
	dom, a, b := simPipe(1, 1, PipeConfig{Delay: time.Microsecond})
	eng := dom.Engine(0)
	ra := NewReliable(a.Sched(), a)
	rb := NewReliable(b.Sched(), b)
	rb.SetHandler(func(ctrlmsg.Msg) {})
	_ = ra.Send(ctrlmsg.Hello{Switch: 1})
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("%d events still queued after quiesce", eng.Pending())
	}
	if a.Stats().Msgs != 1 || b.Stats().Msgs != 1 {
		t.Fatalf("wire traffic %+v / %+v, want 1 data + 1 ack", a.Stats(), b.Stats())
	}
	if ra.Retransmits != 0 {
		t.Fatalf("lossless channel retransmitted %d", ra.Retransmits)
	}
}

func TestTCPConnRejectsOversizedFrame(t *testing.T) {
	ca, cb := net.Pipe()
	b := NewTCPConn(cb, nil)
	go func() {
		// Hand-write a frame header claiming 2 MB.
		_, _ = ca.Write([]byte{0x00, 0x20, 0x00, 0x00})
	}()
	deadline := time.After(5 * time.Second)
	for b.ReadErr() == nil {
		select {
		case <-deadline:
			t.Fatal("oversized frame not rejected")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	ca.Close()
	b.Close()
}

// TestTCPConnHostilePeer: a peer that sends a frame whose body does
// not decode, or that closes mid-header or mid-body, ends the read
// loop (Done closes) with ReadErr set, and never panics the reader.
func TestTCPConnHostilePeer(t *testing.T) {
	hello := ctrlmsg.Encode(ctrlmsg.Hello{Switch: 9})
	frame := func(body []byte, n uint32) []byte {
		return append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}, body...)
	}
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"truncated-frame", frame(hello[:len(hello)-2], uint32(len(hello)-2))},
		{"close-mid-header", []byte{0x00, 0x00}},
		{"close-mid-body", frame(hello[:2], uint32(len(hello)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := net.Pipe()
			var got []ctrlmsg.Msg
			b := NewTCPConn(cb, func(m ctrlmsg.Msg) { got = append(got, m) })
			go func() {
				_, _ = ca.Write(tc.bytes)
				ca.Close()
			}()
			select {
			case <-b.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("read loop did not exit")
			}
			if b.ReadErr() == nil {
				t.Fatal("hostile peer not surfaced via ReadErr()")
			}
			if len(got) != 0 {
				t.Fatalf("hostile frame was delivered: %v", got)
			}
			b.Close()
		})
	}
}
