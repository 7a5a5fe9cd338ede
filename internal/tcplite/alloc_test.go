package tcplite_test

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"portland/internal/ether"
	"portland/internal/host"
	"portland/internal/sim"
	"portland/internal/tcplite"
)

// A steady-state bulk transfer between two real host stacks, back to
// back on one link, allocates exactly one object per packet:
// SegsSent on the sender (IP and TCP headers are one struct, the data
// is ether.Zeros) and one per ACK — the receiver's SegsSent — on the
// receiver. That is the floor: every segment differs, and nothing tells
// a sender when an in-flight packet has been consumed.
func TestTCPBulkAllocsPerSegment(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation count; the race runtime adds its own")
	}
	eng := sim.New(1)
	a := host.New(eng.NewProc(), "a", ether.Addr{2, 0, 0, 0, 0, 1}, netip.MustParseAddr("10.0.0.1"))
	b := host.New(eng.NewProc(), "b", ether.Addr{2, 0, 0, 0, 0, 2}, netip.MustParseAddr("10.0.0.2"))
	sim.Connect(eng, a, 0, b, 0, sim.LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 64})
	// A window inside the link's 64-frame queue: no loss, so no
	// reassembly state, which allocates by design.
	cfg := tcplite.Config{Window: 32 * 1460}
	var srv *tcplite.Conn
	b.Endpoint().ListenTCPWith(80, cfg, func(c *tcplite.Conn) { srv = c })
	cli := a.Endpoint().DialTCP(b.IP(), 40000, 80, cfg)
	cli.Queue(1 << 30)
	// Handshake, slow start, rings at size — and a steady event
	// population: every ACK re-arms the RTO timer, whose superseded
	// events (MinRTO, 200 ms out) pile up in the wheel until the first
	// of them come due, about 250 ms in. Past that the population is
	// flat, so the window sees no wheel-arena growth.
	eng.RunUntil(500 * time.Millisecond)
	if srv == nil || cli.Cwnd() < cfg.Window {
		t.Fatalf("transfer not in steady state after warm-up (cwnd %d)", cli.Cwnd())
	}
	var data, acks int64
	// One run means no average to truncate a stray object away. A
	// collection first makes it rarer, though not impossible, for the
	// window to count an object the runtime allocates outside the
	// simulation on a loaded host.
	runtime.GC()
	avg := testing.AllocsPerRun(1, func() {
		data, acks = cli.Stats.SegsSent, srv.Stats.SegsSent
		eng.RunUntil(eng.Now() + 20*time.Millisecond)
		data, acks = cli.Stats.SegsSent-data, srv.Stats.SegsSent-acks
	})
	if data < 1000 || acks != data || cli.Stats.Retransmits != 0 {
		t.Fatalf("window moved %d segments and %d ACKs, %d retransmits; want a lossless bulk flow", data, acks, cli.Stats.Retransmits)
	}
	if avg != float64(data+acks) {
		t.Fatalf("bulk transfer allocated %.0f objects for %d segments + %d ACKs; want one each", avg, data, acks)
	}
}
