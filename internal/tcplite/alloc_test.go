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
	// Several consecutive windows in one AllocsPerRun call: the average
	// is truncated to a whole object, so the 1–3 objects the runtime
	// occasionally allocates outside the simulation on a loaded host
	// round away, while one extra object per segment still shows. Each
	// window is a whole number of segment times (1,518 bytes on the wire
	// at 1 Gb/s), so every window moves the same number of segments and
	// the truncation has a full window count of strays to absorb.
	// AllocsPerRun's first call is an uncounted warm-up; the windows
	// counted start where it ends.
	const (
		windows = 10
		window  = 1647 * 1518 * 8 * time.Nanosecond // ≈ 20 ms
	)
	var data0, acks0 int64
	warm := true
	runtime.GC()
	avg := testing.AllocsPerRun(windows, func() {
		eng.RunUntil(eng.Now() + window)
		if warm {
			warm = false
			data0, acks0 = cli.Stats.SegsSent, srv.Stats.SegsSent
		}
	})
	data, acks := cli.Stats.SegsSent-data0, srv.Stats.SegsSent-acks0
	if data < 1000*windows || acks != data || (data+acks)%windows != 0 || cli.Stats.Retransmits != 0 {
		t.Fatalf("%d windows moved %d segments and %d ACKs, %d retransmits; want a lossless bulk flow, the same count every window", windows, data, acks, cli.Stats.Retransmits)
	}
	if want := (data + acks) / windows; avg != float64(want) {
		t.Fatalf("bulk transfer allocated %.0f objects per window for %d segments + %d ACKs over %d windows; want %d, one each", avg, data, acks, windows, want)
	}
}
