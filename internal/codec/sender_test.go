package codec

import (
	"bytes"
	"testing"
	"time"

	"portland/internal/ether"
	"portland/internal/host"
	"portland/internal/ippkt"
	"portland/internal/sim"
	"portland/internal/tcplite"
)

// The traffic sources build a packet as one object with a table-backed
// zero payload (ippkt.NewUDP, tcplite's segments, ether.Zeros). On the
// wire nothing may show: every frame a host stack emits must encode to
// the bytes of the layer-by-layer literal with an ether.Raw zero buffer
// that the senders used to build, and survive VerifyFrame.
func TestSenderWireIdentity(t *testing.T) {
	eng := sim.New(1)
	a := host.New(eng.NewProc(), "a", ether.Addr{2, 0, 0, 0, 0, 1}, ip4(10, 0, 0, 1))
	b := host.New(eng.NewProc(), "b", ether.Addr{2, 0, 0, 0, 0, 2}, ip4(10, 0, 0, 2))
	l := sim.Connect(eng, a, 0, b, 0, sim.LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 64})
	var sent [][]byte // a's IPv4 frames that carry data, as encoded
	l.Tap = func(f *ether.Frame) {
		ip, ok := f.Payload.(*ippkt.IPv4)
		if !ok || f.Src != a.MAC() {
			return
		}
		if seg, isTCP := ip.Payload.(*ippkt.TCPSegment); isTCP && seg.Payload == nil {
			return // handshake
		}
		if err := VerifyFrame(f); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, f.Marshal())
	}
	udp := func(dstMAC ether.Addr, dstIP [4]byte, n int) *ether.Frame {
		return &ether.Frame{Dst: dstMAC, Src: a.MAC(), Type: ether.TypeIPv4, Payload: &ippkt.IPv4{
			TTL: 64, Protocol: ippkt.ProtoUDP, Src: a.IP(), Dst: ip4(dstIP[0], dstIP[1], dstIP[2], dstIP[3]),
			Payload: &ippkt.UDP{SrcPort: 9000, DstPort: 9001, Payload: ether.Raw(make([]byte, n))},
		}}
	}
	tcp := func(seq uint32, n int) *ether.Frame {
		return &ether.Frame{Dst: b.MAC(), Src: a.MAC(), Type: ether.TypeIPv4, Payload: &ippkt.IPv4{
			TTL: 64, Protocol: ippkt.ProtoTCP, Src: a.IP(), Dst: b.IP(),
			Payload: &ippkt.TCPSegment{
				SrcPort: 40000, DstPort: 80, Seq: seq, Ack: 1, Flags: ippkt.FlagACK, Window: 0xffff,
				Payload: ether.Raw(make([]byte, n)),
			},
		}}
	}
	type tc struct {
		name string
		send func()
		want []*ether.Frame
	}
	var cases []tc
	for _, n := range []int{0, 1, 64, 1472} {
		cases = append(cases, tc{"SendUDP", func() { a.Endpoint().SendUDP(b.IP(), 9000, 9001, n) },
			[]*ether.Frame{udp(b.MAC(), b.IP().As4(), n)}})
	}
	cases = append(cases,
		tc{"SendGroup", func() { a.Endpoint().SendGroup(7, 9000, 9001, 256) },
			[]*ether.Frame{udp(ether.GroupAddr(7), [4]byte{239, 0, 0, 1}, 256)}},
		tc{"TCP segment of MSS and a short tail", func() {
			b.Endpoint().ListenTCP(80, nil)
			a.Endpoint().DialTCP(b.IP(), 40000, 80, tcplite.Config{}).Queue(1460 + 100)
		}, []*ether.Frame{tcp(1, 1460), tcp(1461, 100)}},
	)
	for _, c := range cases {
		sent = sent[:0]
		c.send()
		eng.Run()
		if len(sent) != len(c.want) {
			t.Fatalf("%s: host emitted %d data frames, want %d", c.name, len(sent), len(c.want))
		}
		for i, w := range c.want {
			if want := w.Marshal(); !bytes.Equal(sent[i], want) {
				t.Errorf("%s frame %d (%d B on the wire): new path encodes\n%x\nold literal\n%x", c.name, i, w.WireSize(), sent[i], want)
			}
		}
	}
}
