package core

import (
	"testing"
	"time"

	"portland/internal/codec"
	"portland/internal/ether"
	"portland/internal/tcplite"
)

// TestWireCheckAllTraffic runs a busy scenario with every frame
// round-tripped through the real wire codecs: LDP, control-free data,
// ARP (request/reply/gratuitous), UDP, TCP, multicast and group
// management all must survive marshal→decode→re-marshal unchanged.
func TestWireCheckAllTraffic(t *testing.T) {
	f, err := NewFatTree(4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range f.Links {
		l.Tap = func(frame *ether.Frame) {
			if err := codec.VerifyFrame(frame); err != nil {
				t.Fatalf("wire check on %v: %v", l, err)
			}
		}
	}
	f.Start()
	if err := f.AwaitDiscovery(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	hosts := f.HostList()
	// UDP all-pairs burst.
	for _, a := range hosts[:6] {
		for _, b := range hosts[10:] {
			a.Endpoint().SendUDP(b.IP(), 7, 7, 99)
		}
	}
	// TCP flow.
	hosts[15].Endpoint().ListenTCP(80, nil)
	conn := hosts[0].Endpoint().DialTCP(hosts[15].IP(), 40000, 80, tcplite.Config{})
	conn.Queue(2 << 20)
	// Multicast group.
	rec := 0
	hosts[12].Endpoint().JoinGroup(0x42, false, func(*ether.Frame) { rec++ })
	hosts[3].Endpoint().JoinGroup(0x42, true, nil)
	f.RunFor(100 * time.Millisecond)
	for i := 0; i < 20; i++ {
		hosts[3].Endpoint().SendGroup(0x42, 5, 5, 333)
	}
	f.RunFor(2 * time.Second)
	if conn.State() != tcplite.StateEstablished || rec == 0 {
		t.Fatalf("scenario incomplete: tcp=%v mcast=%d", conn.State(), rec)
	}
}
