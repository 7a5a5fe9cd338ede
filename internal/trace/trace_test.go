package trace

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"portland/internal/arppkt"
	"portland/internal/ether"
)

func TestPcapFormat(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := arppkt.Request(ether.Addr{2, 0, 0, 0, 0, 1}, ip4(10, 0, 0, 1), ip4(10, 0, 0, 2))
	if err := w.WriteFrame(1500*time.Millisecond, f); err != nil {
		t.Fatal(err)
	}
	if w.Frames() != 1 {
		t.Fatal("frame count")
	}
	b := buf.Bytes()
	le := binary.LittleEndian
	if le.Uint32(b[0:]) != pcapMagic {
		t.Fatalf("magic %08x", le.Uint32(b[0:]))
	}
	if le.Uint32(b[20:]) != pcapEthernet {
		t.Fatal("linktype")
	}
	// Record header at offset 24.
	if le.Uint32(b[24:]) != 1 { // seconds
		t.Fatal("ts seconds")
	}
	if le.Uint32(b[28:]) != 500000 { // microseconds
		t.Fatal("ts micros")
	}
	wire := f.Marshal()
	if int(le.Uint32(b[32:])) != len(wire) || int(le.Uint32(b[36:])) != len(wire) {
		t.Fatal("record lengths")
	}
	if !bytes.Equal(b[40:], wire) {
		t.Fatal("record body is not the frame's wire bytes")
	}
}

func ip4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }
