package pmac

import (
	"net/netip"
	"testing"
	"testing/quick"

	"portland/internal/ether"
)

func TestAddrRoundTrip(t *testing.T) {
	f := func(pod uint16, pos, port uint8, vmid uint16) bool {
		in := PMAC{Pod: pod, Position: pos, Port: port, VMID: vmid}
		return FromAddr(in.Addr()) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrLayout(t *testing.T) {
	p := PMAC{Pod: 0x0102, Position: 3, Port: 4, VMID: 0x0506}
	want := ether.Addr{0x01, 0x02, 0x03, 0x04, 0x05, 0x06}
	if p.Addr() != want {
		t.Fatalf("layout %v, want %v", p.Addr(), want)
	}
}

func TestTableAssignStable(t *testing.T) {
	tb := NewTable()
	tb.SetLocation(7, 1)
	amac := ether.Addr{2, 0, 0, 0, 0, 1}
	p1, isNew := tb.Assign(amac, 3)
	if !isNew {
		t.Fatal("first assignment must be new")
	}
	if p1.Pod != 7 || p1.Position != 1 || p1.Port != 3 {
		t.Fatalf("assignment location wrong: %v", p1)
	}
	p2, isNew := tb.Assign(amac, 3)
	if isNew || p2 != p1 {
		t.Fatal("re-assignment must be stable")
	}
	if got, ok := tb.LookupAMAC(amac); !ok || got != p1 {
		t.Fatal("LookupAMAC")
	}
	if got, ok := tb.LookupPMAC(p1.Addr()); !ok || got != (Host{AMAC: amac, PMAC: p1}) {
		t.Fatal("LookupPMAC")
	}
	ip := netip.MustParseAddr("10.0.0.1")
	if !tb.SetIP(p1, ip) || tb.SetIP(p1, ip) {
		t.Fatal("SetIP must report a change exactly once")
	}
	if got, _ := tb.LookupPMAC(p1.Addr()); got.IP != ip {
		t.Fatalf("LookupPMAC after SetIP: %v", got)
	}
	if tb.SetIP(PMAC{Pod: 7, Position: 1, Port: 3, VMID: 99}, ip) {
		t.Fatal("SetIP on an unmapped PMAC")
	}
}

func TestVMIDAllocation(t *testing.T) {
	tb := NewTable()
	tb.SetLocation(0, 0)
	a := ether.Addr{2, 0, 0, 0, 0, 1}
	b := ether.Addr{2, 0, 0, 0, 0, 2}
	c := ether.Addr{2, 0, 0, 0, 0, 3}
	pa, _ := tb.Assign(a, 0)
	pb, _ := tb.Assign(b, 0) // same port: distinct VMID
	pc, _ := tb.Assign(c, 1) // other port: its own VMID space
	if pa.VMID == pb.VMID {
		t.Fatal("VMIDs must be unique per port")
	}
	if pa.VMID == 0 || pb.VMID == 0 || pc.VMID == 0 {
		t.Fatal("VMID 0 is reserved (the all-zero PMAC is invalid)")
	}
	if pa.Addr() == pb.Addr() || pa.Addr() == pc.Addr() {
		t.Fatal("PMACs must be unique")
	}
	if pa.Addr().IsZero() {
		t.Fatal("PMAC must never be the zero MAC")
	}
	if hs := tb.Hosts(); len(hs) != 3 || hs[0].PMAC != pa || hs[1].PMAC != pb || hs[2].PMAC != pc {
		t.Fatalf("Hosts() = %v, want a, b, c in AMAC order", hs)
	}
}

func TestRemove(t *testing.T) {
	tb := NewTable()
	tb.SetLocation(1, 0)
	amac := ether.Addr{2, 0, 0, 0, 0, 9}
	p, _ := tb.Assign(amac, 0)
	if tb.Len() != 1 {
		t.Fatal("len after assign")
	}
	tb.Remove(amac)
	if tb.Len() != 0 {
		t.Fatal("len after remove")
	}
	if _, ok := tb.LookupPMAC(p.Addr()); ok {
		t.Fatal("stale PMAC lookup after remove")
	}
	tb.Remove(amac) // idempotent
	// Re-assignment gets a fresh VMID, never the old PMAC back.
	p2, isNew := tb.Assign(amac, 0)
	if !isNew || p2 == p {
		t.Fatalf("re-assignment after removal must mint a new PMAC: %v vs %v", p2, p)
	}
}
