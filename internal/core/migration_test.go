package core

import (
	"net/netip"
	"testing"
	"time"

	"portland/internal/ether"
	"portland/internal/host"
	"portland/internal/tcplite"
)

func TestVMMigrationTCP(t *testing.T) {
	f := buildK4(t)
	client := f.HostByName("host-p0-e0-h0")
	oldHost := f.HostByName("host-p1-e0-h0")
	newHost := f.HostByName("host-p3-e1-h1")

	vm := host.NewVM(ether.Addr{0x02, 0xaa, 0, 0, 0, 1}, netip.AddrFrom4([4]byte{10, 99, 0, 1}))
	oldHost.AttachVM(vm)
	f.RunFor(100 * time.Millisecond)

	vm.ListenTCP(80, nil)
	conn := client.Endpoint().DialTCP(vm.LocalIP(), 40000, 80, tcplite.Config{})
	conn.Queue(4 << 20)
	f.RunFor(500 * time.Millisecond)
	if conn.State() != tcplite.StateEstablished {
		t.Fatalf("pre-migration state %v", conn.State())
	}
	var vmConn *tcplite.Conn
	for _, c := range vm.Conns() {
		vmConn = c
	}
	if vmConn == nil {
		t.Fatal("vm accepted no connection")
	}
	before := vmConn.Delivered()
	if before == 0 {
		t.Fatal("no bytes delivered before migration")
	}

	// Freeze, copy, resume on the new host (sub-second pause).
	oldHost.DetachVM(vm)
	f.RunFor(300 * time.Millisecond) // state-transfer blackout
	migrateAt := f.Eng.Now()
	newHost.AttachVM(vm)
	conn.Queue(4 << 20)
	f.RunFor(3 * time.Second)

	after := vmConn.Delivered()
	if after <= before {
		t.Fatalf("no progress after migration: %d -> %d bytes", before, after)
	}
	// The client must have learned the VM's new PMAC from the old edge
	// switch: it traps the client's strays and answers with a unicast
	// ARP reply carrying the registry's mapping (paper §3.4).
	mac, ok := client.ARPCacheLookup(vm.LocalIP())
	if !ok {
		t.Fatal("client lost its ARP entry for the VM")
	}
	if want, _ := f.Manager.Lookup(vm.LocalIP()); mac != want {
		t.Errorf("client maps the VM to %v, registry to %v", mac, want)
	}
	oldEdge := f.SwitchByName("edge-p1-s0")
	newEdge := f.SwitchByName("edge-p3-s1")
	if _, isOld := oldEdge.Agent().Neighbor(0); isOld {
		_ = isOld // silence: structural check below is what matters
	}
	if oldEdge.Stats.GratuitousSent == 0 {
		t.Error("old edge switch sent the client no correction")
	}
	if newEdge.PMACTableLen() == 0 {
		t.Error("new edge switch assigned no PMAC for the migrated VM")
	}
	t.Logf("migration at %v: delivered %d -> %d bytes, client now maps VM to %v",
		migrateAt, before, after, mac)
}

func TestMigrationUpdatesFabricManager(t *testing.T) {
	f := buildK4(t)
	h1 := f.HostByName("host-p0-e1-h0")
	h2 := f.HostByName("host-p2-e0-h1")
	vm := host.NewVM(ether.Addr{0x02, 0xbb, 0, 0, 0, 2}, netip.AddrFrom4([4]byte{10, 99, 0, 2}))

	h1.AttachVM(vm)
	f.RunFor(100 * time.Millisecond)
	pmac1, ok := f.Manager.Lookup(vm.LocalIP())
	if !ok {
		t.Fatal("fabric manager did not register the VM on attach")
	}

	h1.DetachVM(vm)
	h2.AttachVM(vm)
	f.RunFor(100 * time.Millisecond)
	pmac2, ok := f.Manager.Lookup(vm.LocalIP())
	if !ok {
		t.Fatal("fabric manager lost the VM record across migration")
	}
	if pmac1 == pmac2 {
		t.Fatalf("PMAC unchanged across pods: %v", pmac1)
	}
	if f.Manager.Stats.Migrations != 1 {
		t.Fatalf("manager counted %d migrations, want 1", f.Manager.Stats.Migrations)
	}
}
