// VM migration: a client streams TCP to a virtual machine, which then
// live-migrates to a host in a different pod. PortLand keeps the
// connection alive with no client-side changes: the VM's gratuitous
// ARP re-registers it under a new PMAC, and the fabric manager tells
// the old edge switch to forget the old one. The old edge then traps
// the client's strays, asks the manager where the VM's IP lives now,
// and sends the client a unicast ARP reply that fixes its neighbor
// cache (paper §3.4, Figure 12).
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"portland/internal/core"
	"portland/internal/ether"
	"portland/internal/host"
	"portland/internal/tcplite"
)

func main() {
	fabric, err := core.NewFatTree(4, core.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fabric.Start()
	if err := fabric.AwaitDiscovery(2 * time.Second); err != nil {
		log.Fatal(err)
	}

	client := fabric.HostByName("host-p0-e0-h0")
	oldHost := fabric.HostByName("host-p1-e0-h0")
	newHost := fabric.HostByName("host-p3-e1-h1")

	vm := host.NewVM(ether.Addr{0x02, 0xde, 0xad, 0, 0, 1}, netip.MustParseAddr("10.99.0.1"))
	oldHost.AttachVM(vm)
	fabric.RunFor(100 * time.Millisecond)
	vm.ListenTCP(80, nil)

	conn := client.Endpoint().DialTCP(vm.LocalIP(), 40000, 80, tcplite.Config{})
	conn.Queue(256 << 20)
	fabric.RunFor(2 * time.Second)

	var server *tcplite.Conn
	for _, c := range vm.Conns() {
		server = c
	}
	before := server.Delivered()
	beforeMAC, _ := client.ARPCacheLookup(vm.LocalIP())
	fmt.Printf("VM serving on %s: client delivered %d MB so far (VM reachable at PMAC %v)\n",
		oldHost.Name(), before>>20, beforeMAC)

	fmt.Printf("→ freezing VM, copying state (300 ms blackout), resuming on %s\n", newHost.Name())
	oldHost.DetachVM(vm)
	fabric.RunFor(300 * time.Millisecond)
	newHost.AttachVM(vm)
	resumeAt := fabric.Now()
	fabric.RunFor(3 * time.Second)

	after := server.Delivered()
	afterMAC, _ := client.ARPCacheLookup(vm.LocalIP())
	fmt.Printf("✓ connection survived: %d MB → %d MB delivered, state=%v\n",
		before>>20, after>>20, conn.State())
	fmt.Printf("✓ client's neighbor cache updated transparently: %v → %v\n", beforeMAC, afterMAC)
	fmt.Printf("  RTO events during migration: %d (TCP rode out the blackout)\n", conn.Stats.Timeouts)
	fmt.Printf("  fabric manager recorded %d migration(s)\n", fabric.Manager.Stats.Migrations)
	_ = resumeAt
}
