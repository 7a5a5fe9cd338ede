// Quickstart: boot a k=4 PortLand fabric (the paper's testbed scale),
// watch zero-configuration location discovery complete, and exchange
// UDP datagrams between pods — with the sender's neighbor cache ending
// up holding a PMAC, not the receiver's real MAC, exactly as PortLand
// promises (the fabric rewrites transparently at the edges).
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"portland/internal/core"
	"portland/internal/ether"
)

func main() {
	fabric, err := core.NewFatTree(4, core.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fabric.Start()
	if err := fabric.AwaitDiscovery(2 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("✓ location discovery finished at t=%v (virtual)\n", fabric.Now())
	if err := fabric.CheckDiscovery(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("✓ discovered levels/pods/positions match the blueprint")

	hosts := fabric.HostList()
	src, dst := hosts[0], hosts[len(hosts)-1] // opposite corners of the tree

	got := 0
	dst.Endpoint().BindUDP(9000, func(from netip.Addr, port uint16, payload ether.Payload) {
		got++
	})
	for i := 0; i < 10; i++ {
		src.Endpoint().SendUDP(dst.IP(), 9000, 9000, 256)
	}
	fabric.RunFor(time.Second)
	fmt.Printf("✓ delivered %d/10 datagrams from %s to %s\n", got, src.Name(), dst.Name())

	// The magic: the sender resolved dst.IP() via the fabric manager's
	// proxy ARP and cached a PMAC.
	mac, _ := src.ARPCacheLookup(dst.IP())
	fmt.Printf("  sender's ARP cache for %v: %v (a PMAC)\n", dst.IP(), mac)
	fmt.Printf("  receiver's real MAC:       %v (never seen by the sender)\n", dst.MAC())

	toMgr, fromMgr := fabric.ControlStats()
	fmt.Printf("  control plane so far: %d B up, %d B down\n", toMgr.Bytes, fromMgr.Bytes)
}
