// Fabric-manager failover: PortLand's manager keeps only soft state
// (paper §3.2), so losing it costs availability of *new* ARP/DHCP
// resolutions — never installed forwarding state — and a replacement
// rebuilds everything from the switches via a resync handshake.
//
// This demo kills the manager mid-run, shows the dataplane still
// forwarding and a cold ARP going black, then restarts the manager
// and proves the rebuilt state is byte-identical to the pre-crash
// snapshot, with ARP service back within the resync round.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"portland/internal/core"
	"portland/internal/ether"
	"portland/internal/workload"
)

func main() {
	fabric, err := core.NewFatTree(4, core.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fabric.Start()
	if err := fabric.AwaitDiscovery(2 * time.Second); err != nil {
		log.Fatal(err)
	}

	hosts := fabric.HostList()

	// Warm flow: its path state is installed in the switches. The
	// cold-probe pair also exchanges one datagram now, so the edge
	// registers both hosts pre-crash and the pre/post snapshots
	// compare the same registry.
	warm := workload.StartCBR(hosts[0], hosts[15], 20000, time.Millisecond, 128)
	hosts[2].Endpoint().BindUDP(7100, func(netip.Addr, uint16, ether.Payload) {})
	hosts[13].Endpoint().SendUDP(hosts[2].IP(), 7100, 7100, 64)
	fabric.RunFor(500 * time.Millisecond)
	pre := fabric.Manager.Snapshot()
	fmt.Printf("warm flow delivered %d probes; manager holds %d bytes of soft state\n",
		warm.RX.Len(), len(pre))

	// Crash the manager. The warm flow keeps forwarding — installed
	// state needs no manager — but a *cold* resolution goes dark.
	fmt.Println("\n-- killing the fabric manager --")
	fabric.KillManager()
	killAt := fabric.Now()
	warmBefore := warm.RX.Len()

	coldRx := 0
	hosts[2].Endpoint().BindUDP(7100, func(netip.Addr, uint16, ether.Payload) { coldRx++ })
	hosts[13].FlushARP(hosts[2].IP()) // force a fresh resolution against the dead manager
	hosts[13].Endpoint().SendUDP(hosts[2].IP(), 7100, 7100, 64)
	fabric.RunFor(300 * time.Millisecond)
	fmt.Printf("outage %v: warm flow delivered %d more probes, cold ARP delivered %d (blackout)\n",
		fabric.Now()-killAt, warm.RX.Len()-warmBefore, coldRx)

	// Restart: an empty manager solicits a full dump from every
	// switch (locations, adjacency, host registry, leases, multicast
	// membership) and rebuilds the registry, fault matrix and trees.
	fmt.Println("\n-- restarting the fabric manager --")
	restartAt := fabric.Now()
	m := fabric.RestartManager()
	var syncedAt time.Duration
	m.SetOnSyncDone(func(uint32) { syncedAt = fabric.Now() })
	fabric.RunFor(300 * time.Millisecond)

	fmt.Printf("resync completed %v after restart\n", syncedAt-restartAt)
	if post := m.Snapshot(); post == pre {
		fmt.Println("rebuilt soft state is byte-identical to the pre-crash snapshot")
	} else {
		fmt.Println("WARNING: rebuilt state differs from pre-crash snapshot")
	}
	if coldRx > 0 {
		fmt.Printf("cold flow recovered: %d datagrams delivered after restart\n", coldRx)
	}
}
