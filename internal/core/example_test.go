package core_test

import (
	"fmt"
	"net/netip"
	"time"

	"portland/internal/core"
	"portland/internal/ether"
)

// Example boots the paper's k=4 testbed, lets zero-configuration
// location discovery finish, and delivers a datagram across pods
// through proxy ARP and PMAC rewriting.
func Example() {
	fabric, err := core.NewFatTree(4, core.Options{Seed: 42})
	if err != nil {
		panic(err)
	}
	fabric.Start()
	if err := fabric.AwaitDiscovery(2 * time.Second); err != nil {
		panic(err)
	}
	if err := fabric.CheckDiscovery(); err != nil {
		panic(err)
	}

	hosts := fabric.HostList()
	src, dst := hosts[0], hosts[len(hosts)-1]
	got := 0
	dst.Endpoint().BindUDP(9000, func(netip.Addr, uint16, ether.Payload) { got++ })
	src.Endpoint().SendUDP(dst.IP(), 9000, 9000, 256)
	fabric.RunFor(time.Second)

	mac, _ := src.ARPCacheLookup(dst.IP())
	fmt.Printf("delivered=%d\n", got)
	fmt.Printf("sender cached a PMAC: %v (real MAC hidden: %v)\n", mac != dst.MAC(), dst.MAC() != ether.Addr{})
	// Output:
	// delivered=1
	// sender cached a PMAC: true (real MAC hidden: true)
}

// ExampleFabric_FailLink shows fault handling: a probe flow, a failed
// link on its path, and sub-100ms reconvergence.
func ExampleFabric_FailLink() {
	fabric, err := core.NewFatTree(4, core.Options{Seed: 7})
	if err != nil {
		panic(err)
	}
	fabric.Start()
	if err := fabric.AwaitDiscovery(2 * time.Second); err != nil {
		panic(err)
	}
	src, dst := fabric.HostByName("host-p0-e0-h0"), fabric.HostByName("host-p3-e1-h1")

	var arrivals []time.Duration
	dst.Endpoint().BindUDP(9001, func(netip.Addr, uint16, ether.Payload) {
		arrivals = append(arrivals, fabric.Now())
	})
	stop := false
	fabric.Sched().NewTicker(time.Millisecond, 0, func() {
		if !stop {
			src.Endpoint().SendUDP(dst.IP(), 9001, 9001, 64)
		}
	})
	fabric.RunFor(500 * time.Millisecond)

	failAt := fabric.Now()
	l0, _ := fabric.LinkBetween("agg-p0-s0", "core-0")
	l1, _ := fabric.LinkBetween("agg-p0-s1", "core-2") // whichever agg the flow hashed to
	fabric.FailLink(l0)
	fabric.FailLink(l1)
	fabric.RunFor(time.Second)
	stop = true

	var firstAfter time.Duration
	for _, at := range arrivals {
		if at > failAt {
			firstAfter = at
			break
		}
	}
	gap := firstAfter - failAt
	fmt.Printf("reconverged=%v\n", gap > 0 && gap < 100*time.Millisecond)
	// Output:
	// reconverged=true
}
