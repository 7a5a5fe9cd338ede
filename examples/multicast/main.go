// Multicast: three receivers in three different pods join a group, a
// fourth host streams to it, and the fabric manager installs a single
// rendezvous-core distribution tree (paper §3.6). We then fail a link
// in the tree and watch the manager recompute and reinstall it —
// receivers see a dip of tens of milliseconds, not an outage.
package main

import (
	"fmt"
	"log"
	"time"

	"portland/internal/core"
	"portland/internal/ether"
	"portland/internal/obs"
	"portland/internal/topo"
)

func main() {
	fabric, err := core.NewFatTree(4, core.Options{Seed: 23})
	if err != nil {
		log.Fatal(err)
	}
	fabric.Start()
	if err := fabric.AwaitDiscovery(2 * time.Second); err != nil {
		log.Fatal(err)
	}

	const group = 0xBEEF
	sender := fabric.HostByName("host-p0-e0-h0")
	names := []string{"host-p1-e0-h0", "host-p2-e1-h1", "host-p3-e0-h1"}
	recs := make([]*obs.Recorder, len(names))
	for i, name := range names {
		rec := &obs.Recorder{}
		recs[i] = rec
		fabric.HostByName(name).Endpoint().JoinGroup(group, false, func(*ether.Frame) {
			rec.Record(fabric.Now())
		})
	}
	sender.Endpoint().JoinGroup(group, true, nil)
	fabric.RunFor(50 * time.Millisecond)
	fmt.Printf("group 0x%X: %d receivers joined; fabric manager installed %d tree entries\n",
		group, len(names), fabric.Manager.Stats.McastInstalls)

	fabric.Sched().NewTicker(time.Millisecond, 0, func() {
		sender.Endpoint().SendGroup(group, 5000, 5000, 512)
	})
	fabric.RunFor(400 * time.Millisecond)
	for i, rec := range recs {
		fmt.Printf("  %s received %d frames\n", names[i], rec.Len())
	}

	// Fail the busiest aggregation-core link (part of the tree).
	best, err := fabric.BusiestLink(100*time.Millisecond, topo.Aggregation, topo.Core)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("→ failing tree link %v\n", fabric.Links[best])
	failAt := fabric.Now()
	fabric.FailLink(best)
	fabric.RunFor(time.Second)

	for i, rec := range recs {
		conv, ok := rec.ConvergenceAfter(failAt, time.Millisecond)
		if !ok {
			log.Fatalf("%s never recovered", names[i])
		}
		fmt.Printf("✓ %s: multicast restored after %v\n", names[i], conv)
	}
}
