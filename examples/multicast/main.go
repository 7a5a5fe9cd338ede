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

	"portland"
	"portland/internal/ether"
	"portland/internal/metrics"
	"portland/internal/topo"
)

func main() {
	fabric, err := portland.NewFatTree(4, portland.Options{Seed: 23})
	if err != nil {
		log.Fatal(err)
	}
	fabric.Start()
	if err := fabric.AwaitDiscovery(2 * time.Second); err != nil {
		log.Fatal(err)
	}

	const group = 0xBEEF
	sender := fabric.Host("host-p0-e0-h0")
	names := []string{"host-p1-e0-h0", "host-p2-e1-h1", "host-p3-e0-h1"}
	recs := make([]*metrics.Recorder, len(names))
	inner := fabric.Internal()
	for i, name := range names {
		rec := &metrics.Recorder{}
		recs[i] = rec
		fabric.Host(name).Endpoint().JoinGroup(group, false, func(*ether.Frame) {
			rec.Record(fabric.Now())
		})
	}
	sender.Endpoint().JoinGroup(group, true, nil)
	fabric.RunFor(50 * time.Millisecond)
	fmt.Printf("group 0x%X: %d receivers joined; fabric manager installed %d tree entries\n",
		group, len(names), fabric.Manager().Stats.McastInstalls)

	inner.Sched().NewTicker(time.Millisecond, 0, func() {
		sender.Endpoint().SendGroup(group, 5000, 5000, 512)
	})
	fabric.RunFor(400 * time.Millisecond)
	for i, rec := range recs {
		fmt.Printf("  %s received %d frames\n", names[i], rec.Len())
	}

	// Fail the busiest aggregation-core link (part of the tree).
	base := make([]int64, len(inner.Links))
	for i, l := range inner.Links {
		base[i] = l.Delivered()
	}
	fabric.RunFor(100 * time.Millisecond)
	best, bestDelta := -1, int64(0)
	for i, ls := range inner.Spec.Links {
		a, b := inner.Spec.Nodes[ls.A.Node], inner.Spec.Nodes[ls.B.Node]
		if (a.Level == topo.Aggregation && b.Level == topo.Core) || (a.Level == topo.Core && b.Level == topo.Aggregation) {
			if d := inner.Links[i].Delivered() - base[i]; d > bestDelta {
				bestDelta, best = d, i
			}
		}
	}
	fmt.Printf("→ failing tree link %v\n", inner.Links[best])
	failAt := fabric.Now()
	inner.FailLink(best)
	fabric.RunFor(time.Second)

	for i, rec := range recs {
		conv, ok := rec.ConvergenceAfter(failAt, time.Millisecond)
		if !ok {
			log.Fatalf("%s never recovered", names[i])
		}
		fmt.Printf("✓ %s: multicast restored after %v\n", names[i], conv)
	}
}
