// Failover: run a constant-rate UDP probe flow across pods, fail the
// aggregation→core link it is riding, and measure how quickly the
// fabric reconverges (paper §5, Figure 9 setup: LDM keepalives detect
// the failure, the fabric manager redistributes it, ECMP steps around
// it — tens of milliseconds, no operator involvement).
package main

import (
	"fmt"
	"log"
	"time"

	"portland/internal/core"
	"portland/internal/topo"
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
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := workload.StartCBR(src, dst, 20000, time.Millisecond, 128)
	fabric.RunFor(500 * time.Millisecond)
	fmt.Printf("flow %s → %s warmed up: %d probes delivered\n", src.Name(), dst.Name(), flow.RX.Len())

	// Find the agg-core link actually carrying the flow.
	best, err := fabric.BusiestLink(100*time.Millisecond, topo.Aggregation, topo.Core)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow is riding %v — failing it now\n", fabric.Links[best])

	failAt := fabric.Now()
	fabric.FailLink(best)
	fabric.RunFor(time.Second)

	conv, ok := flow.RX.ConvergenceAfter(failAt, time.Millisecond)
	if !ok {
		log.Fatal("flow never recovered — that would be a bug")
	}
	fmt.Printf("✓ fabric reconverged in %v (LDM detection + fabric-manager redistribution + local ECMP)\n", conv)

	restoreAt := fabric.Now()
	fabric.RestoreLink(best)
	fabric.RunFor(time.Second)
	conv, _ = flow.RX.ConvergenceAfter(restoreAt, time.Millisecond)
	fmt.Printf("✓ link restored; disturbance on recovery: %v\n", conv)
	fmt.Printf("  total probes: sent=%d received=%d (loss %.2f%%)\n",
		flow.Sent, flow.RX.Len(), flow.Loss()*100)
}
