// Command portland boots a PortLand fabric in the simulator, runs
// location discovery, and prints a deployment report: discovered
// roles, pod/position assignments, registry contents after a traffic
// warm-up, and control-plane volume. It is the quickest way to watch
// the system come up.
//
// Usage:
//
//	portland -k 4 -warm 8 -fail edge-p0-s0:agg-p0-s0
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"portland/internal/core"
	"portland/internal/workload"
)

func main() {
	var (
		k    = flag.Int("k", 4, "fat-tree degree (even)")
		warm = flag.Int("warm", 4, "peers each host resolves during warm-up")
		fail = flag.String("fail", "", "colon-separated node pair whose link to fail, e.g. edge-p0-s0:agg-p0-s0")
		seed = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()

	f, err := core.NewFatTree(*k, core.Options{Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Start()
	if err := f.AwaitDiscovery(10 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("location discovery complete at t=%v\n", f.Now())
	if err := f.CheckDiscovery(); err != nil {
		fmt.Fprintf(os.Stderr, "ground-truth check failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("ground-truth check: OK")

	fmt.Println("\ndiscovered locations:")
	var names []string
	for _, id := range f.Spec.Switches() {
		names = append(names, f.Switches[id].Name())
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-14s %v\n", n, f.SwitchByName(n).Loc())
	}

	n := workload.ARPStorm(f.HostList(), *warm)
	f.RunFor(2 * time.Second)
	fmt.Printf("\nwarm-up: %d resolutions, fabric manager now holds %d host mappings\n",
		n, f.Manager.NumHosts())

	if *fail != "" {
		a, b, _ := strings.Cut(*fail, ":")
		link, ok := f.LinkBetween(a, b)
		if !ok {
			fmt.Fprintf(os.Stderr, "no such link: %s\n", *fail)
			os.Exit(1)
		}
		f.FailLink(link)
		f.RunFor(500 * time.Millisecond)
		fmt.Printf("\nfailed link %s; fabric manager recorded %d fault events and pushed %d route exclusions\n",
			*fail, f.Manager.Stats.FaultEvents, f.Manager.Stats.ExclusionsSet)
	}

	toMgr, fromMgr := f.ControlStats()
	fmt.Printf("\ncontrol plane: %d msgs / %d bytes to manager, %d msgs / %d bytes from manager\n",
		toMgr.Msgs, toMgr.Bytes, fromMgr.Msgs, fromMgr.Bytes)
	fmt.Printf("manager counters: %+v\n", f.Manager.Stats)
}
