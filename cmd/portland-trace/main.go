// Command portland-trace boots a fabric, sends a probe flow between
// two hosts, and prints the hop-by-hop path each probe takes through
// the PMAC hierarchy — before and, optionally, after a failure — by
// tapping every switch. It can also dump everything a switch sees to
// a pcap file for Wireshark.
//
// Usage:
//
//	portland-trace -k 4 -src host-p0-e0-h0 -dst host-p3-e1-h1 \
//	    -fail agg-p0-s0:core-0 -pcap edge-p0-s0.pcap
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"portland/internal/core"
	"portland/internal/ether"
	"portland/internal/ippkt"
)

type hop struct {
	node string
	in   int
	out  int
}

func main() {
	var (
		k     = flag.Int("k", 4, "fat-tree degree")
		seed  = flag.Uint64("seed", 1, "simulation seed")
		src   = flag.String("src", "host-p0-e0-h0", "probe source host")
		dst   = flag.String("dst", "", "probe destination host (default: last host)")
		fail  = flag.String("fail", "", "node pair whose link to fail between probes, e.g. agg-p0-s0:core-0")
		pcapF = flag.String("pcap", "", "also capture the source's edge switch to this pcap file")
	)
	flag.Parse()

	f, err := core.NewFatTree(*k, core.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(10 * time.Second); err != nil {
		fatal(err)
	}
	hosts := f.HostList()
	srcH := f.HostByName(*src)
	if srcH == nil {
		fatal(fmt.Errorf("no host %q", *src))
	}
	dstName := *dst
	if dstName == "" {
		dstName = hosts[len(hosts)-1].Name()
	}
	dstH := f.HostByName(dstName)
	if dstH == nil {
		fatal(fmt.Errorf("no host %q", dstName))
	}

	// Tap every switch; collect probe hops keyed by UDP source port.
	hopsByProbe := map[uint16][]hop{}
	pending := map[string]map[uint16]int{} // node -> probe -> in port
	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		name := sw.Name()
		pending[name] = map[uint16]int{}
		sw.Tap = func(port int, frame *ether.Frame, egress bool) {
			probe, ok := probeID(frame)
			if !ok {
				return
			}
			if !egress {
				pending[name][probe] = port
				return
			}
			in, seen := pending[name][probe]
			if !seen {
				in = -1
			}
			hopsByProbe[probe] = append(hopsByProbe[probe], hop{node: name, in: in, out: port})
		}
	}

	if *pcapF != "" {
		edge := edgeOf(*src)
		file, err := os.Create(*pcapF)
		if err != nil {
			fatal(err)
		}
		defer file.Close()
		pw, err := f.CapturePcap(edge, file)
		if err != nil {
			fatal(err)
		}
		defer func() { fmt.Printf("pcap: %d frames from %s written to %s\n", pw.Frames(), edge, *pcapF) }()
	}

	sendProbe := func(n int, port uint16) {
		srcH.Endpoint().SendUDP(dstH.IP(), port, 9, 64)
		f.RunFor(50 * time.Millisecond)
		path := hopsByProbe[port]
		fmt.Printf("probe %d (%s → %s):\n", n, *src, dstName)
		if len(path) == 0 {
			fmt.Println("  (no switch observed the probe)")
			return
		}
		for _, h := range path {
			fmt.Printf("  %-14s in:%-2d out:%-2d\n", h.node, h.in, h.out)
		}
	}

	fmt.Printf("discovery complete at t=%v\n\n", f.Now())
	sendProbe(1, 33001)

	if *fail != "" {
		a, b, _ := strings.Cut(*fail, ":")
		link, ok := f.LinkBetween(a, b)
		if !ok {
			fatal(fmt.Errorf("no such link %q", *fail))
		}
		f.FailLink(link)
		fmt.Printf("\nfailed link %s; waiting for reconvergence...\n\n", *fail)
		f.RunFor(500 * time.Millisecond)
		sendProbe(2, 33002)
	}
}

// probeID extracts the probe's UDP source port if the frame is one of
// our probes (dst port 9).
func probeID(f *ether.Frame) (uint16, bool) {
	ip, ok := f.Payload.(*ippkt.IPv4)
	if !ok {
		return 0, false
	}
	udp, ok := ip.Payload.(*ippkt.UDP)
	if !ok || udp.DstPort != 9 || udp.SrcPort < 33000 {
		return 0, false
	}
	return udp.SrcPort, true
}

func edgeOf(hostName string) string {
	// host-pX-eY-hZ attaches to edge-pX-sY.
	var p, e, h int
	if _, err := fmt.Sscanf(hostName, "host-p%d-e%d-h%d", &p, &e, &h); err != nil {
		return ""
	}
	return fmt.Sprintf("edge-p%d-s%d", p, e)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
