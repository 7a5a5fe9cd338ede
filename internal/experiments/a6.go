package experiments

import (
	"io"
	"time"

	"portland/internal/obs"
)

// A6Row is one locality class's round-trip-time distribution.
type A6Row struct {
	Class string
	Hops  int         // one-way switch hops on the canonical path
	RTT   obs.Summary // microseconds
}

// A6Result measures how latency tracks the PMAC hierarchy: same-edge
// pairs cross one switch, same-pod pairs three, inter-pod pairs five.
// The fat tree's defining property is that the inter-pod penalty is a
// constant (every remote pair is equidistant), which the spread of
// the inter-pod class makes visible.
type A6Result struct {
	K    int
	Rows []A6Row
	Reported
}

// RunA6 pings representative pairs in each locality class. A single
// cell: there is nothing to sweep.
func RunA6(k, probes int) (*A6Result, error) {
	rig := DefaultRig()
	rig.K = k
	f, err := rig.build()
	if err != nil {
		return nil, err
	}
	hosts := f.HostList()
	for _, h := range hosts {
		h.Endpoint().EnableEcho()
	}
	classes := []struct {
		name string
		hops int
		src  string
		dsts []string
	}{
		{"same-edge", 1, "host-p0-e0-h0", []string{"host-p0-e0-h1"}},
		{"same-pod", 3, "host-p0-e0-h0", []string{"host-p0-e1-h0", "host-p0-e1-h1"}},
		{"inter-pod", 5, "host-p0-e0-h0", []string{
			"host-p1-e0-h0", "host-p1-e1-h1", "host-p2-e0-h1", "host-p3-e1-h0",
		}},
	}
	res := &A6Result{K: k}
	for _, c := range classes {
		src := f.HostByName(c.src)
		var samples []float64
		for _, dn := range c.dsts {
			dst := f.HostByName(dn)
			// Warm ARP first so the distribution measures the fabric,
			// not resolution.
			src.Endpoint().Ping(dst.IP(), 64, nil)
			f.RunFor(10 * time.Millisecond)
			for i := 0; i < probes; i++ {
				src.Endpoint().Ping(dst.IP(), 64, func(rtt time.Duration) {
					samples = append(samples, float64(rtt)/float64(time.Microsecond))
				})
				f.RunFor(time.Millisecond)
			}
		}
		res.Rows = append(res.Rows, A6Row{Class: c.name, Hops: c.hops, RTT: obs.Summarize(samples)})
	}
	res.Report = replayReport("a6", f, obsCell(f, 0, 0, rig.Seed).cell, map[string]string{
		"k":      itoa(k),
		"probes": itoa(probes),
	}, views{})
	return res, nil
}

// Print emits the locality table.
func (r *A6Result) Print(w io.Writer) {
	fprintf(w, "Ablation A6 — round-trip time by locality class (k=%d)\n", r.K)
	hr(w)
	fprintf(w, "%-10s %6s  %10s %10s %10s %8s\n", "class", "hops", "median µs", "mean µs", "max µs", "samples")
	for _, row := range r.Rows {
		fprintf(w, "%-10s %6d  %10.1f %10.1f %10.1f %8d\n",
			row.Class, row.Hops, row.RTT.Median, row.RTT.Mean, row.RTT.Max, row.RTT.N)
	}
	fprintf(w, "\n")
}
