package experiments

import (
	"io"
	"net/netip"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/workload"
)

// ARPMessageBytes returns the measured wire cost of one proxied ARP:
// the edge switch's ARPQuery punt plus the fabric manager's ARPAnswer,
// including transport framing. This is the per-ARP constant Figure 13
// scales by hosts × rate.
func ARPMessageBytes() int {
	q := ctrlmsg.Encode(ctrlmsg.ARPQuery{
		Switch:     1,
		QueryID:    1,
		SenderPMAC: ether.Addr{0, 1, 2, 3, 4, 5},
		SenderIP:   netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		TargetIP:   netip.AddrFrom4([4]byte{10, 0, 0, 2}),
	})
	a := ctrlmsg.Encode(ctrlmsg.ARPAnswer{
		QueryID:  1,
		Found:    true,
		TargetIP: netip.AddrFrom4([4]byte{10, 0, 0, 2}),
		PMAC:     ether.Addr{0, 1, 2, 3, 4, 5},
	})
	return len(q) + len(a) + 2*ctrlnet.FrameOverhead
}

// Fig13Config configures the control-traffic scalability estimate
// (paper Fig. 13: fabric-manager control traffic vs number of hosts
// for per-host ARP rates of 25, 50 and 100/s). It has no fields: the
// axes are the paper's, fixed as arpRates and arpHostsStep..arpHostsMax.
// The type stays because benchmark/ runs RunFig13(DefaultFig13()).
type Fig13Config struct{}

// DefaultFig13 returns the one Figure 13 configuration.
func DefaultFig13() Fig13Config { return Fig13Config{} }

// arpRates are the per-host ARP rates (ARPs/s) of Figures 13 and 14,
// and arpHostsStep..arpHostsMax their shared host-count axis: the
// paper's axes, up to ~128k hosts.
var arpRates = []int{25, 50, 100}

const (
	arpHostsStep = 8192
	arpHostsMax  = 131072
)

// arpAxis calls row once per host count of Figures 13 and 14's axis,
// with per(hosts, rate) at each of arpRates.
func arpAxis(row func(hosts int, vals []float64), per func(hosts, rate int) float64) {
	for hosts := arpHostsStep; hosts <= arpHostsMax; hosts += arpHostsStep {
		var vals []float64
		for _, rate := range arpRates {
			vals = append(vals, per(hosts, rate))
		}
		row(hosts, vals)
	}
}

// printARPAxis prints Figures 13 and 14's host×rate table: a header
// naming each rate and the unit, then each row's host count and its
// values, one cell format each.
func printARPAxis[R any](w io.Writer, unit, cell string, rows []R, row func(R) (int, []float64)) {
	fprintf(w, "\n%10s", "hosts")
	for _, rate := range arpRates {
		fprintf(w, "  %8d/s", rate)
	}
	fprintf(w, "   (%s)\n", unit)
	for _, r := range rows {
		hosts, vals := row(r)
		fprintf(w, "%10d", hosts)
		for _, v := range vals {
			fprintf(w, cell, v)
		}
		fprintf(w, "\n")
	}
	fprintf(w, "\n")
}

// Fig13Row is one x-axis point.
type Fig13Row struct {
	Hosts int
	Mbps  []float64 // parallel to arpRates
}

// Fig13Result is the series plus the measured per-ARP constant and
// the simulation cross-check.
type Fig13Result struct {
	BytesPerARP int
	Rows        []Fig13Row

	// Cross-check: a real simulated run's measured control bytes per
	// proxied ARP, which must agree with the analytic constant.
	MeasuredPerARP float64
	Reported
}

// RunFig13 reproduces Figure 13. Like the paper, the large-scale
// curve is an extrapolation from the measured per-ARP cost; unlike
// the paper we also validate that constant against an actual run of
// the full fabric (the k=4 testbed with a cache-busting ARP workload).
func RunFig13(Fig13Config) (*Fig13Result, error) {
	res := &Fig13Result{BytesPerARP: ARPMessageBytes()}
	arpAxis(func(hosts int, mbps []float64) { res.Rows = append(res.Rows, Fig13Row{Hosts: hosts, Mbps: mbps}) },
		func(hosts, rate int) float64 {
			return float64(hosts) * float64(rate) * float64(res.BytesPerARP) * 8 / 1e6
		})

	// Cross-check in the simulator.
	f, err := DefaultRig().build()
	if err != nil {
		return nil, err
	}
	f.RunFor(200 * time.Millisecond)
	toMgr0, fromMgr0 := f.ControlStats()
	arps0 := f.Manager.Stats.ARPQueries
	n := workload.ARPStorm(f.HostList(), warmPeers)
	f.RunFor(2 * time.Second)
	toMgr1, fromMgr1 := f.ControlStats()
	arps := f.Manager.Stats.ARPQueries - arps0
	if arps > 0 && n > 0 {
		// Every control byte of the window counts: registrations and
		// flood fallbacks ride the same channels as the punts and
		// answers, so the ratio is the analytic cost plus their share.
		res.MeasuredPerARP = float64((toMgr1.Bytes-toMgr0.Bytes)+(fromMgr1.Bytes-fromMgr0.Bytes)) / float64(arps)
	}
	return res, nil
}

// Print emits the figure's series.
func (r *Fig13Result) Print(w io.Writer) {
	fprintf(w, "Figure 13 — fabric-manager control traffic vs fabric size\n")
	hr(w)
	fprintf(w, "measured wire cost per proxied ARP (query+answer+framing): %d bytes\n", r.BytesPerARP)
	if r.MeasuredPerARP > 0 {
		fprintf(w, "simulator cross-check (incl. registrations/floods): %.1f bytes/ARP\n", r.MeasuredPerARP)
	}
	printARPAxis(w, "Mbps at fabric manager", "  %10.1f", r.Rows, func(row Fig13Row) (int, []float64) { return row.Hosts, row.Mbps })
}
