package experiments

import (
	"io"
	"net/netip"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ether"
	"portland/internal/fabricmgr"
)

// Fig14Config parameterizes the fabric-manager CPU estimate (paper
// Fig. 14: cores needed to serve the fabric's aggregate ARP rate, as
// a function of host count).
type Fig14Config struct {
	Rates      []int // ARPs per second per host
	HostsStep  int
	HostsMax   int
	Registry   int // registry size during the measurement
	MeasureOps int // ARP queries to time
}

// DefaultFig14 uses the paper's axes and its 27,648-host registry.
func DefaultFig14() Fig14Config {
	return Fig14Config{
		Rates:      []int{25, 50, 100},
		HostsStep:  8192,
		HostsMax:   131072,
		Registry:   27648,
		MeasureOps: 400000,
	}
}

// Fig14Row is one x-axis point.
type Fig14Row struct {
	Hosts int
	Cores []float64 // parallel to Cfg.Rates
}

// Fig14Result carries the measured single-core service rate and the
// derived series.
type Fig14Result struct {
	Cfg        Fig14Config
	ARPsPerSec float64 // measured single-core throughput of our manager
	NsPerARP   float64
	Rows       []Fig14Row
	Reported
}

// MeasureARPThroughput loads a manager's registry with n hosts and
// times end-to-end ARPQuery handling on one core (wall clock — this
// measures our own CPU, not simulated time).
func MeasureARPThroughput(registry, ops int) (arpsPerSec, nsPerARP float64) {
	m := fabricmgr.New()
	sess := m.NewSession(nopConn{})
	sess.Handle(ctrlmsg.Hello{Switch: 1})
	for i := 0; i < registry; i++ {
		ip := netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		sess.Handle(ctrlmsg.PMACRegister{Switch: 1, IP: ip, AMAC: ether.Addr{2, 0, 0, 0, 0, 1}, PMAC: ether.Addr{0, 1, 0, 0, 0, 1}})
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		n := i % registry
		ip := netip.AddrFrom4([4]byte{10, byte(n >> 16), byte(n >> 8), byte(n)})
		sess.Handle(ctrlmsg.ARPQuery{Switch: 1, QueryID: uint64(i), TargetIP: ip})
	}
	el := time.Since(start)
	nsPerARP = float64(el.Nanoseconds()) / float64(ops)
	return 1e9 / nsPerARP, nsPerARP
}

// nopConn swallows manager replies during throughput measurement.
type nopConn struct{}

func (nopConn) Send(ctrlmsg.Msg) error { return nil }

// RunFig14 reproduces Figure 14: measure our fabric manager's
// single-core ARP service rate, then scale cores = hosts × rate /
// serviceRate exactly as the paper extrapolates from its measurement.
func RunFig14(cfg Fig14Config) (*Fig14Result, error) {
	res := &Fig14Result{Cfg: cfg}
	res.ARPsPerSec, res.NsPerARP = MeasureARPThroughput(cfg.Registry, cfg.MeasureOps)
	for hosts := cfg.HostsStep; hosts <= cfg.HostsMax; hosts += cfg.HostsStep {
		row := Fig14Row{Hosts: hosts}
		for _, rate := range cfg.Rates {
			row.Cores = append(row.Cores, float64(hosts)*float64(rate)/res.ARPsPerSec)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print emits the figure's series.
func (r *Fig14Result) Print(w io.Writer) {
	fprintf(w, "Figure 14 — fabric-manager CPU requirement vs fabric size\n")
	hr(w)
	fprintf(w, "measured single-core service rate: %.0f ARPs/s (%.0f ns/ARP, %d-host registry)\n",
		r.ARPsPerSec, r.NsPerARP, r.Cfg.Registry)
	fprintf(w, "\n%10s", "hosts")
	for _, rate := range r.Cfg.Rates {
		fprintf(w, "  %8d/s", rate)
	}
	fprintf(w, "   (cores)\n")
	for _, row := range r.Rows {
		fprintf(w, "%10d", row.Hosts)
		for _, c := range row.Cores {
			fprintf(w, "  %10.2f", c)
		}
		fprintf(w, "\n")
	}
	fprintf(w, "\n")
}
