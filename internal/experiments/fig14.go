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
// a function of host count, on Figure 13's host×rate axis).
type Fig14Config struct {
	Registry   int // registry size during the measurement
	MeasureOps int // ARP queries to time
}

// DefaultFig14 uses the paper's 27,648-host registry.
func DefaultFig14() Fig14Config {
	return Fig14Config{
		Registry:   27648,
		MeasureOps: 400000,
	}
}

// Fig14Row is one x-axis point.
type Fig14Row struct {
	Hosts int
	Cores []float64 // parallel to arpRates
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
	arpAxis(func(hosts int, cores []float64) { res.Rows = append(res.Rows, Fig14Row{Hosts: hosts, Cores: cores}) },
		func(hosts, rate int) float64 { return float64(hosts) * float64(rate) / res.ARPsPerSec })
	return res, nil
}

// Print emits the figure's series.
func (r *Fig14Result) Print(w io.Writer) {
	fprintf(w, "Figure 14 — fabric-manager CPU requirement vs fabric size\n")
	hr(w)
	fprintf(w, "measured single-core service rate: %.0f ARPs/s (%.0f ns/ARP, %d-host registry)\n",
		r.ARPsPerSec, r.NsPerARP, r.Cfg.Registry)
	printARPAxis(w, "cores", "  %10.2f", r.Rows, func(row Fig14Row) (int, []float64) { return row.Hosts, row.Cores })
}
