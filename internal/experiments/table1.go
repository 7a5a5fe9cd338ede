package experiments

import (
	"io"
	"time"

	"portland/internal/baseline"
	"portland/internal/topo"
	"portland/internal/workload"
)

// Table1Qualitative reproduces the paper's Table 1: the qualitative
// comparison of layer-2/layer-3 fabric techniques. Rows are quoted
// from the paper's framing; the quantitative proxy below backs the
// "forwarding state" column with measurements from this repository.
var Table1Qualitative = []struct {
	System              string
	PlugAndPlay         string
	Scalability         string
	SwitchState         string
	SeamlessVMMigration string
}{
	{"Layer 2 (flat MAC, STP)", "yes", "poor (broadcast, O(N) state)", "O(#hosts)", "yes"},
	{"Layer 3 (subnetted IP)", "no (per-switch config)", "good", "O(#subnets)", "no (address changes)"},
	{"TRILL / SEATTLE (flat + DHT)", "yes", "medium (flooding fallback)", "O(#hosts) worst case", "partially"},
	{"PortLand (this system)", "yes (LDP + fabric manager)", "good (hierarchy + ECMP)", "O(k) + local hosts", "yes (PMAC reassigned)"},
}

// Table1Config parameterizes the quantitative state-size proxy.
type Table1Config struct {
	Ks []int // fat-tree degrees to measure
}

// DefaultTable1 measures small fabrics; t1AnalyticKs extrapolate to the
// paper's deployment scale.
func DefaultTable1() Table1Config {
	return Table1Config{Ks: []int{4, 8, 16}}
}

// t1AnalyticKs are the fat-tree degrees Table 1 reports analytically
// only.
var t1AnalyticKs = []int{32, 48}

// warmPeers is the ARP-storm fan-out of the warm-up t1, ft and f13
// run: every host resolves this many distinct peers.
const warmPeers = 8

// Table1Row is one measured (or analytic) fabric size.
type Table1Row struct {
	K        int
	Hosts    int
	Measured bool

	// PortLand switch state (entries), worst and mean across
	// switches, measured after transient flow entries idle out —
	// the steady-state requirement Table 1 compares.
	PLMax  int
	PLMean float64
	// PLActiveMax is the peak state while the warm-up flows were
	// live (OpenFlow reactive entries are per-flow and transient).
	PLActiveMax int

	// Baseline flat-MAC state after identical warm-up.
	BLMax  int
	BLMean float64
}

// Table1Result holds the proxy measurements.
type Table1Result struct {
	Rows []Table1Row
	Reported
}

// t1Cell pairs one measured row with its observability snapshot.
type t1Cell struct {
	snap
	row Table1Row
}

// RunTable1 measures forwarding-state footprints: every host talks to
// warmPeers distinct peers, then we count per-switch forwarding
// entries in both fabrics. PortLand's edge state is bounded by its
// local hosts + O(k) protocol state; the baseline learns every MAC
// that crosses it.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	rig := DefaultRig()
	res := &Table1Result{}
	err := sweep(&res.Reported, "t1", rig.Seed, map[string]string{
		"peers_per_host": itoa(warmPeers),
	}, len(cfg.Ks), 1, func(point, _ int) (t1Cell, error) {
		return runTable1Cell(rig, point, cfg.Ks[point])
	}, func(_ int, cells []t1Cell) {
		res.Rows = append(res.Rows, cells[0].row)
	})
	if err != nil {
		return nil, err
	}
	// Analytic rows: PortLand edge ≈ k/2 local hosts + O(k) neighbor
	// state; baseline worst case learns every host MAC.
	for _, k := range t1AnalyticKs {
		c := topo.FatTreeCounts(k)
		res.Rows = append(res.Rows, Table1Row{
			K: k, Hosts: c.Hosts,
			PLMax: k/2 + k, PLMean: float64(k/2 + k),
			BLMax: c.Hosts, BLMean: float64(c.Hosts),
		})
	}
	return res, nil
}

// runTable1Cell measures one fat-tree degree: a PortLand fabric and a
// baseline flat-L2 fabric, both with identical warm-up, on private
// engines.
func runTable1Cell(rig Rig, point, k int) (t1Cell, error) {
	var out t1Cell
	rig.K = k
	f, err := rig.build()
	if err != nil {
		return out, err
	}
	row := Table1Row{K: k, Hosts: f.Spec.Count().Hosts, Measured: true}
	workload.ARPStorm(f.HostList(), warmPeers)
	f.RunFor(2 * time.Second)
	for _, id := range f.Spec.Switches() {
		row.PLActiveMax = max(row.PLActiveMax, f.Switches[id].RoutingStateSize())
	}
	// Let the reactive flow entries idle out (OpenFlow soft
	// timeouts); what remains is the state PortLand *requires*.
	f.RunFor(8 * time.Second)
	var plSum int
	for _, id := range f.Spec.Switches() {
		n := f.Switches[id].RoutingStateSize()
		plSum += n
		row.PLMax = max(row.PLMax, n)
	}
	row.PLMean = float64(plSum) / float64(len(f.Spec.Switches()))
	out.snap = obsCell(f, point, 0, rig.Seed)

	// Baseline fabric, identical warm-up.
	bf, err := buildBaseline(k, 1, baseline.Config{})
	if err != nil {
		return out, err
	}
	workload.ARPStorm(bf.HostList(), warmPeers)
	bf.RunFor(5 * time.Second)
	var blSum int
	for _, id := range bf.Spec.Switches() {
		n := bf.Switches[id].MACTableLen()
		blSum += n
		row.BLMax = max(row.BLMax, n)
	}
	row.BLMean = float64(blSum) / float64(len(bf.Spec.Switches()))
	out.row = row
	return out, nil
}

// Print emits both halves of Table 1.
func (r *Table1Result) Print(w io.Writer) {
	fprintf(w, "Table 1 — comparison of fabric techniques (qualitative, from the paper's framing)\n")
	hr(w)
	fprintf(w, "%-30s %-26s %-30s %-22s %s\n", "system", "plug-and-play", "scalability", "switch state", "seamless VM migration")
	for _, q := range Table1Qualitative {
		fprintf(w, "%-30s %-26s %-30s %-22s %s\n", q.System, q.PlugAndPlay, q.Scalability, q.SwitchState, q.SeamlessVMMigration)
	}
	fprintf(w, "\nQuantitative proxy — forwarding-state entries per switch after identical warm-up\n")
	fprintf(w, "(%d peers per host; analytic rows marked *)\n", warmPeers)
	hr(w)
	fprintf(w, "%4s %8s  %22s  %12s  %22s\n", "k", "hosts", "PortLand (max / mean)", "PL peak", "flat L2 (max / mean)")
	for _, row := range r.Rows {
		mark := " "
		if !row.Measured {
			mark = "*"
		}
		fprintf(w, "%3d%s %8d  %10d / %9.1f  %12d  %10d / %9.1f\n",
			row.K, mark, row.Hosts, row.PLMax, row.PLMean, row.PLActiveMax, row.BLMax, row.BLMean)
	}
	fprintf(w, "\n")
}
