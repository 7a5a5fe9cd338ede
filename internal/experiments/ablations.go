package experiments

import (
	"errors"
	"io"
	"math/rand/v2"
	"net/netip"
	"time"

	"portland/internal/baseline"
	"portland/internal/core"
	"portland/internal/ether"
	"portland/internal/host"
	"portland/internal/ippkt"
	"portland/internal/ldp"
	"portland/internal/obs"
	"portland/internal/sim"
	"portland/internal/topo"
	"portland/internal/workload"
)

// --- A1: ECMP multipath vs single spanning-tree path ---------------

// A1Config configures the bisection-throughput ablation. It has no
// fields: the blast is fixed (a1Window, a1Every, a1Size) and the fabric
// is the rig's. The type stays because benchmark/ runs
// RunA1(DefaultA1()).
type A1Config struct{}

// DefaultA1 returns the one A1 configuration.
func DefaultA1() A1Config { return A1Config{} }

// A1 saturates the fabric with left→right pod flows: one a1Size-byte
// datagram per flow every a1Every, measured over a1Window.
const (
	a1Window = 1 * time.Second
	a1Every  = 15 * time.Microsecond
	a1Size   = 1400
)

// A1Result compares delivered cross-section goodput. The report
// covers the PortLand half only: the baseline fabric has no journals.
type A1Result struct {
	k            int
	PortLandMbps float64
	BaselineMbps float64
	Speedup      float64
	Reported
}

// a1Half is one fabric's goodput plus (for the PortLand half) its
// observability snapshot.
type a1Half struct {
	snap
	mbps float64
}

// RunA1 sends one CBR flow per left-half host to a distinct
// right-half host at near line rate and measures aggregate goodput.
// PortLand spreads the flows over every core; the spanning tree
// funnels them through its single surviving root path. The two
// fabrics are independent and run as two cells.
func RunA1(A1Config) (*A1Result, error) {
	rig := DefaultRig()
	res := &A1Result{k: rig.K}
	var mbps [2]float64
	err := sweep(&res.Reported, "a1", rig.Seed, map[string]string{
		"k": itoa(rig.K),
	}, 2, 1, func(half, _ int) (a1Half, error) {
		if half == 1 {
			bf, err := buildBaseline(rig.K, 1, baseline.Config{})
			if err != nil {
				return a1Half{}, err
			}
			return a1Half{mbps: crossSectionGoodput(bf)}, nil
		}
		f, err := rig.build()
		if err != nil {
			return a1Half{}, err
		}
		mbps := crossSectionGoodput(f)
		return a1Half{mbps: mbps, snap: obsCell(f, 0, 0, rig.Seed)}, nil
	}, func(half int, h []a1Half) { mbps[half] = h[0].mbps })
	if err != nil {
		return nil, err
	}
	res.PortLandMbps, res.BaselineMbps = mbps[0], mbps[1]
	if res.BaselineMbps > 0 {
		res.Speedup = res.PortLandMbps / res.BaselineMbps
	}
	return res, nil
}

// crossSectionGoodput pairs each left-half host with a right-half
// host, resolves ARP with a gentle warm-up, then blasts CBR for the
// measurement window and reports the aggregate delivered rate. Each
// flow ticks on its source host's own scheduler, from a phase drawn at
// rest from the driver's PRNG, and each receiver counts into its own
// slot, summed at rest.
func crossSectionGoodput(f interface {
	HostList() []*host.Host
	RunFor(time.Duration)
	Rand() *rand.Rand
}) float64 {
	hosts := f.HostList()
	half := len(hosts) / 2
	received := make([]int64, half)
	measuring := false // flipped only at rest, between runs
	for i := 0; i < half; i++ {
		src, dst := hosts[i], hosts[half+i]
		port := uint16(23000 + i)
		dst.Endpoint().BindUDP(port, func(netip.Addr, uint16, ether.Payload) {
			if measuring {
				received[i] += a1Size
			}
		})
		// One probe to resolve ARP before the blast.
		src.Endpoint().SendUDP(dst.IP(), port, port, 1)
	}
	f.RunFor(time.Second)
	for i := 0; i < half; i++ {
		src, dst := hosts[i], hosts[half+i]
		port := uint16(23000 + i)
		send := a1Sender(src, dst, port, a1Size)
		// De-phase the flows: first tick a random fraction of the interval in.
		first := time.Duration(f.Rand().Int64N(int64(a1Every))) + 1
		src.Sim().Schedule(first, func() {
			send()
			src.Sim().NewTicker(a1Every, 0, send)
		})
	}
	f.RunFor(200 * time.Millisecond) // ramp
	measuring = true
	f.RunFor(a1Window)
	measuring = false
	var total int64
	for _, n := range received {
		total += n
	}
	return float64(total) * 8 / a1Window.Seconds() / 1e6
}

// a1Sender returns one flow's per-tick send: the flow's datagrams are
// identical, so one is built and re-sent through SendIP, as
// workload.StartCBR does (at A1's rate, else the sweep's top allocator).
func a1Sender(src, dst *host.Host, port uint16, size int) func() {
	pkt := ippkt.NewUDP(src.IP(), dst.IP(), port, port, size)
	return func() { src.Endpoint().SendIP(dst.IP(), ippkt.ProtoUDP, pkt) }
}

// Print emits the comparison.
func (r *A1Result) Print(w io.Writer) {
	fprintf(w, "Ablation A1 — cross-section goodput: ECMP vs spanning tree (k=%d)\n", r.k)
	hr(w)
	fprintf(w, "PortLand (ECMP over cores): %8.0f Mbps\n", r.PortLandMbps)
	fprintf(w, "Flat L2 (spanning tree):    %8.0f Mbps\n", r.BaselineMbps)
	fprintf(w, "speedup: %.2fx\n\n", r.Speedup)
}

// --- A2: LDP discovery time vs k -----------------------------------

// A2Row is one fat-tree degree's discovery time.
type A2Row struct {
	K         int
	Switches  int
	Discovery time.Duration
}

// A2Result is the sweep.
type A2Result struct {
	Rows []A2Row
	Reported
}

// a2Cell pairs one degree's row with its observability snapshot.
type a2Cell struct {
	snap
	row A2Row
}

// RunA2 measures the virtual time from cold boot until every switch
// has resolved its location; each degree boots its own fabric, one
// cell per k.
func RunA2(ks []int) (*A2Result, error) {
	rig := DefaultRig()
	res := &A2Result{}
	err := sweep(&res.Reported, "a2", rig.Seed, nil, len(ks), 1, func(i, _ int) (a2Cell, error) {
		f, err := core.NewFatTree(ks[i], rig.Options)
		if err != nil {
			return a2Cell{}, err
		}
		f.Start()
		for f.Now() < 60*time.Second && !f.AllResolved() {
			f.RunFor(time.Millisecond)
		}
		if !f.AllResolved() {
			return a2Cell{}, errors.New("a2: discovery did not complete")
		}
		if err := f.CheckDiscovery(); err != nil {
			return a2Cell{}, err
		}
		row := A2Row{K: ks[i], Switches: len(f.Spec.Switches()), Discovery: f.Now()}
		return a2Cell{row: row, snap: obsCell(f, i, 0, rig.Seed)}, nil
	}, func(_ int, c []a2Cell) {
		res.Rows = append(res.Rows, c[0].row)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print emits the sweep.
func (r *A2Result) Print(w io.Writer) {
	fprintf(w, "Ablation A2 — LDP location-discovery time vs fat-tree degree\n")
	hr(w)
	fprintf(w, "%4s %10s %14s\n", "k", "switches", "discovery")
	for _, row := range r.Rows {
		fprintf(w, "%4d %10d %14v\n", row.K, row.Switches, row.Discovery)
	}
	fprintf(w, "\n")
}

// --- A3: proxy ARP vs broadcast ARP --------------------------------

// A3Result compares the network cost of one address resolution. The
// report covers the PortLand half only.
type A3Result struct {
	K int
	Reported
	// PortLand: control messages + frames touched per resolution.
	PLCtrlMsgs   float64
	PLDataFrames float64
	// Baseline: total frame deliveries per resolution (flood).
	BLDataFrames float64
	HostsHearing float64 // hosts disturbed per resolution (baseline)
}

// a3Half carries one fabric's share of the A3 measurement; the two
// fabrics are independent and run as two cells.
type a3Half struct {
	snap
	ctrlMsgs     float64
	dataFrames   float64
	hostsHearing float64
}

// RunA3 measures per-resolution cost in both fabrics.
func RunA3(k, resolutions int) (*A3Result, error) {
	rig := DefaultRig()
	rig.K = k
	res := &A3Result{K: k}
	var halves [2]a3Half
	err := sweep(&res.Reported, "a3", rig.Seed, map[string]string{
		"k":           itoa(k),
		"resolutions": itoa(resolutions),
	}, 2, 1, func(half, _ int) (a3Half, error) {
		if half == 0 {
			return runA3PortLand(rig, resolutions)
		}
		return runA3Baseline(k, resolutions)
	}, func(half int, h []a3Half) { halves[half] = h[0] })
	if err != nil {
		return nil, err
	}
	res.PLCtrlMsgs, res.PLDataFrames = halves[0].ctrlMsgs, halves[0].dataFrames
	res.BLDataFrames, res.HostsHearing = halves[1].dataFrames, halves[1].hostsHearing
	return res, nil
}

func runA3PortLand(rig Rig, resolutions int) (a3Half, error) {
	var out a3Half
	f, err := rig.build()
	if err != nil {
		return out, err
	}
	// Pre-measure the LDP keepalive background so it can be
	// subtracted from the storm window.
	f.RunFor(100 * time.Millisecond)
	bg0 := linkDelivered(f.Links)
	f.RunFor(1 * time.Second)
	bgPerSec := float64(linkDelivered(f.Links) - bg0)

	toMgr0, fromMgr0 := f.ControlStats()
	delivered0 := linkDelivered(f.Links)
	n := workload.ARPStorm(f.HostList(), resolutions)
	const window = 2 * time.Second
	f.RunFor(window)
	toMgr1, fromMgr1 := f.ControlStats()
	delivered1 := linkDelivered(f.Links)
	out.ctrlMsgs = float64(toMgr1.Msgs-toMgr0.Msgs+fromMgr1.Msgs-fromMgr0.Msgs) / float64(n)
	out.dataFrames = (float64(delivered1-delivered0) - bgPerSec*window.Seconds()) / float64(n)
	out.snap = obsCell(f, 0, 0, rig.Seed)
	return out, nil
}

func runA3Baseline(k, resolutions int) (a3Half, error) {
	var out a3Half
	bf, err := buildBaseline(k, 1, baseline.Config{})
	if err != nil {
		return out, err
	}
	// Pre-measure the BPDU background rate.
	bbg0 := linkDelivered(bf.Links)
	bf.RunFor(1 * time.Second)
	bBgPerSec := float64(linkDelivered(bf.Links) - bbg0)

	hostsIn := func() (n int64) {
		for _, h := range bf.HostList() {
			n += h.Stats.FramesIn
		}
		return n
	}
	bDelivered0, hostsIn0 := linkDelivered(bf.Links), hostsIn()
	bn := workload.ARPStorm(bf.HostList(), resolutions)
	const bWindow = 4 * time.Second
	bf.RunFor(bWindow)
	bDelivered1, hostsIn1 := linkDelivered(bf.Links), hostsIn()
	out.dataFrames = (float64(bDelivered1-bDelivered0) - bBgPerSec*bWindow.Seconds()) / float64(bn)
	// Hosts also hear periodic BPDUs on their access links; subtract
	// that background (one BPDU per host per hello).
	bpduPerHost := bWindow.Seconds() / baseline.Hello.Seconds()
	out.hostsHearing = float64(hostsIn1-hostsIn0)/float64(bn) - bpduPerHost*float64(len(bf.HostList()))/float64(bn)
	return out, nil
}

// Print emits the comparison.
func (r *A3Result) Print(w io.Writer) {
	fprintf(w, "Ablation A3 — cost of one ARP resolution (k=%d fabric)\n", r.K)
	hr(w)
	fprintf(w, "PortLand:  %.1f control msgs + %.1f fabric frames per resolution\n", r.PLCtrlMsgs, r.PLDataFrames)
	fprintf(w, "Flat L2:   %.1f fabric frames per resolution, %.1f host NICs disturbed\n", r.BLDataFrames, r.HostsHearing)
	fprintf(w, "\n")
}

func linkDelivered(links []*sim.Link) int64 {
	var n int64
	for _, l := range links {
		n += l.Delivered()
	}
	return n
}

// --- A4: LDM interval sweep ----------------------------------------

// A4Row is one LDM-interval point.
type A4Row struct {
	Interval    time.Duration
	Convergence obs.Summary // ms over trials
	LDMsPerSec  float64     // per switch, steady state
}

// A4Result is the sweep.
type A4Result struct {
	Rows []A4Row
	Reported
}

// a4Trial is one (interval, trial) cell's contribution.
type a4Trial struct {
	snap
	conv    probeStats
	ldmRate float64
}

func runA4Cell(rig Rig, iv time.Duration, trial int) (a4Trial, error) {
	var out a4Trial
	rig.Seed = uint64(trial) + 1
	rig.LDP = ldp.Config{Interval: iv}
	f, err := rig.build()
	if err != nil {
		return out, err
	}
	hosts := f.HostList()
	flow := workload.StartCBR(hosts[0], hosts[len(hosts)-1], 22000, probeEvery, 64)
	f.RunFor(500 * time.Millisecond)

	ldmsSent := func() (n int64) {
		for _, id := range f.Spec.Switches() {
			n += f.Switches[id].Agent().LDMsSent
		}
		return n
	}
	ldm0, t0 := ldmsSent(), f.Now()
	link, err := f.BusiestLink(100*time.Millisecond, topo.Aggregation, topo.Core)
	if err != nil {
		return out, err
	}
	failAt := failLink(f, link)
	f.RunFor(2 * time.Second)
	out.ldmRate = float64(ldmsSent()-ldm0) / (f.Now() - t0).Seconds() / float64(len(f.Spec.Switches()))

	out.conv.addFlows([]*workload.CBR{flow}, failAt)
	flow.Stop()
	out.snap = obsCell(f, 0, trial, rig.Seed)
	return out, nil
}

// RunA4 sweeps the LDM interval, measuring failure convergence (the
// gain) against keepalive overhead (the cost) over an (interval,
// trial) grid.
func RunA4(intervals []time.Duration, trials int) (*A4Result, error) {
	rig := DefaultRig()
	res := &A4Result{}
	err := sweep(&res.Reported, "a4", rig.Seed, map[string]string{
		"trials": itoa(trials),
	}, len(intervals), trials, func(point, trial int) (a4Trial, error) {
		return runA4Cell(rig, intervals[point], trial)
	}, func(p int, cells []a4Trial) {
		var samples []float64
		var ldmRate float64
		for _, tr := range cells {
			samples = append(samples, tr.conv.ms...)
			ldmRate += tr.ldmRate
		}
		res.Rows = append(res.Rows, A4Row{
			Interval:    intervals[p],
			Convergence: obs.Summarize(samples),
			LDMsPerSec:  ldmRate / float64(trials),
		})
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print emits the trade-off table.
func (r *A4Result) Print(w io.Writer) {
	fprintf(w, "Ablation A4 — LDM interval: failure convergence vs keepalive cost\n")
	hr(w)
	fprintf(w, "%10s  %26s  %14s\n", "interval", "convergence ms (med/mean/max)", "LDMs/s/switch")
	for _, row := range r.Rows {
		fprintf(w, "%10v  %8.1f %8.1f %8.1f  %14.0f\n",
			row.Interval, row.Convergence.Median, row.Convergence.Mean, row.Convergence.Max, row.LDMsPerSec)
	}
	fprintf(w, "\n")
}
