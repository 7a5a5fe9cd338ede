package experiments

import (
	"io"
	"time"

	"portland/internal/faults"
	"portland/internal/metrics"
	"portland/internal/topo"
	"portland/internal/workload"
)

// FMFConfig parameterizes the fabric-manager-failover experiment: how
// long the control plane can be dark, and how lossy its channels can
// be, before the fabric's reactive services degrade past the paper's
// soft-state story (§3.2: all manager state is rebuildable from the
// fabric; an outage costs availability of *new* resolutions, never
// installed forwarding state).
type FMFConfig struct {
	Rig     Rig
	Outages []time.Duration // manager dead time per cell
}

// DefaultFMF sweeps outages from one heartbeat to many, each against
// every control-channel loss rate of fmfLoss.
func DefaultFMF() FMFConfig {
	return FMFConfig{
		Rig:     DefaultRig(),
		Outages: []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond},
	}
}

// fmfLoss are the control-channel loss rates, one series each: a
// lossless and a 10%-loss control plane.
var fmfLoss = []float64{0, 0.1}

// FMFRow is one (outage, loss) cell.
type FMFRow struct {
	Outage   time.Duration
	CtrlLoss float64

	// ARPBlackout: a cold ARP issued the instant the manager dies
	// cannot resolve until the manager returns and resyncs; this is
	// the attempt→first-delivery time of that flow. The paper's
	// availability cost of a manager outage, measured end to end.
	ARPBlackout time.Duration

	// ResyncRound: restart → last switch's SyncDone.
	ResyncRound time.Duration

	// FlowConv: worst-case SteadyAfter convergence of the warm CBR
	// flows after a link fails mid-outage — the fault sits unrepaired
	// until the restarted manager replays adjacency and re-derives
	// exclusions.
	FlowConv time.Duration

	Dead      int   // flows that never re-converged
	CtrlDrops int64 // control frames lost (loss rate + dead-manager discard)

	snap
}

// FMFResult is the full sweep.
type FMFResult struct {
	Cfg  FMFConfig
	Rows []FMFRow
	Reported
}

// RunFMF measures manager-failover behavior: for each cell, warm a
// permutation CBR workload, kill the manager, fail a loaded agg-core
// link mid-outage, restart the manager after the outage, and measure
// the ARP blackout, the resync round, and how long flows crossing the
// dead link stay black.
func RunFMF(cfg FMFConfig) (*FMFResult, error) {
	res := &FMFResult{Cfg: cfg}
	err := sweep(&res.Reported, "fmf", cfg.Rig.Seed, map[string]string{
		"k":           itoa(cfg.Rig.K),
		"probe_every": probeEvery.String(),
	}, len(fmfLoss), len(cfg.Outages), func(li, oi int) (FMFRow, error) {
		// The flat cell number (first cell = 1) is the seed offset.
		return runFMFCell(cfg, fmfLoss[li], cfg.Outages[oi], li*len(cfg.Outages)+oi+1)
	}, func(_ int, series []FMFRow) {
		res.Rows = append(res.Rows, series...)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runFMFCell measures one (loss, outage) cell on a private engine.
func runFMFCell(cfg FMFConfig, loss float64, outage time.Duration, cell int) (FMFRow, error) {
	rig := cfg.Rig
	rig.Seed = cfg.Rig.Seed + uint64(cell)
	rig.CtrlLoss = loss
	f, err := rig.build()
	if err != nil {
		return FMFRow{}, err
	}
	flows := probeFlows(f)

	link, err := f.BusiestLink(100*time.Millisecond, topo.Aggregation, topo.Core)
	if err != nil {
		return FMFRow{}, err
	}

	killAt := f.Now()
	linkFailAt := killAt + outage/2
	restartAt := killAt + outage
	var resyncAt time.Duration
	faults.Schedule{Events: []faults.Event{
		{
			Manager:  true,
			Duration: outage,
			OnRecover: func() {
				f.Manager.SetOnSyncDone(func(uint32) { resyncAt = f.Now() })
			},
		},
		// The fault the dead manager cannot react to.
		{At: outage / 2, Links: []int{link}},
	}}.Apply(f)

	// Cold ARP at the kill instant: flush and resolve afresh.
	// The probe repeats rather than firing once — a lone
	// datagram can hash onto the link that fails mid-outage
	// and die before the restarted manager's exclusions land,
	// which would read as an infinite blackout when ARP
	// service is in fact back.
	hosts := f.HostList()
	cold, target := hosts[2], hosts[len(hosts)-3]
	cold.FlushARP(target.IP())
	coldFlow := workload.StartCBR(cold, target, 7300, probeEvery, 64)

	f.RunFor(outage + 2*time.Second)

	coldFlow.Stop()
	row := FMFRow{Outage: outage, CtrlLoss: loss}
	if first, ok := coldFlow.RX.ConvergenceAfter(killAt, 0); ok {
		row.ARPBlackout = first
	} else {
		row.ARPBlackout = -1 // never delivered
	}
	if resyncAt > 0 {
		row.ResyncRound = resyncAt - restartAt
	} else {
		row.ResyncRound = -1
	}
	for _, fl := range flows {
		steady, ok := fl.RX.SteadyAfter(linkFailAt, 2*probeEvery)
		if !ok {
			row.Dead++
			continue
		}
		if conv := steady - linkFailAt; conv > row.FlowConv {
			row.FlowConv = conv
		}
		fl.Stop()
	}
	toMgr, fromMgr := f.ControlStats()
	row.CtrlDrops = toMgr.Drops + fromMgr.Drops
	row.snap = obsCell(f, cell, 0, rig.Seed)
	return row, nil
}

// Print tabulates the sweep.
func (r *FMFResult) Print(w io.Writer) {
	fprintf(w, "Manager failover — ARP blackout and convergence vs outage and control loss\n")
	fprintf(w, "(k=%d fat tree, probe interval %v; blackout measured from the kill instant)\n",
		r.Cfg.Rig.K, probeEvery)
	hr(w)
	fprintf(w, "%8s %6s  %13s %12s %13s %5s %10s\n",
		"outage", "loss", "ARP blackout", "resync", "flow conv", "dead", "ctrl drops")
	for _, row := range r.Rows {
		fprintf(w, "%8v %6.2f  %13s %12s %13s %5d %10d\n",
			row.Outage, row.CtrlLoss, msOrNever(row.ARPBlackout), msOrNever(row.ResyncRound),
			metrics.FmtMs(row.FlowConv), row.Dead, row.CtrlDrops)
	}
	fprintf(w, "\n")
}
