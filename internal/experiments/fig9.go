package experiments

import (
	"fmt"
	"io"
	"time"

	"portland/internal/core"
	"portland/internal/faults"
	"portland/internal/metrics"
	"portland/internal/obs"
	"portland/internal/topo"
)

// Fig9Mode selects what gets failed.
type Fig9Mode int

// Failure modes: individual links (the paper's Figure 9), or whole
// aggregation/core switches (which the paper treats as the
// simultaneous failure of all their links).
const (
	FailLinks Fig9Mode = iota
	FailSwitches
)

// fig9Modes names each mode once: the catalog ID its sweep reports
// under, its replay reports' mode param, and what its table fails.
var fig9Modes = [...]struct{ id, param, what string }{
	FailLinks:    {"f9", "links", "link"},
	FailSwitches: {"f9s", "switches", "switch (aggregation/core)"},
}

// Fig9Config parameterizes the UDP-convergence experiment (paper
// Fig. 9: "Convergence time with increasing faults").
type Fig9Config struct {
	Rig       Rig
	Mode      Fig9Mode
	MaxFaults int // x-axis: 1..MaxFaults simultaneous failures
	Trials    int // repetitions per fault count
}

// DefaultFig9 matches the paper's sweep: up to 16 random failures.
func DefaultFig9() Fig9Config {
	return Fig9Config{
		Rig:       DefaultRig(),
		MaxFaults: 16,
		Trials:    5,
	}
}

// Fig9Row is one x-axis point.
type Fig9Row struct {
	Faults   int
	Trials   int             // trials that found a routability-preserving sample
	Failure  metrics.Summary // convergence after failure, ms
	Recovery metrics.Summary // convergence after restoration, ms
	Affected int             // flows that saw any interruption
	Dead     int             // flows that never recovered (should be 0)
}

// Fig9Result is the full series.
type Fig9Result struct {
	Cfg  Fig9Config
	Rows []Fig9Row
	Reported
}

// fig9Trial is one (fault-count, trial) cell's raw samples, merged
// into rows in canonical order after the sweep.
type fig9Trial struct {
	snap
	feasible  bool
	fail, rec probeStats // after the failure, after the restoration
	links     []int      // the failed links (FailLinks mode)
	failAt    time.Duration
	restoreAt time.Duration
}

// grid and cell declare the sweep (cellGrid): fault counts 1..MaxFaults, Trials each.
func (cfg Fig9Config) grid() (int, int, int) { return 1, cfg.MaxFaults, cfg.Trials }

func (cfg Fig9Config) cell(n, trial int) (fig9Trial, *core.Fabric, error) {
	var out fig9Trial
	rig := cfg.Rig
	rig.Seed = cfg.Rig.Seed + uint64(n*1000+trial)
	f, err := rig.build()
	if err != nil {
		return out, nil, err
	}
	flows := probeFlows(f)

	var crashed []topo.NodeID
	if cfg.Mode == FailSwitches {
		crashed, out.feasible = faults.PickConnectedSwitches(f.Rand(), f, n)
	} else {
		out.links, out.feasible = faults.PickConnected(f.Rand(), f, n)
	}
	if !out.feasible {
		out.snap = obsCell(f, n, trial, rig.Seed)
		return out, f, nil
	}
	out.failAt = f.Now()
	ev := faults.Event{Links: out.links, Switches: crashed, Duration: 1 * time.Second}
	faults.Schedule{Events: []faults.Event{ev}}.Apply(f)
	f.RunFor(1 * time.Second)
	out.fail.addFlows(flows, out.failAt)
	out.restoreAt = out.failAt + ev.Duration // armed by the schedule
	f.RunFor(1 * time.Second)
	out.rec.addFlows(flows, out.restoreAt)
	for _, fl := range flows {
		fl.Stop()
	}
	out.snap = obsCell(f, n, trial, rig.Seed)
	return out, f, nil
}

// report is the cell's replay report: the failure→reconvergence
// timeline, per-flow convergence, ARP latency, churn and counters.
func (tr fig9Trial) report(cfg Fig9Config, f *core.Fabric) (*obs.Report, error) {
	n, trial := tr.cell.Point, tr.cell.Trial
	if !tr.feasible {
		return nil, fmt.Errorf("no failure set of size %d preserves routability at k=%d (trial %d)", n, cfg.Rig.K, trial)
	}
	params := map[string]string{
		"k":           itoa(cfg.Rig.K),
		"faults":      itoa(n),
		"trial":       itoa(trial),
		"probe_every": probeEvery.String(),
		"mode":        fig9Modes[cfg.Mode].param,
	}
	for i, li := range tr.links {
		params["link"+itoa(i)] = linkName(f, li)
	}
	return replayReport(fig9Modes[cfg.Mode].id, f, tr.cell, params, views{faultAt: tr.failAt, arp: true, conv: &obs.Convergence{
		FaultAtNs:   int64(tr.failAt),
		RestoreAtNs: int64(tr.restoreAt),
		Failure:     metrics.Summarize(tr.fail.ms),
		Recovery:    metrics.Summarize(tr.rec.ms),
		Flows:       tr.fail.flows,
	}}), nil
}

// RunFig9 reproduces Figure 9: permutation UDP probe flows, n random
// simultaneous link failures (connectivity-preserving, as in the
// paper), convergence = interruption seen by affected receivers.
func RunFig9(cfg Fig9Config) (*Fig9Result, error) {
	res := &Fig9Result{Cfg: cfg}
	err := sweepCells(&res.Reported, fig9Modes[cfg.Mode].id, cfg.Rig.Seed, map[string]string{
		"k":           itoa(cfg.Rig.K),
		"max_faults":  itoa(cfg.MaxFaults),
		"trials":      itoa(cfg.Trials),
		"probe_every": probeEvery.String(),
	}, cfg, func(n int, trials []fig9Trial) {
		var failMs, recMs []float64
		row := Fig9Row{Faults: n}
		for _, tr := range trials {
			if !tr.feasible {
				continue
			}
			row.Trials++
			failMs = append(failMs, tr.fail.ms...)
			recMs = append(recMs, tr.rec.ms...)
			row.Affected += tr.fail.affected
			row.Dead += tr.fail.dead
		}
		row.Failure, row.Recovery = metrics.Summarize(failMs), metrics.Summarize(recMs)
		res.Rows = append(res.Rows, row)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print emits the series as the paper's figure would tabulate it.
func (r *Fig9Result) Print(w io.Writer) {
	fprintf(w, "Figure 9 — UDP convergence time vs number of random %s failures\n", fig9Modes[r.Cfg.Mode].what)
	fprintf(w, "(k=%d fat tree, %d trials/point, probe interval %v)\n", r.Cfg.Rig.K, r.Cfg.Trials, probeEvery)
	hr(w)
	fprintf(w, "%8s  %28s  %28s  %9s %5s\n", "faults", "failure convergence (ms)", "recovery convergence (ms)", "affected", "dead")
	fprintf(w, "%8s  %8s %9s %9s  %8s %9s %9s\n", "", "median", "mean", "max", "median", "mean", "max")
	for _, row := range r.Rows {
		if row.Trials == 0 {
			fprintf(w, "%8d  (no failure set of this size preserves routability at this k)\n", row.Faults)
			continue
		}
		fprintf(w, "%8d  %8.1f %9.1f %9.1f  %8.1f %9.1f %9.1f  %9d %5d\n",
			row.Faults,
			row.Failure.Median, row.Failure.Mean, row.Failure.Max,
			row.Recovery.Median, row.Recovery.Mean, row.Recovery.Max,
			row.Affected, row.Dead)
	}
	fmt.Fprintln(w)
}
