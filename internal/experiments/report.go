// The machinery every driver shares: the sweep that fans cells out and
// collects their snapshots, the probe-stream classification, and the
// replay report. Reports are built entirely after the simulation ran,
// from journals the fabric filled as a side effect — building one can
// never perturb a run.
package experiments

import (
	"strconv"
	"time"

	"portland/internal/core"
	"portland/internal/metrics"
	"portland/internal/obs"
	"portland/internal/runner"
	"portland/internal/workload"
)

// snap is embedded in every sweep cell's result: the cell's
// observability snapshot, which sweep collects into the report.
type snap struct{ cell obs.CellReport }

func (s snap) snapshot() obs.CellReport { return s.cell }

// obsCell snapshots one sweep cell's observability state (journal
// totals plus the unified counter block) for embedding in a report.
func obsCell(f *core.Fabric, point, trial int, seed uint64) snap {
	return snap{obs.CellReport{
		Point:    point,
		Trial:    trial,
		Seed:     seed,
		Events:   f.Obs.EventsCaptured(),
		Dropped:  f.Obs.EventsDropped(),
		Counters: f.ObsCounters(),
	}}
}

// newReport starts a report for one experiment run.
func newReport(experiment string, seed uint64, params map[string]string) *obs.Report {
	return &obs.Report{Schema: obs.SchemaVersion, Experiment: experiment, Seed: seed, Params: params}
}

// sweep is the one fan-out every driver uses. It runs a points×trials
// grid of independent cells over the runner pool — a cell is a pure
// function of its coordinate, so it can run on any worker — then hands
// each point's trials to reduce in point order, and leaves the sweep
// report in the result: identity, parameters and every cell's snapshot
// in canonical (point, trial) order. Cells without capture
// (baseline-fabric halves) are elided. The first failing cell, in that
// same order, is the sweep's error. Merging in canonical order is what
// makes a parallel sweep byte-identical to a serial one.
func sweep[T interface{ snapshot() obs.CellReport }](
	into *Reported, experiment string, seed uint64, params map[string]string,
	points, trials int,
	cell func(point, trial int) (T, error),
	reduce func(point int, trials []T),
) error {
	grid, err := runner.Grid(points, trials, cell)
	if err != nil {
		return err
	}
	rep := newReport(experiment, seed, params)
	for p, row := range grid {
		for _, c := range row {
			if s := c.snapshot(); s.Counters != nil || s.Events != 0 {
				rep.Cells = append(rep.Cells, s)
			}
		}
		reduce(p, row)
	}
	into.Report = rep
	return nil
}

// sweepCells is sweep over a replayable entry's declared grid, through
// the cell function Replay runs; each cell's fabric is dropped once the
// cell returns. reduce gets each point's grid coordinate.
func sweepCells[C cellGrid[T], T interface{ snapshot() obs.CellReport }](
	into *Reported, experiment string, seed uint64, params map[string]string,
	cfg C, reduce func(point int, trials []T),
) error {
	first, points, trials := cfg.grid()
	return sweep(into, experiment, seed, params, points, trials, func(p, trial int) (T, error) {
		tr, _, err := cfg.cell(first+p, trial)
		return tr, err
	}, func(p int, trials []T) { reduce(first+p, trials) })
}

// probeEvery is the interval of every probe stream a driver classifies
// (paper-style CBR, and Fig. 11's multicast sender).
const probeEvery = time.Millisecond

// probeFlows starts one CBR probe per host along a random permutation
// and runs the ARP warm-up to steady state.
func probeFlows(f *core.Fabric) []*workload.CBR {
	hosts := f.HostList()
	flows := workload.PairCBRs(hosts, workload.Permutation(f.Rand(), len(hosts)), probeEvery, 64)
	f.RunFor(500 * time.Millisecond)
	return flows
}

// probeStats classifies probe streams after a disturbance: a stream that
// never resumed is dead; one whose interruption exceeded twice the
// probe interval was affected and contributes a convergence sample;
// the rest never noticed. Every stream also leaves its row for the
// replay report.
type probeStats struct {
	ms       []float64 // convergence of the affected streams, ms
	affected int
	dead     int
	flows    []obs.FlowConvergence
}

func (p *probeStats) add(name string, rx *metrics.Recorder, at time.Duration) {
	conv, recovered := rx.ConvergenceAfter(at, probeEvery)
	affected := recovered && conv > 2*probeEvery
	switch {
	case !recovered:
		p.dead++
	case affected:
		p.affected++
		p.ms = append(p.ms, metrics.Ms(conv))
	}
	p.flows = append(p.flows, obs.FlowConvergence{
		Flow:        name,
		ConvergedMs: metrics.Ms(conv),
		Recovered:   recovered,
		Affected:    affected,
	})
}

// addFlows classifies each probe flow's receive stream after the
// disturbance at `at`.
func (p *probeStats) addFlows(flows []*workload.CBR, at time.Duration) {
	for _, fl := range flows {
		p.add(fl.Src.Name()+"->"+fl.Dst.Name(), &fl.RX, at)
	}
}

// views selects what a replay report carries beyond counters and the
// cell snapshot. The zero value carries nothing more.
type views struct {
	// faultAt > 0 adds the timeline from the fault on — the interesting
	// span; boot-time discovery noise stays out.
	faultAt time.Duration
	arp     bool             // ARP-latency histogram
	conv    *obs.Convergence // per-flow convergence, with the registry churn around it
}

// replayReport assembles one cell's full report — strictly after the
// run, from the journals the fabric filled along the way. Because a
// cell is a pure function of (config, coordinate), a replayed cell is
// bit-identical to the one inside the original sweep: the report
// describes exactly what the sweep measured.
func replayReport(experiment string, f *core.Fabric, cell obs.CellReport, params map[string]string, v views) *obs.Report {
	rep := newReport(experiment, cell.Seed, params)
	rep.Counters = cell.Counters
	rep.Cells = []obs.CellReport{cell}
	if v == (views{}) {
		return rep
	}
	merged := f.Obs.Merge()
	if v.conv != nil {
		rep.Convergence = v.conv
		rep.RegistryChurn = obs.RegistryChurn(merged, 100*time.Millisecond)
	}
	if v.arp {
		rep.ARPLatency = obs.ARPLatencies(merged)
	}
	if v.faultAt > 0 {
		rep.Timeline = obs.Timeline(merged, v.faultAt, f.Now())
	}
	return rep
}

// linkName renders a blueprint link as "a<->b" for report params.
func linkName(f *core.Fabric, i int) string {
	ls := f.Spec.Links[i]
	return f.Spec.Nodes[ls.A.Node].Name + "<->" + f.Spec.Nodes[ls.B.Node].Name
}

func itoa(n int) string { return strconv.Itoa(n) }
