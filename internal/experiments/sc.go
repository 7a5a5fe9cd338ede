package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"portland/internal/core"
	"portland/internal/faults"
	"portland/internal/graydetect"
	"portland/internal/metrics"
	"portland/internal/obs"
)

// SCConfig parameterizes the scenario-engine experiment: one sweep
// cell per (fault family, trial), each running a generated scenario
// against permutation CBR traffic and measuring time-to-detect and
// time-to-reroute.
type SCConfig struct {
	Rig    Rig
	Trials int
}

// DefaultSC is the default scenario sweep: three trials per family.
func DefaultSC() SCConfig {
	return SCConfig{
		Rig:    DefaultRig(),
		Trials: 3,
	}
}

// scDetect is the gray-failure detector profile armed in every family
// except gray-ldm, whose whole point is to show what the LDM-only
// liveness protocol cannot see: the conservative profile with probes
// on. Probes make Clean-based release meaningful, and the sweep needs
// it: a whole-switch crash also starves its neighbors' probes, so
// their detectors quarantine the ports — without release, the
// quarantine would outlive the reboot and the pod would stay excluded
// forever.
var scDetect = func() graydetect.Config {
	det := graydetect.DefaultConfig
	det.Probes = true
	det.Clean = 5
	return det
}()

// scGrayRate is the per-direction drop probability of the gray
// scenarios.
const scGrayRate = 0.5

// scSettle is how long each cell keeps running after the scenario's
// last scheduled instant, so reboots re-discover and flows re-settle.
const scSettle = 700 * time.Millisecond

// scFamily binds one scenario family to its generator and to the
// journal signature that defines "detection" for it.
type scFamily struct {
	id       string
	detector bool // arm the gray detector in this family's cells
	// det, when set, rewrites the sweep's detector profile for this
	// family's cells: the family id becomes a sweep coordinate that
	// exposes the window/trip/clean knobs, with no detector logic of
	// its own.
	det func(graydetect.Config) graydetect.Config
	gen func(r *rand.Rand, f *core.Fabric) (faults.Scenario, bool)
	// trigger/response: detection latency = first response event at or
	// after the first trigger event.
	trigger  obs.Kind
	response obs.Kind
}

var scFamilies = []scFamily{
	{
		// The motivating negative result: gray loss with the detector
		// off. The LDM keepalives keep passing, so detection = never
		// and flows on the gray path bleed until the gray condition
		// itself clears.
		id: "gray-ldm", detector: false,
		gen:     scGray,
		trigger: obs.GrayOnset, response: obs.GrayDetected,
	},
	{
		id: "gray-det", detector: true,
		gen:     scGray,
		trigger: obs.GrayOnset, response: obs.GrayDetected,
	},
	{
		id: "flap", detector: true,
		gen: func(r *rand.Rand, f *core.Fabric) (faults.Scenario, bool) {
			return faults.Flap(r, f, faults.FlapConfig{
				Links: 1, Cycles: 3,
				Down: 80 * time.Millisecond, Up: 80 * time.Millisecond,
				Start: 10 * time.Millisecond,
			})
		},
		trigger: obs.FlapDown, response: obs.NeighborDown,
	},
	{
		id: "pod-power", detector: true,
		gen: func(r *rand.Rand, f *core.Fabric) (faults.Scenario, bool) {
			return faults.PodPower(r, f, faults.PodPowerConfig{
				Start: 10 * time.Millisecond, Outage: 300 * time.Millisecond,
			})
		},
		trigger: obs.FaultApplied, response: obs.NeighborDown,
	},
	{
		id: "rolling", detector: true,
		gen: func(r *rand.Rand, f *core.Fabric) (faults.Scenario, bool) {
			return faults.RollingUpgrade(r, f, faults.RollingConfig{
				Count: 4, Stagger: 120 * time.Millisecond,
				Down: 80 * time.Millisecond, Start: 10 * time.Millisecond,
			})
		},
		trigger: obs.FaultApplied, response: obs.NeighborDown,
	},
	{
		// Migration storm: "detection" is the fabric manager noticing
		// the first moved VM (invalidating its stale PMAC), not a
		// liveness event — nothing fails.
		id: "arp-storm", detector: true,
		gen: func(r *rand.Rand, f *core.Fabric) (faults.Scenario, bool) {
			return faults.ARPStorm(r, f, faults.StormConfig{
				VMs: 4, Gap: 30 * time.Millisecond,
				Pause: 5 * time.Millisecond, Start: 10 * time.Millisecond,
			})
		},
		trigger: obs.ScenarioStart, response: obs.MgrMigrate,
	},
	{
		// Detector-profile coordinates: the same gray scenario as
		// gray-det with the window/trip/clean knobs turned, so one
		// `-exp sc` coordinate (family, trial) exposes the detection-
		// latency vs. patience trade-off. gray-fast trades short
		// sampling windows and a hair trigger for speed; gray-patient
		// demands five consecutive bad 25 ms windows before it
		// quarantines — slower to trip and slower to release.
		id: "gray-fast", detector: true,
		det: func(c graydetect.Config) graydetect.Config {
			c.Interval = 2 * time.Millisecond
			c.MinDrops = 2
			c.Trip = 2
			c.Clean = 3
			return c
		},
		gen:     scGray,
		trigger: obs.GrayOnset, response: obs.GrayDetected,
	},
	{
		id: "gray-patient", detector: true,
		det: func(c graydetect.Config) graydetect.Config {
			c.Interval = 25 * time.Millisecond
			c.Trip = 5
			c.Clean = 8
			return c
		},
		gen:     scGray,
		trigger: obs.GrayOnset, response: obs.GrayDetected,
	},
}

func scGray(r *rand.Rand, f *core.Fabric) (faults.Scenario, bool) {
	return faults.Gray(r, f, faults.GrayConfig{
		Links: 2, Rate: scGrayRate,
		Start: 10 * time.Millisecond, Duration: 1 * time.Second,
	})
}

// SCRow is one family's merged result.
type SCRow struct {
	Family   string
	Trials   int
	Detected int             // trials in which detection fired at all
	Detect   metrics.Summary // detection latency over detected trials, ms
	Reroute  metrics.Summary // per-flow convergence after scenario onset, ms
	Affected int             // flows that saw any interruption
	Dead     int             // flows never recovered by end of cell
}

// SCResult is the full sweep.
type SCResult struct {
	Cfg  SCConfig
	Rows []SCRow
	Reported
}

// scTrial is one cell's raw measures.
type scTrial struct {
	snap
	scenario string
	onset    time.Duration
	detMs    float64
	detected bool
	reroute  probeStats
}

// detectLatency scans the merged timeline for the family's
// trigger→response pair and returns the latency of the first response
// at or after the first trigger.
func detectLatency(fam scFamily, merged []obs.SourcedEvent) (time.Duration, bool) {
	var t0 time.Duration
	armed := false
	for _, e := range merged {
		if !armed {
			if e.Kind == fam.trigger {
				t0 = e.At
				armed = true
			}
			continue
		}
		if e.Kind == fam.response && e.At >= t0 {
			return e.At - t0, true
		}
	}
	return 0, false
}

// profile returns the detector profile a detector family's cells arm:
// scDetect, rewritten by the family if it has an override.
func (fam scFamily) profile() graydetect.Config {
	if fam.det != nil {
		return fam.det(scDetect)
	}
	return scDetect
}

// grid and cell declare the sweep (cellGrid): one point per scenario family, Trials each.
func (cfg SCConfig) grid() (int, int, int) { return 0, len(scFamilies), cfg.Trials }

func (cfg SCConfig) cell(fam, trial int) (scTrial, *core.Fabric, error) {
	family := scFamilies[fam]
	var out scTrial
	rig := cfg.Rig
	rig.Seed = cfg.Rig.Seed + uint64((fam+1)*1000+trial)
	if family.detector {
		rig.Detect = family.profile()
	}
	f, err := rig.build()
	if err != nil {
		return out, nil, err
	}
	flows := probeFlows(f)

	sc, ok := family.gen(f.Rand(), f)
	if !ok {
		return out, nil, fmt.Errorf("scenario generator %s failed at k=%d", family.id, rig.K)
	}
	startRel, endRel := sc.Schedule.Span()
	out.scenario = sc.Name
	out.onset = f.Now() + startRel
	sc.Apply(f)
	f.RunFor(endRel + scSettle)

	if d, found := detectLatency(family, f.Obs.Merge()); found {
		out.detMs, out.detected = metrics.Ms(d), true
	}
	out.reroute.addFlows(flows, out.onset)
	for _, fl := range flows {
		fl.Stop()
	}
	out.snap = obsCell(f, fam, trial, rig.Seed)
	return out, f, nil
}

// report is the cell's replay report: the scenario's fault timeline,
// per-flow reroute convergence, ARP latency, churn and counters.
func (tr scTrial) report(cfg SCConfig, f *core.Fabric) (*obs.Report, error) {
	fam, trial := tr.cell.Point, tr.cell.Trial
	params := map[string]string{
		"k":           itoa(cfg.Rig.K),
		"family":      scFamilies[fam].id,
		"scenario":    tr.scenario,
		"trial":       itoa(trial),
		"probe_every": probeEvery.String(),
		"detector":    "off",
		"detect_ms":   "never",
	}
	if scFamilies[fam].detector {
		// The effective profile for this cell, after any per-family
		// override — the knobs the coordinate exists to expose.
		det := scFamilies[fam].profile()
		params["detector"] = "on"
		params["det_window"] = det.Interval.String()
		params["det_trip"] = itoa(det.Trip)
		params["det_clean"] = itoa(det.Clean)
	}
	if tr.detected {
		params["detect_ms"] = fmt.Sprintf("%.3f", tr.detMs)
	}
	return replayReport("sc", f, tr.cell, params, views{faultAt: tr.onset, arp: true, conv: &obs.Convergence{
		FaultAtNs: int64(tr.onset),
		Failure:   metrics.Summarize(tr.reroute.ms),
		Flows:     tr.reroute.flows,
	}}), nil
}

// RunSC runs every scenario family under generated fault stories and
// measures how long the fabric took to notice (time-to-detect) and to
// restore steady delivery (time-to-reroute).
func RunSC(cfg SCConfig) (*SCResult, error) {
	res := &SCResult{Cfg: cfg}
	err := sweepCells(&res.Reported, "sc", cfg.Rig.Seed, map[string]string{
		"k":           itoa(cfg.Rig.K),
		"trials":      itoa(cfg.Trials),
		"gray_rate":   fmt.Sprintf("%.2f", scGrayRate),
		"probe_every": probeEvery.String(),
		"det_window":  scDetect.Interval.String(),
		"det_trip":    itoa(scDetect.Trip),
		"det_clean":   itoa(scDetect.Clean),
	}, cfg, func(p int, trials []scTrial) {
		row := SCRow{Family: scFamilies[p].id, Trials: len(trials)}
		var detMs, rerMs []float64
		for _, tr := range trials {
			if tr.detected {
				row.Detected++
				detMs = append(detMs, tr.detMs)
			}
			rerMs = append(rerMs, tr.reroute.ms...)
			row.Affected += tr.reroute.affected
			row.Dead += tr.reroute.dead
		}
		row.Detect = metrics.Summarize(detMs)
		row.Reroute = metrics.Summarize(rerMs)
		res.Rows = append(res.Rows, row)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print tabulates per-family detection and reroute latencies. A family
// whose detection never fired prints "never" — for gray-ldm that IS
// the result: the liveness protocol cannot see gray failures.
func (r *SCResult) Print(w io.Writer) {
	fprintf(w, "Scenario engine — time-to-detect / time-to-reroute per fault family\n")
	fprintf(w, "(k=%d fat tree, %d trials/family, probe interval %v; detector: %v windows, trip %d, probes %v)\n",
		r.Cfg.Rig.K, r.Cfg.Trials, probeEvery,
		scDetect.Interval, scDetect.Trip, scDetect.Probes)
	hr(w)
	fprintf(w, "%-10s %9s  %26s  %26s  %8s %5s\n", "family", "detected", "detect latency (ms)", "reroute (ms)", "affected", "dead")
	fprintf(w, "%-10s %9s  %8s %8s %8s  %8s %8s %8s\n", "", "", "median", "mean", "max", "median", "mean", "max")
	for _, row := range r.Rows {
		det := fmt.Sprintf("%d/%d", row.Detected, row.Trials)
		if row.Detected == 0 {
			fprintf(w, "%-10s %9s  %8s %8s %8s  %8.1f %8.1f %8.1f  %8d %5d\n",
				row.Family, "never", "-", "-", "-",
				row.Reroute.Median, row.Reroute.Mean, row.Reroute.Max,
				row.Affected, row.Dead)
			continue
		}
		fprintf(w, "%-10s %9s  %8.1f %8.1f %8.1f  %8.1f %8.1f %8.1f  %8d %5d\n",
			row.Family, det,
			row.Detect.Median, row.Detect.Mean, row.Detect.Max,
			row.Reroute.Median, row.Reroute.Mean, row.Reroute.Max,
			row.Affected, row.Dead)
	}
	fmt.Fprintln(w)
}
