package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"runtime"
	"time"

	"portland/internal/experiments"
	"portland/internal/obs"
	"portland/internal/runner"
)

// driverOut is what one experiment driver hands back to the harness.
type driverOut struct {
	result any         // the driver's result struct, kept reachable for the live-heap reading
	report *obs.Report // nil for the drivers that emit none
	// checked and broken count this driver's invariants beyond "returned
	// no error": dead flows, a reset connection, receivers that never
	// recovered.
	checked, broken int64
	broke           string
	sim             map[string]float64 // simulated results, virtual time
}

// driver is one of portland-bench's experiments at its -quick
// configuration. The configurations are copied here, not imported from
// cmd/portland-bench, so that an edit there cannot change the workload.
// Rigs take their seed from the benchmark seed (see rigSeeds); the
// drivers that hard-code their seeds (t1, f13, f14, a1..a6) replay the
// same input under every seed.
type driver struct {
	id  string
	run func(seed uint64, w io.Writer) (driverOut, error)
}

// dead is the common invariant: a row of a convergence table reports
// flows that never recovered.
func (o *driverOut) dead(n int, what string) {
	o.checked++
	if n > 0 {
		o.broken++
		o.broke = fmt.Sprintf("%d %s", n, what)
	}
}

// rigSeeds are the rig seeds the sweep draws from: 1..35 without 5, 16
// and 32, on which sc's pod-power scenario strands one probe flow for
// good (as it does on 36 and 45; README, "Findings"). Every invariant of
// every driver holds on each of these at this commit, so that a failed
// operation in this workload always means a change broke something.
var rigSeeds = [32]uint64{
	1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 18,
	19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 33, 34, 35,
}

func rig(seed uint64) experiments.Rig {
	r := experiments.DefaultRig()
	r.Seed = rigSeeds[seed%uint64(len(rigSeeds))]
	return r
}

func fig9(cfg experiments.Fig9Config, w io.Writer, simKey string) (driverOut, error) {
	res, err := experiments.RunFig9(cfg)
	if err != nil {
		return driverOut{}, err
	}
	res.Print(w)
	out := driverOut{result: res, report: res.Report}
	var med float64
	n := 0
	for _, row := range res.Rows {
		out.dead(row.Dead, fmt.Sprintf("dead flows at %d faults", row.Faults))
		if row.Failure.N > 0 {
			med += row.Failure.Median
			n++
		}
	}
	if simKey != "" && n > 0 {
		out.sim = map[string]float64{simKey: med / float64(n)}
	}
	return out, nil
}

var drivers = []driver{
	{"t1", func(_ uint64, w io.Writer) (driverOut, error) {
		cfg := experiments.DefaultTable1()
		cfg.Ks = []int{4, 8}
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report}, nil
	}},
	{"f9", func(seed uint64, w io.Writer) (driverOut, error) {
		cfg := experiments.DefaultFig9()
		cfg.Rig = rig(seed)
		cfg.MaxFaults = 6
		cfg.Trials = 3
		return fig9(cfg, w, "experiments.f9_convergence_ms")
	}},
	{"f9s", runF9S},
	{"f10", func(seed uint64, w io.Writer) (driverOut, error) {
		cfg := experiments.DefaultFig10()
		cfg.Rig = rig(seed)
		res, err := experiments.RunFig10(cfg)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report, sim: map[string]float64{
			"experiments.f10_tcp_gap_ms": float64(res.Gap) / float64(time.Millisecond)}}, nil
	}},
	{"f11", func(seed uint64, w io.Writer) (driverOut, error) {
		cfg := experiments.DefaultFig11()
		cfg.Rig = rig(seed)
		cfg.Trials = 4
		res, err := experiments.RunFig11(cfg)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		out := driverOut{result: res, report: res.Report, sim: map[string]float64{
			"experiments.f11_convergence_ms": res.Convergence.Median}}
		out.dead(res.Dead, "multicast receivers never recovered")
		return out, nil
	}},
	{"f12", func(seed uint64, w io.Writer) (driverOut, error) {
		cfg := experiments.DefaultFig12()
		cfg.Rig = rig(seed)
		res, err := experiments.RunFig12(cfg)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		out := driverOut{result: res, checked: 1, sim: map[string]float64{
			"experiments.f12_outage_ms": float64(res.Outage) / float64(time.Millisecond)}}
		if res.Reset {
			out.broken, out.broke = 1, "TCP connection reset across migration"
		}
		return out, nil
	}},
	{"f13", func(_ uint64, w io.Writer) (driverOut, error) {
		res, err := experiments.RunFig13(experiments.DefaultFig13())
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res}, nil
	}},
	{"f14", func(_ uint64, _ io.Writer) (driverOut, error) {
		cfg := experiments.DefaultFig14()
		cfg.Registry = 8192
		cfg.MeasureOps = 100000
		res, err := experiments.RunFig14(cfg)
		if err != nil {
			return driverOut{}, err
		}
		// Fig. 14's table is derived from a host-time measurement, so it
		// stays out of the outcome digest.
		res.Print(io.Discard)
		return driverOut{result: res}, nil
	}},
	{"fmf", func(seed uint64, w io.Writer) (driverOut, error) {
		cfg := experiments.DefaultFMF()
		cfg.Rig = rig(seed)
		cfg.Outages = []time.Duration{100 * time.Millisecond, 400 * time.Millisecond}
		res, err := experiments.RunFMF(cfg)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		out := driverOut{result: res, report: res.Report}
		for _, row := range res.Rows {
			out.dead(row.Dead, fmt.Sprintf("dead flows after a %v manager outage", row.Outage))
		}
		return out, nil
	}},
	{"sc", func(seed uint64, w io.Writer) (driverOut, error) {
		cfg := experiments.DefaultSC()
		cfg.Rig = rig(seed)
		cfg.Trials = 1
		res, err := experiments.RunSC(cfg)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		out := driverOut{result: res, report: res.Report}
		for _, row := range res.Rows {
			out.dead(row.Dead, "dead flows in scenario "+row.Family)
		}
		return out, nil
	}},
	{"mgr", func(seed uint64, w io.Writer) (driverOut, error) {
		cfg := experiments.DefaultMgr()
		cfg.Rig = rig(seed)
		cfg.Trials = 1
		cfg.Flows = 300
		res, err := experiments.RunMgr(cfg)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report}, nil
	}},
	{"ft", func(seed uint64, w io.Writer) (driverOut, error) {
		cfg := experiments.DefaultFT()
		cfg.Rig = rig(seed)
		cfg.Ks = []int{4, 6}
		cfg.Flows = 200
		res, err := experiments.RunFT(cfg)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report}, nil
	}},
	{"a1", func(_ uint64, w io.Writer) (driverOut, error) {
		res, err := experiments.RunA1(experiments.DefaultA1())
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report}, nil
	}},
	{"a2", func(_ uint64, w io.Writer) (driverOut, error) {
		res, err := experiments.RunA2([]int{4, 8, 16})
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report}, nil
	}},
	{"a3", func(_ uint64, w io.Writer) (driverOut, error) {
		res, err := experiments.RunA3(4, 8)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report}, nil
	}},
	{"a4", func(_ uint64, w io.Writer) (driverOut, error) {
		ivs := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
		res, err := experiments.RunA4(ivs, 2)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report}, nil
	}},
	{"a5", func(_ uint64, w io.Writer) (driverOut, error) {
		res, err := experiments.RunA5(4, 64)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report}, nil
	}},
	{"a6", func(_ uint64, w io.Writer) (driverOut, error) {
		res, err := experiments.RunA6(4, 20)
		if err != nil {
			return driverOut{}, err
		}
		res.Print(w)
		return driverOut{result: res, report: res.Report}, nil
	}},
}

// runF9S is the whole-switch-crash variant of Figure 9. It is also the
// sweep's set-up: one untimed pass warms the process before every
// repetition, so setup_s is never a reading of a few milliseconds.
func runF9S(seed uint64, w io.Writer) (driverOut, error) {
	cfg := experiments.DefaultFig9()
	cfg.Rig = rig(seed)
	cfg.Mode = experiments.FailSwitches
	cfg.MaxFaults = 3
	cfg.Trials = 2
	return fig9(cfg, w, "")
}

// sweepState is one pass over the drivers. Results stay reachable
// through it until the live heap has been read.
type sweepState struct {
	drivers []driver
	workers int
	outs    []driverOut
	errs    []error
	printed hash.Hash // every driver's printed rows, in order
}

// counts sums the counter snapshots of every report returned so far.
// The drivers build private fabrics, so this is the only outside view
// of their layers; it is zero before the pass and complete after it.
func (s *sweepState) counts() map[string]float64 {
	total := obs.Counters{}
	for _, o := range s.outs {
		if o.report == nil {
			continue
		}
		total.Add(o.report.Counters)
		for _, c := range o.report.Cells {
			total.Add(c.Counters)
		}
	}
	return layerCounts(total)
}

// timed runs the 18 drivers in portland-bench's order.
func (s *sweepState) timed(r *rep) {
	runner.SetWorkers(s.workers)
	for _, d := range s.drivers {
		r.tr.begin("experiments." + d.id + "_s")
		out, err := d.run(r.seed, s.printed)
		r.tr.end()
		s.outs = append(s.outs, out)
		s.errs = append(s.errs, err)
	}
}

func (s *sweepState) check(r *rep) {
	for i, d := range s.drivers {
		o := s.outs[i]
		r.attempted += 1 + o.checked
		if s.errs[i] != nil {
			r.fail(1, "%s: %v", d.id, s.errs[i])
		}
		if o.broken > 0 {
			r.fail(o.broken, "%s: %s", d.id, o.broke)
		}
		for k, v := range o.sim {
			r.layer[k] = v
		}
	}
	r.tr.begin("obs.report_s")
	for _, o := range s.outs {
		if o.report != nil {
			if err := o.report.Encode(s.printed); err != nil {
				r.fail(1, "encoding a report: %v", err)
			}
		}
	}
	r.tr.end()
	r.digest = hex.EncodeToString(s.printed.Sum(nil))[:16]
}

func sweepWorkload(ds []driver) *workload {
	return &workload{
		name: "paper-sweep", minReps: 3,
		why: "What a user runs (portland-bench -quick -exp all): runner, 18 drivers, metrics, reports, tcplite on many tiny fabrics; steady-state hits, GC-bound.",
		setup: func(r *rep) state {
			runner.SetWorkers(1)
			if _, err := runF9S(r.seed, io.Discard); err != nil {
				panic(fmt.Sprintf("benchmark: f9s warm-up pass: %v", err))
			}
			return &sweepState{drivers: ds, workers: 1, printed: sha256.New()}
		},
	}
}

// sweepParallelWall times passes with every core as a runner worker.
func sweepParallelWall(seed uint64) float64 {
	defer runner.SetWorkers(1)
	walls := make([]float64, referenceReps)
	for i := range walls {
		s := &sweepState{drivers: drivers, workers: runtime.GOMAXPROCS(0), printed: sha256.New()}
		runtime.GC()
		t0 := time.Now()
		s.timed(&rep{seed: seed, layer: map[string]float64{}})
		walls[i] = time.Since(t0).Seconds()
	}
	return fastHalfMean(walls)
}
