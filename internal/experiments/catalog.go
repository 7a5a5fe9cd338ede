package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"portland/internal/core"
	"portland/internal/obs"
)

// Settings are the run-wide knobs a caller (portland-bench's flags)
// hands to every experiment.
type Settings struct {
	// Quick selects the reduced, CI-sized sweep.
	Quick bool
}

// Experiment is one catalog entry: what portland-bench lists, selects
// and runs, and what portland-report replays a cell of.
type Experiment struct {
	ID, Desc string
	// WallClock marks a driver whose printed output includes a host-time
	// measurement, so two runs never print the same bytes.
	WallClock bool
	run       func(Settings) (Result, error)
	// replay is nil for an entry whose cells keep no journaled fabric.
	replay func(s Settings, point, trial int) (*obs.Report, error)
}

// ErrNoCell is wrapped by every Replay error that names no replayable
// cell: an entry without cell replay, or a coordinate outside its sweep.
var ErrNoCell = errors.New("no such replayable cell")

// Run executes the experiment at its full or -quick configuration and
// returns the printable result plus its report (nil for f12–f14).
func (e Experiment) Run(s Settings) (Result, *obs.Report, error) {
	res, err := e.run(s)
	if err != nil {
		return nil, nil, err
	}
	return res, res.report(), nil
}

// Replay re-runs the cell of the sweep Run(s) runs that the sweep
// report records as (point, trial) and returns the cell's full report.
// A cell is a pure function of (config, coordinate), so the replay's
// Cells[0] equals the sweep's cell.
func (e Experiment) Replay(s Settings, point, trial int) (*obs.Report, error) {
	if e.replay == nil {
		var ids []string
		for _, c := range Catalog {
			if c.replay != nil {
				ids = append(ids, c.ID)
			}
		}
		return nil, fmt.Errorf("%w: %s has no cell replay (entries with one: %s)", ErrNoCell, e.ID, strings.Join(ids, ", "))
	}
	return e.replay(s, point, trial)
}

// cells declares an entry whose sweep cells each keep a journaled
// fabric, so any one replays. config is the one place the entry's
// configuration is built from Settings; sweep and replay both use it.
// grid bounds the sweep: points first..first+points-1, trials 0..trials-1.
func cells[C any, R Result, T interface {
	report(C, *core.Fabric) (*obs.Report, error)
}](id, desc string, config func(Settings) C, run func(C) (R, error),
	grid func(C) (first, points, trials int), cell func(C, int, int) (T, *core.Fabric, error)) Experiment {
	return Experiment{ID: id, Desc: desc,
		run: func(s Settings) (Result, error) { return run(config(s)) },
		replay: func(s Settings, point, trial int) (*obs.Report, error) {
			cfg := config(s)
			if first, points, trials := grid(cfg); point < first || point >= first+points || trial < 0 || trial >= trials {
				return nil, fmt.Errorf("%w: (point %d, trial %d) is outside the sweep's points %d..%d and trials 0..%d",
					ErrNoCell, point, trial, first, first+points-1, trials-1)
			}
			tr, f, err := cell(cfg, point, trial)
			if err != nil {
				return nil, err
			}
			return tr.report(cfg, f)
		},
	}
}

// pick returns full, or quick under -quick.
func pick[T any](s Settings, full, quick T) T {
	if s.Quick {
		return quick
	}
	return full
}

// Catalog declares every experiment once, in the order portland-bench
// lists and runs them.
var Catalog = []Experiment{
	{ID: "t1", Desc: "Table 1: technique comparison + forwarding-state proxy", run: func(s Settings) (Result, error) {
		cfg := DefaultTable1()
		cfg.Ks = pick(s, cfg.Ks, []int{4, 8})
		return RunTable1(cfg)
	}},
	cells("f9", "Figure 9: UDP convergence vs number of link failures", func(s Settings) Fig9Config {
		cfg := DefaultFig9()
		cfg.MaxFaults, cfg.Trials = pick(s, cfg.MaxFaults, 6), pick(s, cfg.Trials, 3)
		return cfg
	}, RunFig9, Fig9Config.grid, fig9Cell),
	cells("f9s", "Figure 9 variant: whole-switch (agg/core) crashes", func(s Settings) Fig9Config {
		cfg := DefaultFig9()
		cfg.Mode = FailSwitches
		cfg.MaxFaults, cfg.Trials = pick(s, 6, 3), pick(s, 5, 2)
		return cfg
	}, RunFig9, Fig9Config.grid, fig9Cell),
	{ID: "f10", Desc: "Figure 10: TCP convergence across a failure", run: func(Settings) (Result, error) {
		return RunFig10(DefaultFig10())
	}},
	{ID: "f11", Desc: "Figure 11: multicast convergence under failure", run: func(s Settings) (Result, error) {
		cfg := DefaultFig11()
		cfg.Trials = pick(s, cfg.Trials, 4)
		return RunFig11(cfg)
	}},
	{ID: "f12", Desc: "Figure 12: TCP across VM live migration", run: func(Settings) (Result, error) {
		return RunFig12(DefaultFig12())
	}},
	{ID: "f13", Desc: "Figure 13: fabric-manager control traffic", run: func(Settings) (Result, error) {
		return RunFig13(DefaultFig13())
	}},
	{ID: "f14", Desc: "Figure 14: fabric-manager CPU requirement", WallClock: true, run: func(s Settings) (Result, error) {
		cfg := DefaultFig14()
		if s.Quick {
			cfg.Registry, cfg.MeasureOps = 8192, 100000
		}
		return RunFig14(cfg)
	}},
	{ID: "fmf", Desc: "Manager failover: ARP blackout + convergence vs outage/control loss", run: func(s Settings) (Result, error) {
		cfg := DefaultFMF()
		cfg.Outages = pick(s, cfg.Outages, []time.Duration{100 * time.Millisecond, 400 * time.Millisecond})
		return RunFMF(cfg)
	}},
	cells("sc", "Scenario engine: time-to-detect/reroute per fault family", func(s Settings) SCConfig {
		cfg := DefaultSC()
		cfg.Trials = pick(s, cfg.Trials, 1)
		return cfg
	}, RunSC, SCConfig.grid, scCell),
	cells("mgr", "Manager scaling: prefix-sharded registry + batched ARP punts", func(s Settings) MgrConfig {
		cfg := DefaultMgr()
		cfg.Trials, cfg.Flows = pick(s, cfg.Trials, 1), pick(s, cfg.Flows, 300)
		return cfg
	}, RunMgr, MgrConfig.grid, mgrCell),
	cells("ft", "Table pressure: hardware envelopes vs fabric scale", func(s Settings) FTConfig {
		cfg := DefaultFT()
		cfg.Ks, cfg.Flows = pick(s, cfg.Ks, []int{4, 6}), pick(s, cfg.Flows, 200)
		return cfg
	}, RunFT, FTConfig.grid, ftCell),
	{ID: "a1", Desc: "Ablation A1: ECMP vs spanning-tree cross-section goodput", run: func(Settings) (Result, error) {
		return RunA1(DefaultA1())
	}},
	{ID: "a2", Desc: "Ablation A2: LDP discovery time vs k", run: func(s Settings) (Result, error) {
		// The full sweep ends at the paper's deployment target: a k=48
		// fat tree with 2880 switches and 27,648 hosts.
		return RunA2(pick(s, []int{4, 8, 16, 32, 48}, []int{4, 8, 16}))
	}},
	{ID: "a3", Desc: "Ablation A3: proxy ARP vs broadcast ARP cost", run: func(Settings) (Result, error) {
		return RunA3(4, 8)
	}},
	{ID: "a4", Desc: "Ablation A4: LDM interval sweep", run: func(s Settings) (Result, error) {
		ivs := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
		return RunA4(ivs, pick(s, 5, 2))
	}},
	{ID: "a5", Desc: "Ablation A5: ECMP flow-hash balance across cores", run: func(s Settings) (Result, error) {
		return RunA5(4, pick(s, 256, 64))
	}},
	{ID: "a6", Desc: "Ablation A6: round-trip time by locality class", run: func(s Settings) (Result, error) {
		return RunA6(4, pick(s, 50, 20))
	}},
}

// IDs is the comma-separated list of catalog IDs, in catalog order.
func IDs() string {
	ids := make([]string, len(Catalog))
	for i, e := range Catalog {
		ids[i] = e.ID
	}
	return strings.Join(ids, ",")
}

// Select resolves an -exp value against the catalog: "all", or a
// comma-separated ID list (surrounding whitespace and duplicates are
// tolerated). The selection comes back in catalog order. An ID the
// catalog does not have is an error naming every offender.
func Select(spec string) ([]Experiment, error) {
	if strings.TrimSpace(spec) == "all" {
		return Catalog, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var sel []Experiment
	for _, e := range Catalog {
		if want[e.ID] {
			sel = append(sel, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s (valid: all or any of %s)", strings.Join(unknown, ", "), IDs())
	}
	return sel, nil
}
