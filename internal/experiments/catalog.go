package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"portland/internal/obs"
)

// Settings are the run-wide knobs a caller (portland-bench's flags)
// hands to every experiment. None changes a result: Quick only picks
// the smaller declared configuration and sharding moves only wall
// clock.
type Settings struct {
	// Quick selects the reduced, CI-sized sweep.
	Quick bool
	// Shards is the engine-shard count of every fabric built (0/1 =
	// serial); printed output is byte-identical at every value.
	Shards int
}

// rig is the paper-testbed rig under these settings.
func (s Settings) rig() Rig {
	r := DefaultRig()
	r.Shards = s.Shards
	return r
}

// Experiment is one catalog entry: what portland-bench lists, selects
// and runs.
type Experiment struct {
	ID, Desc string
	// WallClock marks a driver whose printed output includes a host-time
	// measurement, so two runs never print the same bytes.
	WallClock bool
	run       func(Settings) (Result, error)
}

// Run executes the experiment at its full or -quick configuration and
// returns the printable result plus its report (nil for f12–f14).
func (e Experiment) Run(s Settings) (Result, *obs.Report, error) {
	res, err := e.run(s)
	if err != nil {
		return nil, nil, err
	}
	return res, res.report(), nil
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
		return runTable1(s.rig(), cfg)
	}},
	{ID: "f9", Desc: "Figure 9: UDP convergence vs number of link failures", run: func(s Settings) (Result, error) {
		cfg := DefaultFig9()
		cfg.Rig = s.rig()
		if s.Quick {
			cfg.MaxFaults, cfg.Trials = 6, 3
		}
		return RunFig9(cfg)
	}},
	{ID: "f9s", Desc: "Figure 9 variant: whole-switch (agg/core) crashes", run: func(s Settings) (Result, error) {
		cfg := DefaultFig9()
		cfg.Rig = s.rig()
		cfg.Mode = FailSwitches
		cfg.MaxFaults, cfg.Trials = 6, 5
		if s.Quick {
			cfg.MaxFaults, cfg.Trials = 3, 2
		}
		return RunFig9(cfg)
	}},
	{ID: "f10", Desc: "Figure 10: TCP convergence across a failure", run: func(s Settings) (Result, error) {
		cfg := DefaultFig10()
		cfg.Rig = s.rig()
		return RunFig10(cfg)
	}},
	{ID: "f11", Desc: "Figure 11: multicast convergence under failure", run: func(s Settings) (Result, error) {
		cfg := DefaultFig11()
		cfg.Rig = s.rig()
		cfg.Trials = pick(s, cfg.Trials, 4)
		return RunFig11(cfg)
	}},
	{ID: "f12", Desc: "Figure 12: TCP across VM live migration", run: func(s Settings) (Result, error) {
		cfg := DefaultFig12()
		cfg.Rig = s.rig()
		return RunFig12(cfg)
	}},
	{ID: "f13", Desc: "Figure 13: fabric-manager control traffic", run: func(s Settings) (Result, error) {
		return runFig13(s.rig(), DefaultFig13())
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
		cfg.Rig = s.rig()
		cfg.Outages = pick(s, cfg.Outages, []time.Duration{100 * time.Millisecond, 400 * time.Millisecond})
		return RunFMF(cfg)
	}},
	{ID: "sc", Desc: "Scenario engine: time-to-detect/reroute per fault family", run: func(s Settings) (Result, error) {
		cfg := DefaultSC()
		cfg.Rig = s.rig()
		cfg.Trials = pick(s, cfg.Trials, 1)
		return RunSC(cfg)
	}},
	{ID: "mgr", Desc: "Manager scaling: prefix-sharded registry + batched ARP punts", run: func(s Settings) (Result, error) {
		cfg := DefaultMgr()
		cfg.Rig = s.rig()
		if s.Quick {
			cfg.Trials, cfg.Flows = 1, 300
		}
		return RunMgr(cfg)
	}},
	{ID: "ft", Desc: "Table pressure: hardware envelopes vs fabric scale", run: func(s Settings) (Result, error) {
		cfg := DefaultFT()
		cfg.Rig = s.rig()
		if s.Quick {
			cfg.Ks, cfg.Flows = []int{4, 6}, 200
		}
		return RunFT(cfg)
	}},
	{ID: "a1", Desc: "Ablation A1: ECMP vs spanning-tree cross-section goodput", run: func(s Settings) (Result, error) {
		return runA1(s.rig(), DefaultA1())
	}},
	{ID: "a2", Desc: "Ablation A2: LDP discovery time vs k", run: func(s Settings) (Result, error) {
		// The full sweep ends at the paper's deployment target: a k=48
		// fat tree with 2880 switches and 27,648 hosts.
		return runA2(s.rig(), pick(s, []int{4, 8, 16, 32, 48}, []int{4, 8, 16}))
	}},
	{ID: "a3", Desc: "Ablation A3: proxy ARP vs broadcast ARP cost", run: func(s Settings) (Result, error) {
		return runA3(s.rig(), 4, 8)
	}},
	{ID: "a4", Desc: "Ablation A4: LDM interval sweep", run: func(s Settings) (Result, error) {
		ivs := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
		return runA4(s.rig(), ivs, pick(s, 5, 2))
	}},
	{ID: "a5", Desc: "Ablation A5: ECMP flow-hash balance across cores", run: func(s Settings) (Result, error) {
		return runA5(s.rig(), 4, pick(s, 256, 64))
	}},
	{ID: "a6", Desc: "Ablation A6: round-trip time by locality class", run: func(s Settings) (Result, error) {
		return runA6(s.rig(), 4, pick(s, 50, 20))
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
