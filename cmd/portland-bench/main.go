// Command portland-bench regenerates every table and figure of the
// PortLand paper's evaluation, printing the same rows and series the
// paper reports (see EXPERIMENTS.md for the mapping and the expected
// shapes).
//
// Usage:
//
//	portland-bench                 # run everything
//	portland-bench -exp f9,f13     # run a subset
//	portland-bench -list           # list experiment IDs
//	portland-bench -quick          # reduced trial counts (CI-sized)
//	portland-bench -parallel 4     # worker-pool size (0 = GOMAXPROCS)
//	portland-bench -serial         # force one worker (escape hatch)
//	portland-bench -shards 8       # engine shards per fabric (same output)
//	portland-bench -shards 8 -synccounters  # add sync.* engine counters to reports
//	portland-bench -cpuprofile cpu.prof -memprofile mem.prof
//	portland-bench -reports out/   # also write <id>-report.json per experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"portland/internal/experiments"
	"portland/internal/obs"
	"portland/internal/runner"
)

type experiment struct {
	id   string
	desc string
	// run executes the experiment, prints its table/series, and
	// returns the observability report (nil for drivers without one).
	run func(quick bool) (*obs.Report, error)
}

// drive is the shape every experiment shares: run the driver at its
// default or -quick configuration, print the result, hand back the
// report that `report` picks from it. f12, f13 and f14 pass a nil
// `report`: they are micro/analytic drivers that predate the
// observability layer's journal capture and build no fabric journals.
func drive[R interface{ Print(io.Writer) }](run func(quick bool) (R, error), report func(R) *obs.Report) func(bool) (*obs.Report, error) {
	return func(quick bool) (*obs.Report, error) {
		res, err := run(quick)
		if err != nil {
			return nil, err
		}
		res.Print(os.Stdout)
		if report == nil {
			return nil, nil
		}
		return report(res), nil
	}
}

var catalog = []experiment{
	{"t1", "Table 1: technique comparison + forwarding-state proxy", drive(
		func(quick bool) (*experiments.Table1Result, error) {
			cfg := experiments.DefaultTable1()
			if quick {
				cfg.Ks = []int{4, 8}
			}
			return experiments.RunTable1(cfg)
		},
		func(r *experiments.Table1Result) *obs.Report { return r.Report })},
	{"f9", "Figure 9: UDP convergence vs number of link failures", drive(
		func(quick bool) (*experiments.Fig9Result, error) {
			cfg := experiments.DefaultFig9()
			if quick {
				cfg.MaxFaults, cfg.Trials = 6, 3
			}
			return experiments.RunFig9(cfg)
		},
		fig9Report)},
	{"f9s", "Figure 9 variant: whole-switch (agg/core) crashes", drive(
		func(quick bool) (*experiments.Fig9Result, error) {
			cfg := experiments.DefaultFig9()
			cfg.Mode = experiments.FailSwitches
			cfg.MaxFaults, cfg.Trials = 6, 5
			if quick {
				cfg.MaxFaults, cfg.Trials = 3, 2
			}
			return experiments.RunFig9(cfg)
		},
		fig9Report)},
	{"f10", "Figure 10: TCP convergence across a failure", drive(
		func(bool) (*experiments.Fig10Result, error) {
			return experiments.RunFig10(experiments.DefaultFig10())
		},
		func(r *experiments.Fig10Result) *obs.Report { return r.Report })},
	{"f11", "Figure 11: multicast convergence under failure", drive(
		func(quick bool) (*experiments.Fig11Result, error) {
			cfg := experiments.DefaultFig11()
			if quick {
				cfg.Trials = 4
			}
			return experiments.RunFig11(cfg)
		},
		func(r *experiments.Fig11Result) *obs.Report { return r.Report })},
	{"f12", "Figure 12: TCP across VM live migration", drive(
		func(bool) (*experiments.Fig12Result, error) {
			return experiments.RunFig12(experiments.DefaultFig12())
		},
		nil)},
	{"f13", "Figure 13: fabric-manager control traffic", drive(
		func(bool) (*experiments.Fig13Result, error) {
			return experiments.RunFig13(experiments.DefaultFig13())
		},
		nil)},
	{"f14", "Figure 14: fabric-manager CPU requirement", drive(
		func(quick bool) (*experiments.Fig14Result, error) {
			cfg := experiments.DefaultFig14()
			if quick {
				cfg.Registry, cfg.MeasureOps = 8192, 100000
			}
			return experiments.RunFig14(cfg)
		},
		nil)},
	{"fmf", "Manager failover: ARP blackout + convergence vs outage/control loss", drive(
		func(quick bool) (*experiments.FMFResult, error) {
			cfg := experiments.DefaultFMF()
			if quick {
				cfg.Outages = []time.Duration{100 * time.Millisecond, 400 * time.Millisecond}
			}
			return experiments.RunFMF(cfg)
		},
		func(r *experiments.FMFResult) *obs.Report { return r.Report })},
	{"sc", "Scenario engine: time-to-detect/reroute per fault family", drive(
		func(quick bool) (*experiments.SCResult, error) {
			cfg := experiments.DefaultSC()
			if quick {
				cfg.Trials = 1
			}
			return experiments.RunSC(cfg)
		},
		func(r *experiments.SCResult) *obs.Report { return r.Report })},
	{"mgr", "Manager scaling: prefix-sharded registry + batched ARP punts", drive(
		func(quick bool) (*experiments.MgrResult, error) {
			cfg := experiments.DefaultMgr()
			if quick {
				cfg.Trials, cfg.Flows = 1, 300
			}
			return experiments.RunMgr(cfg)
		},
		func(r *experiments.MgrResult) *obs.Report { return r.Report })},
	{"ft", "Table pressure: hardware envelopes vs fabric scale", drive(
		func(quick bool) (*experiments.FTResult, error) {
			cfg := experiments.DefaultFT()
			if quick {
				cfg.Ks, cfg.Flows = []int{4, 6}, 200
			}
			return experiments.RunFT(cfg)
		},
		func(r *experiments.FTResult) *obs.Report { return r.Report })},
	{"a1", "Ablation A1: ECMP vs spanning-tree cross-section goodput", drive(
		func(bool) (*experiments.A1Result, error) {
			return experiments.RunA1(experiments.DefaultA1())
		},
		func(r *experiments.A1Result) *obs.Report { return r.Report })},
	{"a2", "Ablation A2: LDP discovery time vs k", drive(
		func(quick bool) (*experiments.A2Result, error) {
			// The full sweep ends at the paper's deployment target: a k=48
			// fat tree with 2880 switches and 27,648 hosts.
			ks := []int{4, 8, 16, 32, 48}
			if quick {
				ks = []int{4, 8, 16}
			}
			return experiments.RunA2(ks)
		},
		func(r *experiments.A2Result) *obs.Report { return r.Report })},
	{"a3", "Ablation A3: proxy ARP vs broadcast ARP cost", drive(
		func(bool) (*experiments.A3Result, error) { return experiments.RunA3(4, 8) },
		func(r *experiments.A3Result) *obs.Report { return r.Report })},
	{"a4", "Ablation A4: LDM interval sweep", drive(
		func(quick bool) (*experiments.A4Result, error) {
			ivs := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
			trials := 5
			if quick {
				trials = 2
			}
			return experiments.RunA4(ivs, trials)
		},
		func(r *experiments.A4Result) *obs.Report { return r.Report })},
	{"a5", "Ablation A5: ECMP flow-hash balance across cores", drive(
		func(quick bool) (*experiments.A5Result, error) {
			flows := 256
			if quick {
				flows = 64
			}
			return experiments.RunA5(4, flows)
		},
		func(r *experiments.A5Result) *obs.Report { return r.Report })},
	{"a6", "Ablation A6: round-trip time by locality class", drive(
		func(quick bool) (*experiments.A6Result, error) {
			probes := 50
			if quick {
				probes = 20
			}
			return experiments.RunA6(4, probes)
		},
		func(r *experiments.A6Result) *obs.Report { return r.Report })},
}

func fig9Report(r *experiments.Fig9Result) *obs.Report { return r.Report }

// catalogIDs is the comma-separated list of valid -exp IDs.
func catalogIDs() string {
	ids := make([]string, len(catalog))
	for i, e := range catalog {
		ids[i] = e.id
	}
	return strings.Join(ids, ",")
}

// selectExperiments resolves an -exp value against the catalog: "all",
// or a comma-separated ID list (surrounding whitespace and duplicates
// are tolerated). The selection comes back in catalog order. An ID the
// catalog does not have is an error naming every offender.
func selectExperiments(spec string) ([]experiment, error) {
	if strings.TrimSpace(spec) == "all" {
		return catalog, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var sel []experiment
	for _, e := range catalog {
		if want[e.id] {
			sel = append(sel, e)
			delete(want, e.id)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s (valid: all or any of %s)", strings.Join(unknown, ", "), catalogIDs())
	}
	return sel, nil
}

func main() {
	// All work happens in run so deferred profile flushes survive the
	// error paths (os.Exit here would skip them).
	os.Exit(run())
}

func run() int {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment IDs ("+catalogIDs()+") or 'all'")
		list       = flag.Bool("list", false, "list experiments and exit")
		quick      = flag.Bool("quick", false, "reduced trial counts")
		parallel   = flag.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
		serial     = flag.Bool("serial", false, "run sweeps on one worker (same output, for bisecting)")
		shards     = flag.Int("shards", 0, "engine shards per fabric (0/1 = serial); output is byte-identical at every value")
		syncCtrs   = flag.Bool("synccounters", false, "report the engine domain's sync.* counters (epoch planner barriers/skips) per cell")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		reports    = flag.String("reports", "", "directory for per-experiment <id>-report.json files")
	)
	flag.Parse()

	if *list {
		for _, e := range catalog {
			fmt.Printf("%-4s %s\n", e.id, e.desc)
		}
		return 0
	}
	exps, err := selectExperiments(*expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "portland-bench: %v\n", err)
		return 2
	}

	if *serial {
		runner.SetWorkers(1)
	} else {
		runner.SetWorkers(*parallel)
	}
	experiments.SetDefaultShards(*shards)
	experiments.SetDefaultSyncCounters(*syncCtrs)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *reports != "" {
		if err := os.MkdirAll(*reports, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	start := time.Now()
	for _, e := range exps {
		rep, err := e.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			return 1
		}
		if *reports != "" && rep != nil {
			if err := writeReport(*reports, e.id, rep); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
				return 1
			}
		}
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// writeReport writes one experiment's versioned JSON report into dir.
func writeReport(dir, id string, rep *obs.Report) error {
	f, err := os.Create(filepath.Join(dir, id+"-report.json"))
	if err != nil {
		return err
	}
	if err := rep.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
