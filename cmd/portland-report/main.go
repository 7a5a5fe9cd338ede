// Command portland-report replays one sweep cell of a catalog entry,
// addressed by the (point, trial) the sweep report's cells record, and
// renders its observability report: the journaled failure→reconvergence
// timeline, per-flow convergence, ARP latency and the unified counters.
// A sweep cell is a pure function of (config, coordinate), so the
// replay is bit-identical to the cell portland-bench measured.
//
// Usage:
//
//	portland-report                          # replay the default cell (f9: 1 fault, trial 0)
//	portland-report -point 4 -trial 2        # pick the sweep coordinate
//	portland-report -exp f9s                 # crash whole switches instead of links
//	portland-report -exp ft -quick -point 1  # a cell of the -quick sweep
//	portland-report -o report.json           # also write the versioned JSON report
//	portland-report -prom                    # Prometheus text dump instead of the timeline
//	portland-report -decode report.json      # render an existing report file
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"portland/internal/experiments"
	"portland/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("portland-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		decode = fs.String("decode", "", "render an existing report file instead of replaying")
		exp    = fs.String("exp", "f9", "catalog ID of the entry whose sweep cell to replay")
		point  = fs.Int("point", 1, "the cell's sweep point, as the sweep report's cells record it")
		trial  = fs.Int("trial", 0, "the cell's trial index within its point")
		quick  = fs.Bool("quick", false, "replay a cell of the -quick sweep")
		out    = fs.String("o", "", "write the versioned JSON report to this file")
		prom   = fs.Bool("prom", false, "emit the Prometheus text dump instead of the timeline")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var rep *obs.Report
	if *decode != "" {
		b, err := os.ReadFile(*decode)
		if err == nil {
			rep, err = obs.Decode(bytes.NewReader(b))
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		sel, err := experiments.Select(*exp)
		if err == nil && len(sel) != 1 {
			err = fmt.Errorf("-exp %q names %d experiments; replay takes one", *exp, len(sel))
		}
		if err != nil {
			fmt.Fprintf(stderr, "portland-report: %v\n", err)
			return 2
		}
		rep, err = sel[0].Replay(experiments.Settings{Quick: *quick}, *point, *trial)
		if err != nil {
			fmt.Fprintf(stderr, "portland-report: %v\n", err)
			if errors.Is(err, experiments.ErrNoCell) {
				return 2
			}
			return 1
		}
	}

	if *out != "" {
		b, err := rep.EncodeBytes()
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *prom {
		if err := rep.WritePrometheus(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	render(stdout, rep)
	return 0
}

// render prints the human-readable view of a report: identity, the
// convergence summary, the journaled timeline, and the derived views.
func render(w io.Writer, r *obs.Report) {
	printf := func(format string, a ...any) { fmt.Fprintf(w, format, a...) }
	printf("report: experiment=%s schema=%d seed=%d\n", r.Experiment, r.Schema, r.Seed)
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		printf("  %s=%s\n", k, r.Params[k])
	}

	if c := r.Convergence; c != nil {
		printf("\nconvergence (fault at t=%v", time.Duration(c.FaultAtNs))
		if c.RestoreAtNs != 0 {
			printf(", restored at t=%v", time.Duration(c.RestoreAtNs))
		}
		printf(")\n")
		affected, dead := 0, 0
		for _, f := range c.Flows {
			if f.Affected {
				affected++
			}
			if !f.Recovered {
				dead++
			}
		}
		printf("  flows: %d total, %d affected, %d never recovered\n", len(c.Flows), affected, dead)
		printf("  failure  convergence ms: n=%d median=%.1f mean=%.1f max=%.1f\n",
			c.Failure.N, c.Failure.Median, c.Failure.Mean, c.Failure.Max)
		if c.Recovery.N > 0 {
			printf("  recovery convergence ms: n=%d median=%.1f mean=%.1f max=%.1f\n",
				c.Recovery.N, c.Recovery.Median, c.Recovery.Mean, c.Recovery.Max)
		}
		for _, f := range c.Flows {
			if f.Affected {
				printf("    %-40s %8.1f ms\n", f.Flow, f.ConvergedMs)
			}
		}
	}

	if len(r.Timeline) > 0 {
		printf("\ntimeline (%d events; t relative to fault)\n", len(r.Timeline))
		base := int64(0)
		if r.Convergence != nil {
			base = r.Convergence.FaultAtNs
		}
		for _, e := range r.Timeline {
			printf("  %+10.3fms  %-12s %-15s %s\n",
				float64(e.AtNs-base)/1e6, e.Source, e.Kind, e.Text)
		}
	}

	if h := r.ARPLatency; h != nil && h.N > 0 {
		printf("\nARP resolution latency (n=%d, max=%v)\n", h.N, time.Duration(h.MaxNs))
		for i, n := range h.Counts {
			if n == 0 {
				continue
			}
			if i < len(h.BoundsUs) {
				printf("  <= %8dus  %d\n", h.BoundsUs[i], n)
			} else {
				printf("   > %8dus  %d\n", h.BoundsUs[len(h.BoundsUs)-1], n)
			}
		}
	}

	if len(r.RegistryChurn) > 0 {
		printf("\nregistry churn (%d active buckets)\n", len(r.RegistryChurn))
		for _, p := range r.RegistryChurn {
			printf("  t=%8.0fms  +%d reg, +%d migrate (%.1f/s)\n",
				p.AtMs, p.Registrations, p.Migrations, p.PerSec)
		}
	}

	if len(r.Counters) > 0 {
		printf("\ncounters: %d (use -prom for the full dump)\n", len(r.Counters))
	}
	if len(r.Cells) > 0 {
		printf("cells: %d\n", len(r.Cells))
	}
}
