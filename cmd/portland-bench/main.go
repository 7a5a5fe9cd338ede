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
//	portland-bench -parallel 4     # worker-pool size (0 = GOMAXPROCS, 1 = serial)
//	portland-bench -cpuprofile cpu.prof -memprofile mem.prof
//	portland-bench -reports out/   # also write <id>-report.json per experiment
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"portland/internal/experiments"
	"portland/internal/obs"
	"portland/internal/runner"
)

func main() {
	// All work happens in run so deferred profile flushes survive the
	// error paths (os.Exit here would skip them).
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("portland-bench", flag.ContinueOnError)
	var (
		expFlag    = fs.String("exp", "all", "comma-separated experiment IDs ("+experiments.IDs()+") or 'all'")
		list       = fs.Bool("list", false, "list experiments and exit")
		quick      = fs.Bool("quick", false, "reduced trial counts")
		parallel   = fs.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = serial; same output at every value)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		reports    = fs.String("reports", "", "directory for per-experiment <id>-report.json files")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range experiments.Catalog {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Desc)
		}
		return 0
	}
	exps, err := experiments.Select(*expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "portland-bench: %v\n", err)
		return 2
	}

	runner.SetWorkers(*parallel)
	settings := experiments.Settings{Quick: *quick}
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
		res, rep, err := e.Run(settings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		res.Print(stdout)
		if *reports != "" && rep != nil {
			if err := writeReport(*reports, e.ID, rep); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// writeReport writes one experiment's versioned JSON report into dir.
func writeReport(dir, id string, rep *obs.Report) error {
	b, err := rep.EncodeBytes()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+"-report.json"), b, 0o644)
}
