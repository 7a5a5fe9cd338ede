// Command benchmark is the repo's benchmark: five deterministic replay
// workloads, each repeated in one process, with end-to-end metrics
// measured untraced and per-layer metrics from a separate traced run.
// See README.md in this directory for definitions and rationale.
//
//	bash benchmark/run.sh --seed 1                         # all five workloads
//	bash benchmark/run.sh --workload boot-k48 --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload boot-k48 --seed 1 --seconds 10 --trace 1
//	bash benchmark/run.sh --compare a.jsonl b.jsonl        # judge B against A, seed by seed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

func workloads() []*workload {
	return []*workload{
		bootWorkload("boot-k48",
			"Paper's target scale, serial: pure control-plane churn (LDP, links, timer wheel, registration) on a working set far beyond cache.",
			48, 0, 5),
		bootWorkload("boot-k32-sharded",
			"Same boot on 4 engine shards and 2 workers: identical events, so mailbox and barrier cost in sim.Domain is the whole difference.",
			32, 4, 5),
		flowSetupWorkload(16, 100_000),
		faultChurnWorkload(16, 8),
		sweepWorkload(drivers),
	}
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all five, one after the other)")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "timed-region budget per workload; repetitions continue until it is spent")
		trace   = fs.Int("trace", 0, "1 = traced run: per-layer metrics, span files, layer kernels")
		out     = fs.String("json", "", "append one JSON record per workload to this file (input of -compare)")
		compare = fs.Bool("compare", false, "judge result set B against A, seed by seed: -compare A B, each a -json file, a directory of them, or a comma-separated list")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result sets")
			return 2
		}
		return compareMain(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}

	var todo []*workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no workload named %q\n", *name)
		return 2
	}

	host := hostInfo()
	fmt.Printf("host: num_cpu=%d gomaxprocs=%d sharded_workers=%d go=%s commit=%s seed=%d\n",
		host.NumCPU, host.GOMAXPROCS, host.Workers, host.GoVersion, host.Commit, *seed)
	exit := 0
	for _, w := range todo {
		res := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if *trace == 1 {
			traceExtras(res)
			path := filepath.Join("benchmark", "out", "trace-"+w.name+".json")
			if err := res.tr.write(path, w.name, *seed); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Printf("spans written to %s\n", path)
		}
		rec := res.record(host, *trace == 1)
		res.print(os.Stdout, rec)
		if !rec.Correct {
			exit = 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		// The driver's line: exactly these four keys, last on standard
		// output of a run of one workload. A run of several prints one
		// after each, so that no workload's failure hides behind the last.
		b, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(b))
	}
	return exit
}

// hostRecord is the stated host of a run.
type hostRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"` // of the sharded boot; every other workload is single-threaded
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() hostRecord {
	h := hostRecord{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: shardedWorkers(),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload's run as stored by -json and read by -compare.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      hostRecord        `json:"host"`
	Reps      int               `json:"reps"`
	Digest    string            `json:"digest"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record assembles the run's reported metrics: the end-to-end set for
// an untraced run, the per-layer set for a traced one.
func (res *result) record(host hostRecord, trace bool) record {
	attempted, failed := res.counts()
	rec := record{
		Workload: res.w.name, Seed: res.seed, Trace: trace, Host: host,
		Reps: len(res.reps), Digest: res.all()[0].digest,
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{},
	}
	if !trace {
		e2e := res.endToEnd()
		for _, d := range endToEndMetrics {
			rec.Metrics[d.Name] = metric{e2e[d.Name], d.Unit}
		}
		return rec
	}
	layer := res.perLayer()
	for _, d := range perLayerMetrics {
		rec.Metrics[d.Name] = metric{layer[d.Name], d.Unit}
	}
	return rec
}

// print writes the human-readable report of one workload.
func (res *result) print(w io.Writer, rec record) {
	fmt.Fprintf(w, "\n== %s (seed %d, %d untraced + %d traced repetitions)\n", res.w.name, res.seed, len(res.reps), len(res.traced))
	first := res.all()[0]
	fmt.Fprintf(w, "   digest %s   sim.events %d   failed/attempted %d/%d (failed_ratio %g)\n",
		first.digest, first.events, rec.Failed, rec.Attempted, float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	for _, r := range res.all() {
		for _, f := range r.failures {
			fmt.Fprintf(w, "   FAILED: %s\n", f)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	e2e := res.endToEnd()
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "   %-14s %14.6f %s\n", d.Name, e2e[d.Name], d.Unit)
	}
	walls := res.walls()
	fmt.Fprintf(w, "   wall_s over %d repetitions: min %.4f  median %.4f  max %.4f   sim.events_per_s %.0f\n",
		len(walls), slices.Min(walls), median(walls), slices.Max(walls), float64(first.events)/e2e["wall_s"])
	fmt.Fprintf(w, "   wall_s by repetition: %.4f\n", walls)
	if !rec.Trace {
		return
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if m := rec.Metrics[n]; m.Value != 0 || strings.HasPrefix(n, "harness.") {
			fmt.Fprintf(w, "   %-42s %16.6f %s\n", n, m.Value, m.Unit)
		}
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
