package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// loadSet reads a result set: a comma-separated list of -json files
// and directories of them. Traced records carry no end-to-end metrics
// and are skipped.
func loadSet(arg string) ([]record, error) {
	var files []string
	for _, p := range strings.Split(arg, ",") {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, p)
			continue
		}
		inDir, err := filepath.Glob(filepath.Join(p, "*.json*"))
		if err != nil {
			return nil, err
		}
		files = append(files, inDir...)
	}
	var recs []record
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if !r.Trace {
				recs = append(recs, r)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return recs, nil
}

// verdict of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // B is worse than A by more than the bound on the median seed
	verdictUnresolved = "unresolved" // not worse, but the seeds disagree by more than the bound
)

// row is one line of the comparison.
type row struct {
	workload, metric string
	pairs            int     // seeds both sets ran
	a, b             float64 // medians over those seeds
	worse            float64 // median over seeds of the share of A by which B is worse (negative: better)
	spread           float64 // Q3-Q1 of those shares; 0 with fewer than two seeds
	bound            float64
	verdict          string
}

// compareSets judges B against A seed by seed, one row per workload ×
// end-to-end metric plus one for the failed ratio, whose bound is 0: any
// rise fails. Runs of different seeds replay different inputs, whose
// memory counts differ by more than the bounds; runs of one seed replay
// the same input, so only the seeds both sets ran are compared, each
// against itself. Several runs of one seed in a set count as their
// median.
func compareSets(a, b []record) []row {
	var rows []row
	for _, w := range workloads() {
		sa, sb := bySeed(a, w.name), bySeed(b, w.name)
		var seeds []uint64
		for seed := range sa {
			if len(sb[seed]) > 0 {
				seeds = append(seeds, seed)
			}
		}
		if len(seeds) == 0 {
			continue
		}
		slices.Sort(seeds)
		for _, d := range endToEndMetrics {
			va, vb, shares := make([]float64, len(seeds)), make([]float64, len(seeds)), make([]float64, len(seeds))
			for i, seed := range seeds {
				va[i], vb[i] = median(values(sa[seed], d.Name)), median(values(sb[seed], d.Name))
				shares[i] = (vb[i] - va[i]) / va[i]
				if d.Better == "higher" {
					shares[i] = -shares[i]
				}
			}
			r := row{workload: w.name, metric: d.Name, pairs: len(seeds), a: median(va), b: median(vb),
				worse: median(shares), bound: pairedBounds[d.Name]}
			if len(shares) > 1 {
				q1, q3 := quartiles(shares)
				r.spread = q3 - q1
			}
			r.verdict = judge(r)
			rows = append(rows, r)
		}
		var ra, rb []record
		for _, seed := range seeds {
			ra, rb = append(ra, sa[seed]...), append(rb, sb[seed]...)
		}
		r := row{workload: w.name, metric: "failed_ratio", pairs: len(seeds), a: failedRatio(ra), b: failedRatio(rb)}
		r.worse = r.b - r.a // an absolute rise: the healthy value is 0
		r.verdict = judge(r)
		rows = append(rows, r)
	}
	return rows
}

func judge(r row) string {
	switch {
	case r.worse > r.bound:
		return verdictWorse
	case r.spread > r.bound:
		return verdictUnresolved
	}
	return verdictOK
}

// bySeed groups a workload's records by seed.
func bySeed(recs []record, workload string) map[uint64][]record {
	out := map[uint64][]record{}
	for _, r := range recs {
		if r.Workload == workload {
			out[r.Seed] = append(out[r.Seed], r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func failedRatio(recs []record) float64 {
	var failed, attempted int64
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// digestNote says whether the two sets simulated the same thing on the
// seeds they share: a change meant only to speed the simulator up must
// leave every digest as it was.
func digestNote(a, b []record) string {
	byKey := map[string]string{}
	for _, r := range a {
		byKey[fmt.Sprint(r.Workload, "/", r.Seed)] = r.Digest
	}
	same, changed := 0, []string{}
	for _, r := range b {
		key := fmt.Sprint(r.Workload, "/", r.Seed)
		switch d, ok := byKey[key]; {
		case !ok:
		case d == r.Digest:
			same++
		default:
			changed = append(changed, key)
		}
	}
	if len(changed) == 0 {
		return fmt.Sprintf("outcome digests: identical on all %d shared workload/seed pairs", same)
	}
	slices.Sort(changed)
	return fmt.Sprintf("outcome digests: CHANGED on %s (identical on %d): simulated behaviour differs",
		strings.Join(slices.Compact(changed), " "), same)
}

// compareMain is the -compare mode. It exits 1 when any row is worse or
// unresolved, and 2 when the sets share no workload and seed.
func compareMain(w io.Writer, argA, argB string) int {
	var sets [2][]record
	for i, arg := range []string{argA, argB} {
		var err error
		if sets[i], err = loadSet(arg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	a, b := sets[0], sets[1]
	rows := compareSets(a, b)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: the two sets share no workload and seed; run both on the same seeds")
		return 2
	}
	return printRows(w, rows, digestNote(a, b))
}

func printRows(w io.Writer, rows []row, note string) int {
	fmt.Fprintf(w, "%-18s %-13s %5s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "seeds", "A median", "B median", "B worse", "spread", "bound", "verdict")
	bad := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-13s %5d %14.6g %14.6g %+8.2f%% %8.2f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.pairs, r.a, r.b, 100*r.worse, 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict != verdictOK {
			bad++
		}
	}
	fmt.Fprintln(w, note)
	if bad > 0 {
		fmt.Fprintf(w, "%d of %d rows worse or unresolved\n", bad, len(rows))
		return 1
	}
	fmt.Fprintf(w, "all %d rows within their bounds\n", len(rows))
	return 0
}
