package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic builds ten runs per workload, seeds 1 to 10, whose values
// differ by 3% from seed to seed (as real inputs of different seeds
// do); scale multiplies one metric of every run.
func synthetic(metricName string, scale float64) []record {
	base := map[string]float64{"wall_s": 2, "setup_s": 0.2, "alloc_mb": 180, "mallocs_k": 2900, "live_heap_mb": 170}
	var recs []record
	for _, w := range workloads() {
		for seed := uint64(1); seed <= 10; seed++ {
			r := record{Workload: w.name, Seed: seed, Digest: "d", Correct: true, Attempted: 100, Metrics: map[string]metric{}}
			for name, v := range base {
				v *= 1 + 0.003*float64(seed)
				if name == metricName {
					v *= scale
				}
				r.Metrics[name] = metric{Value: v}
			}
			recs = append(recs, r)
		}
	}
	return recs
}

func verdicts(rows []row, metricName string) []string {
	var out []string
	for _, r := range rows {
		if r.metric == metricName {
			out = append(out, r.verdict)
		}
	}
	return out
}

func TestCompareGate(t *testing.T) {
	a := synthetic("", 1)
	judged := func(name string, scale float64) []string {
		got := verdicts(compareSets(a, synthetic(name, scale)), name)
		if len(got) != len(workloads()) {
			t.Fatalf("%d %s rows for %d workloads", len(got), name, len(workloads()))
		}
		return got
	}
	all := func(name string, scale float64, want string) {
		t.Helper()
		for i, v := range judged(name, scale) {
			if v != want {
				t.Errorf("%s: %s x%v judged %q, want %q", workloads()[i].name, name, scale, v, want)
			}
		}
	}
	// The gate ROADMAP item 1 asks for: a 1.5x slower run fails on every workload.
	all("wall_s", 1.5, verdictWorse)
	// The memory gate holds under a seed-to-seed variation wider than its
	// bound, because seeds are compared with themselves: a 0.5% wobble in
	// mallocs_k passes, a 2% one does not.
	all("mallocs_k", 1.005, verdictOK)
	all("mallocs_k", 1.02, verdictWorse)
	// Half the bound passes, twice the bound does not, a gain never fails.
	for name, b := range pairedBounds {
		all(name, 1+b/2, verdictOK)
		all(name, 1+2*b, verdictWorse)
		all(name, 0.5, verdictOK)
	}
	// Identical code: nothing flagged.
	for _, r := range compareSets(a, synthetic("", 1)) {
		if r.verdict != verdictOK {
			t.Errorf("A/A %s %s judged %q", r.workload, r.metric, r.verdict)
		}
	}
}

func TestCompareUnresolvedAndFailures(t *testing.T) {
	a, b := synthetic("", 1), synthetic("", 1)
	// Seeds that disagree by more than the bound cannot show "unchanged".
	for i := range b {
		if b[i].Seed%2 == 0 {
			mm := b[i].Metrics["wall_s"]
			mm.Value *= 1.6
			b[i].Metrics["wall_s"] = mm
		}
	}
	for _, v := range verdicts(compareSets(a, b), "wall_s") {
		if v == verdictOK {
			t.Error("a 60% scatter in wall_s judged ok")
		}
	}
	// One failed operation where there were none fails the row.
	b = synthetic("", 1)
	b[0].Failed, b[0].Correct = 1, false
	if got := verdicts(compareSets(a, b), "failed_ratio"); got[0] != verdictWorse || got[1] != verdictOK {
		t.Errorf("failed_ratio verdicts %v, want the first workload worse only", got)
	}
	// Only seeds both sets ran are compared.
	var odd []record
	for _, r := range synthetic("mallocs_k", 1.02) {
		if r.Seed%2 == 1 {
			odd = append(odd, r)
		}
	}
	for _, r := range compareSets(a, odd) {
		if r.pairs != 5 {
			t.Errorf("%s %s compared on %d seeds, want 5", r.workload, r.metric, r.pairs)
		}
	}
	for i := range odd {
		odd[i].Seed += 100
	}
	if rows := compareSets(a, odd); len(rows) != 0 {
		t.Errorf("%d rows from sets that share no seed", len(rows))
	}
}

func TestCompareReadsResultFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []record) string {
		p := filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(p, r); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	a := write("a.jsonl", synthetic("", 1))
	slow := synthetic("wall_s", 1.5)
	slow[0].Digest = "other"
	b := write("b.jsonl", slow)
	var out bytes.Buffer
	if code := compareMain(&out, a, b); code != 1 {
		t.Errorf("exit code %d for a 1.5x slowdown, want 1", code)
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "CHANGED on "+workloads()[0].name+"/1") {
		t.Errorf("report lacks the verdict or the digest note:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain(&out, a, a); code != 0 {
		t.Errorf("exit code %d comparing a set with itself:\n%s", code, out.String())
	}
}
