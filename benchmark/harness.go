package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"portland/internal/sim"
)

// workload is one deterministic replay input. Every repetition calls
// setup for a fresh state, so repetitions of one run replay the same
// event sequence.
type workload struct {
	name string
	why  string
	// minReps is the fewest repetitions a run makes however short its
	// --seconds budget is.
	minReps int
	setup   func(r *rep) state
}

// state is one repetition's prepared input.
type state interface {
	// counts reads the layers' cumulative counters through their public
	// accessors, under the per-layer metric names. The harness calls it
	// just outside the timer on both sides and keeps the difference.
	counts() map[string]float64
	// timed is the timed region.
	timed(r *rep)
	// check verifies the simulated outcome outside the timer: it sets
	// attempted, failed and digest, and may add gauges and simulated
	// results to r.layer.
	check(r *rep)
}

// rep is one repetition: its input, its measurements and its outcome.
type rep struct {
	seed      uint64
	tr        *tracer // nil in an untraced repetition
	root      int     // ID of this repetition's root span
	timedSpan int     // ID of its timed-region span

	setupS, wallS             float64
	allocMB, mallocsK, liveMB float64
	gcCycles, gcPauseMs       float64

	events            int64 // sim events fired inside the timed region
	attempted, failed int64
	failures          []string // what failed, for the printed report
	digest            string
	layer             map[string]float64 // per-layer counts, gauges, simulated results
}

// fail records n failed operations and why.
func (r *rep) fail(n int64, format string, args ...any) {
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// runUntil advances the domain inside a sim.run_s span and counts the
// events fired.
func (r *rep) runUntil(dom *sim.Domain, deadline time.Duration) {
	r.tr.begin("sim.run_s")
	r.events += int64(dom.RunUntil(deadline))
	r.tr.end()
}

// runRep executes one repetition of w. The order is fixed: collect
// garbage, set up (untimed, reported as setup_s), snapshot, timed
// region, snapshot, check, collect garbage and read the live heap while
// the state is still reachable.
func runRep(w *workload, seed uint64, tr *tracer) *rep {
	r := &rep{seed: seed, tr: tr, layer: map[string]float64{}}
	runtime.GC()
	if tr != nil {
		r.root = len(tr.spans)
	}
	tr.begin("rep")

	tr.begin("setup")
	t0 := time.Now()
	st := w.setup(r)
	r.setupS = time.Since(t0).Seconds()
	tr.end()

	before := st.counts()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		r.timedSpan = len(tr.spans)
	}
	tr.begin("timed")
	t1 := time.Now()
	st.timed(r)
	r.wallS = time.Since(t1).Seconds()
	tr.end()
	runtime.ReadMemStats(&m1)
	for k, v := range st.counts() {
		r.layer[k] = v - before[k]
	}
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	r.mallocsK = float64(m1.Mallocs-m0.Mallocs) / 1e3
	r.gcCycles = float64(m1.NumGC - m0.NumGC)
	r.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	tr.begin("check")
	st.check(r)
	tr.end()
	tr.end() // rep

	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.liveMB = float64(m1.HeapAlloc) / 1e6
	runtime.KeepAlive(st)

	r.layer["sim.events"] = float64(r.events)
	if hits, misses := r.layer["flowtable.hits"], r.layer["flowtable.misses"]; hits+misses > 0 {
		r.layer["flowtable.hit_ratio"] = hits / (hits + misses)
	}
	return r
}

// digestOf hashes a set of named integer outcomes in key order. Two
// repetitions, or two commits, with the same digest simulated the same
// thing.
func digestOf(parts map[string]int64) string {
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, parts[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// result is one workload's run: every repetition plus the extra
// measurements a traced run makes.
type result struct {
	w        *workload
	seed     uint64
	reps     []*rep // untraced repetitions: the end-to-end metrics come from these
	traced   []*rep // traced repetitions (trace mode only)
	tr       *tracer
	extra    map[string]float64 // kernels and derived metrics (trace mode only)
	failures []string           // failures of the run as a whole (cross-repetition checks)
	failed   int64
}

// runWorkload repeats w until the timed regions add up to budget, and
// at least w.minReps times. In trace mode untraced and traced
// repetitions alternate, so that a slow host phase lands on both sides
// of harness.trace_overhead_ratio.
func runWorkload(w *workload, seed uint64, budget time.Duration, trace bool) *result {
	res := &result{w: w, seed: seed}
	minReps := w.minReps
	if trace {
		res.tr = newTracer()
		res.extra = map[string]float64{}
		budget = budget * 6 / 10 // the rest of the run is kernels and derived measurements
		minReps = traceMinReps
	}
	spent := 0.0
	for i := 0; i < minReps || (spent < budget.Seconds() && i < maxReps); i++ {
		var r *rep
		if trace && i%2 == 1 {
			r = runRep(w, seed, res.tr)
			res.traced = append(res.traced, r)
		} else {
			r = runRep(w, seed, nil)
			res.reps = append(res.reps, r)
		}
		spent += r.wallS
	}
	res.crossCheck()
	return res
}

// traceMinReps is the fewest repetitions of a traced run: three untraced
// and three traced, so that both sides of every ratio a traced run
// reports are fast-half means and none a single reading.
const traceMinReps = 6

// maxReps bounds a run whose timed region is much shorter than
// expected; beyond it more repetitions no longer steady the estimate.
const maxReps = 64

// all returns every repetition, untraced first.
func (res *result) all() []*rep { return append(append([]*rep(nil), res.reps...), res.traced...) }

// crossCheck asserts that every repetition fired the same number of
// events and reached the same outcome. A repetition that differs from
// the first counts as one failure.
func (res *result) crossCheck() {
	all := res.all()
	for i, r := range all[1:] {
		if r.events != all[0].events || r.digest != all[0].digest {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf(
				"repetition %d diverged: %d events digest %s, first repetition %d events digest %s",
				i+1, r.events, r.digest, all[0].events, all[0].digest))
		}
	}
}

// counts returns attempted and failed operations over all repetitions.
func (res *result) counts() (attempted, failed int64) {
	for _, r := range res.all() {
		attempted += r.attempted
		failed += r.failed
	}
	return attempted, failed + res.failed
}

// column extracts one measurement from each repetition.
func column(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// walls returns the timed region's host seconds of every untraced
// repetition.
func (res *result) walls() []float64 {
	return column(res.reps, func(r *rep) float64 { return r.wallS })
}

// endToEnd computes the end-to-end metrics from the untraced
// repetitions: fast-half means for the two timings, medians for the
// three memory counts (which repeat almost exactly).
func (res *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"wall_s":       fastHalfMean(res.walls()),
		"setup_s":      fastHalfMean(column(res.reps, func(r *rep) float64 { return r.setupS })),
		"alloc_mb":     median(column(res.reps, func(r *rep) float64 { return r.allocMB })),
		"mallocs_k":    median(column(res.reps, func(r *rep) float64 { return r.mallocsK })),
		"live_heap_mb": median(column(res.reps, func(r *rep) float64 { return r.liveMB })),
	}
}
