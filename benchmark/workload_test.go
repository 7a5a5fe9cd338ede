package main

import (
	"reflect"
	"testing"
	"time"

	"portland/internal/core"
	"portland/internal/faults"
)

// smoke runs a workload's fewest repetitions, half of them traced, and
// asserts what every run of the benchmark asserts: nothing failed and
// the repetitions are identical.
func smoke(t *testing.T, w *workload) *result {
	t.Helper()
	res := runWorkload(w, 3, 0, true)
	attempted, failed := res.counts()
	if attempted == 0 {
		t.Errorf("%s: nothing attempted", w.name)
	}
	if failed != 0 {
		t.Errorf("%s: %d of %d failed: %v %v", w.name, failed, attempted, res.failures, res.all()[0].failures)
	}
	if a, b := res.reps[0], res.traced[0]; a.digest == "" || a.digest != b.digest || a.events != b.events {
		t.Errorf("%s: repetitions differ: %s/%d vs %s/%d", w.name, a.digest, a.events, b.digest, b.events)
	}
	for name, v := range res.endToEnd() {
		if v <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v)
		}
	}
	return res
}

func TestBootSmoke(t *testing.T) {
	serial := smoke(t, bootWorkload("boot-k4", "", 4, 0, 2))
	sharded := smoke(t, bootWorkload("boot-k4-sharded", "", 4, 3, 2))
	if serial.reps[0].digest != sharded.reps[0].digest {
		t.Errorf("sharded digest %s differs from serial %s", sharded.reps[0].digest, serial.reps[0].digest)
	}
	layer := sharded.perLayer()
	for _, name := range []string{"sim.events", "sim.run_s", "core.discover_s", "topo.build_s", "ldp.ldms_sent", "sim.domain.epochs", "core.discovery_virtual_ms"} {
		if layer[name] <= 0 {
			t.Errorf("sharded boot: per-layer %s = %v, want > 0", name, layer[name])
		}
	}
	if serial.perLayer()["sim.domain.epochs"] != 0 {
		t.Error("a serial boot planned epochs")
	}
}

func TestFlowSetupSmoke(t *testing.T) {
	res := smoke(t, flowSetupWorkload(4, 2000))
	layer := res.perLayer()
	if layer["host.packets_sent"] < 2000 || layer["host.packets_sent"] != layer["host.packets_delivered"] {
		t.Errorf("packets sent %v delivered %v", layer["host.packets_sent"], layer["host.packets_delivered"])
	}
	for _, name := range []string{"flowtable.installs", "pswitch.arp_punts", "fabricmgr.arp_queries", "workload.sample_s"} {
		if layer[name] <= 0 {
			t.Errorf("flow set-up: per-layer %s = %v, want > 0", name, layer[name])
		}
	}
}

func TestFaultChurnSmoke(t *testing.T) {
	res := smoke(t, faultChurnWorkload(4, 2))
	layer := res.perLayer()
	for _, name := range []string{"fabricmgr.fault_events", "fabricmgr.exclusions_set", "flowtable.hits", "faults.apply_s", "faults.pick_s"} {
		if layer[name] <= 0 {
			t.Errorf("fault churn: per-layer %s = %v, want > 0", name, layer[name])
		}
	}
}

func TestSweepSmoke(t *testing.T) {
	var few []driver
	for _, d := range drivers {
		if d.id == "f11" || d.id == "mgr" || d.id == "a6" { // the quick ones
			few = append(few, d)
		}
	}
	res := smoke(t, sweepWorkload(few))
	layer := res.perLayer()
	for _, name := range []string{"experiments.f11_s", "experiments.mgr_s", "experiments.f11_convergence_ms", "obs.report_s", "flowtable.hits"} {
		if layer[name] <= 0 {
			t.Errorf("sweep: per-layer %s = %v, want > 0", name, layer[name])
		}
	}
}

// The benchmark, not the simulator, draws the fault-churn input: the
// same seed must give the same lists, and every list must leave the
// fabric routable.
func TestChurnPlanDeterministicAndRoutable(t *testing.T) {
	f, err := core.NewFatTree(16, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := drawChurnPlan(7, f, 8, nil)
	b := drawChurnPlan(7, f, 8, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different plans")
	}
	if c := drawChurnPlan(8, f, 8, nil); reflect.DeepEqual(a.rounds, c.rounds) {
		t.Error("two seeds drew the same link sets")
	}
	if len(a.rounds) != churnRounds {
		t.Fatalf("%d rounds, want %d", len(a.rounds), churnRounds)
	}
	for i, links := range a.rounds {
		if len(links) != 8 || !faults.Routable(f, links) {
			t.Errorf("round %d: links %v not routable", i, links)
		}
	}
	seen := map[int]bool{}
	for i, j := range a.perm {
		if i == j || seen[j] {
			t.Fatalf("perm[%d] = %d: not a permutation without fixed points", i, j)
		}
		seen[j] = true
	}
}

func TestDivergingRepetitionCounts(t *testing.T) {
	res := &result{reps: []*rep{{digest: "a", events: 1}, {digest: "a", events: 1}, {digest: "b", events: 1}}}
	res.crossCheck()
	if res.failed != 1 || len(res.failures) != 1 {
		t.Errorf("failed %d, failures %v; want one diverging repetition", res.failed, res.failures)
	}
}

func TestBudgetStopsRepetitions(t *testing.T) {
	w := bootWorkload("boot-k4", "", 4, 0, 3)
	if res := runWorkload(w, 1, time.Nanosecond, false); len(res.reps) != 3 {
		t.Errorf("%d repetitions under a spent budget, want minReps = 3", len(res.reps))
	}
}
