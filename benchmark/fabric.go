package main

import (
	"fmt"
	"runtime"
	"time"

	"portland/internal/core"
	"portland/internal/ctrlmsg"
	"portland/internal/obs"
	"portland/internal/topo"
)

// layerCounts renames an obs counter snapshot to the per-layer metric
// names.
func layerCounts(c obs.Counters) map[string]float64 {
	return map[string]float64{
		"sim.link.drops":           float64(c["link.drops_queue"] + c["link.drops_loss"] + c["link.drops_gray"] + c["link.drops_down"]),
		"ldp.ldms_sent":            float64(c["ldp.ldms_sent"]),
		"pswitch.frames_in":        float64(c["sw.frames_in"]),
		"pswitch.arp_punts":        float64(c["sw.arp_punts"]),
		"pswitch.blackholed":       float64(c["sw.blackholed"]),
		"flowtable.hits":           float64(c["flow.hits"]),
		"flowtable.misses":         float64(c["flow.misses"]),
		"flowtable.installs":       float64(c["flow.installs"]),
		"ctrlnet.to_mgr_msgs":      float64(c["ctrl.to_mgr_msgs"]),
		"ctrlnet.from_mgr_msgs":    float64(c["ctrl.from_mgr_msgs"]),
		"ctrlnet.to_mgr_bytes":     float64(c["ctrl.to_mgr_bytes"]),
		"ctrlnet.from_mgr_bytes":   float64(c["ctrl.from_mgr_bytes"]),
		"fabricmgr.arp_queries":    float64(c["mgr.arp_queries"]),
		"fabricmgr.registrations":  float64(c["mgr.registrations"]),
		"fabricmgr.fault_events":   float64(c["mgr.fault_events"]),
		"fabricmgr.exclusions_set": float64(c["mgr.exclusions_set"]),
		"obs.events_captured":      float64(c["obs.events_captured"]),
		"obs.events_dropped":       float64(c["obs.events_dropped"]),
	}
}

// fabricCounts reads every layer counter a fabric exposes, under the
// per-layer metric names. All of them are cumulative, so the harness
// can difference two calls.
func fabricCounts(f *core.Fabric) map[string]float64 {
	out := layerCounts(f.ObsCounters())
	var frames int64
	for _, l := range f.Links {
		frames += l.Delivered()
	}
	out["sim.link.frames"] = float64(frames)
	ss := f.Dom.SyncStats()
	out["sim.domain.epochs"] = float64(ss.Epochs)
	for _, sh := range ss.Shards { // the two totals become per-shard means in fabricGauges
		out["sim.domain.barriers_total"] += float64(sh.Barriers)
		out["sim.domain.skips_total"] += float64(sh.Skips)
		out["sim.domain.mail_recv"] += float64(sh.MailRecv)
	}
	return out
}

// fabricGauges adds the per-layer values that are states, not deltas,
// and turns the per-shard totals into per-shard means.
func fabricGauges(f *core.Fabric, r *rep) {
	entries := 0
	for _, id := range f.Spec.Switches() {
		entries += f.Switches[id].FlowTable().Len()
	}
	r.layer["flowtable.entries"] = float64(entries)
	r.layer["sim.domain.workers"] = float64(f.Dom.EffectiveWorkers())
	shards := float64(f.Dom.Shards())
	r.layer["sim.domain.barriers_per_shard"] = r.layer["sim.domain.barriers_total"] / shards
	r.layer["sim.domain.skips_per_shard"] = r.layer["sim.domain.skips_total"] / shards
	delete(r.layer, "sim.domain.barriers_total")
	delete(r.layer, "sim.domain.skips_total")
}

// fabricOutcome is the simulated outcome of a fabric run as named
// integers: every fabric counter (engine synchronisation excluded, so a
// sharded run hashes like a serial one) plus whatever the workload
// adds. It feeds digestOf.
func fabricOutcome(f *core.Fabric, r *rep) map[string]int64 {
	out := map[string]int64{"sim.events": r.events, "virtual_ns": int64(f.Dom.Now())}
	for k, v := range f.ObsCounters() {
		out[k] = v
	}
	return out
}

// buildFabric builds and starts a k-ary fat tree under the set-up
// spans. shards <= 1 is the serial engine.
func buildFabric(r *rep, k, shards int) *core.Fabric {
	var spec *topo.Spec
	r.tr.in("topo.build_s", func() {
		var err error
		if spec, err = topo.FatTree(k); err != nil {
			panic(err) // k is a constant of the benchmark
		}
		if shards > 1 {
			topo.Partition(spec, shards) // core.Build partitions again; this call only puts it under the span
		}
	})
	var f *core.Fabric
	r.tr.in("core.build_s", func() { f = core.Build(spec, core.Options{Seed: r.seed, Shards: shards}) })
	r.tr.in("core.start_s", f.Start)
	return f
}

// discover advances the fabric in 5 ms virtual slices until every
// switch has resolved its location, and returns whether it did within
// the limit.
func discover(r *rep, f *core.Fabric, limit time.Duration) bool {
	r.tr.begin("core.discover_s")
	defer r.tr.end()
	deadline := f.Dom.Now() + limit
	for f.Dom.Now() < deadline {
		r.runUntil(f.Dom, f.Dom.Now()+5*time.Millisecond)
		if f.AllResolved() {
			return true
		}
	}
	return false
}

// checkDiscovery counts the switches whose discovered location
// disagrees with the blueprint. The level is checked switch by switch;
// pod numbering and edge positions are only meaningful per pod, so a
// failure of core.CheckDiscovery on those counts as one switch.
func checkDiscovery(r *rep, f *core.Fabric) {
	want := map[topo.Level]uint8{
		topo.Edge:        ctrlmsg.LevelEdge,
		topo.Aggregation: ctrlmsg.LevelAggregation,
		topo.Core:        ctrlmsg.LevelCore,
	}
	var wrong int64
	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		if !sw.Resolved() || sw.Loc().Level != want[f.Spec.Nodes[id].Level] {
			wrong++
		}
	}
	r.attempted += int64(len(f.Spec.Switches()))
	if wrong > 0 {
		r.fail(wrong, "%d switches unresolved or at the wrong level", wrong)
	}
	r.tr.begin("core.check_s")
	err := f.CheckDiscovery()
	r.tr.end()
	if err != nil && wrong == 0 {
		r.fail(1, "discovery disagrees with the blueprint: %v", err)
	}
}

// bootState is a built and started fabric that has not run yet.
type bootState struct {
	f *core.Fabric
}

func (s *bootState) counts() map[string]float64 { return fabricCounts(s.f) }

// timed is cold boot through location discovery.
func (s *bootState) timed(r *rep) {
	if !discover(r, s.f, 10*time.Second) {
		r.fail(0, "discovery incomplete after 10 s virtual")
	}
}

func (s *bootState) check(r *rep) {
	checkDiscovery(r, s.f)
	fabricGauges(s.f, r)
	r.layer["core.discovery_virtual_ms"] = float64(s.f.Dom.Now()) / float64(time.Millisecond)
	r.digest = digestOf(fabricOutcome(s.f, r))
}

// shardedWorkers is the worker count of the sharded boot: never more
// threads than cores.
func shardedWorkers() int { return min(runtime.GOMAXPROCS(0), 4) }

func bootWorkload(name, why string, k, shards, minReps int) *workload {
	return &workload{
		name: name, why: why, minReps: minReps,
		setup: func(r *rep) state {
			f := buildFabric(r, k, shards)
			if shards > 1 {
				f.Dom.SetWorkers(shardedWorkers())
			}
			return &bootState{f: f}
		},
	}
}

// discovered builds, discovers and verifies the fabric the two traffic
// workloads start from. It is set-up: the boot path is timed by the
// boot workloads.
func discovered(r *rep, k int) *core.Fabric {
	f := buildFabric(r, k, 0)
	saved := r.events
	if !discover(r, f, 5*time.Second) {
		panic("benchmark: discovery incomplete in set-up")
	}
	r.events = saved // set-up events are not part of the timed region
	if err := f.CheckDiscovery(); err != nil {
		panic(fmt.Sprintf("benchmark: discovery in set-up: %v", err))
	}
	return f
}
