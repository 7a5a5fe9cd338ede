package faults

import (
	"testing"
	"time"

	"portland/internal/core"
	"portland/internal/topo"
)

func build(t *testing.T) *core.Fabric {
	t.Helper()
	f, err := core.NewFatTree(4, core.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSwitchLinksExcludeHosts(t *testing.T) {
	f := build(t)
	links := SwitchLinks(f.Spec)
	// k=4: 48 total links, 16 host links → 32 switch links.
	if len(links) != 32 {
		t.Fatalf("switch links %d, want 32", len(links))
	}
	for _, i := range links {
		l := f.Spec.Links[i]
		if f.Spec.Nodes[l.A.Node].Level == topo.Host || f.Spec.Nodes[l.B.Node].Level == topo.Host {
			t.Fatal("host link included")
		}
	}
}

func TestRoutableDetectsUpDownOnlyPaths(t *testing.T) {
	f := build(t)
	if !Routable(f, nil) {
		t.Fatal("healthy fabric must be routable")
	}
	// Cut edge-p0-s0 off from agg-p0-s0: still routable via s1.
	l1, _ := f.LinkBetween("edge-p0-s0", "agg-p0-s0")
	if !Routable(f, []int{l1}) {
		t.Fatal("single edge-agg failure must stay routable")
	}
	// Cut it off from both aggs: unreachable.
	l2, _ := f.LinkBetween("edge-p0-s0", "agg-p0-s1")
	if Routable(f, []int{l1, l2}) {
		t.Fatal("edge with no uplinks reported routable")
	}
	// The classic non-graph case: graph stays connected but the only
	// path is down-up-down. Kill agg-p0-s0's core links AND
	// edge-p0-s0's link to agg-p0-s1: pod-0 position 0 keeps a path
	// E→agg-p0-s0 (alive) but that agg has no cores; graph-wise E can
	// reach the world via agg-p0-s0→edge-p0-s1→agg-p0-s1, which the
	// fat-tree forwarding rules forbid.
	c1, _ := f.LinkBetween("agg-p0-s0", "core-0")
	c2, _ := f.LinkBetween("agg-p0-s0", "core-1")
	cut := []int{l2, c1, c2}
	if connected(f, cut) != true {
		t.Fatal("test premise broken: graph should stay connected")
	}
	if Routable(f, cut) {
		t.Fatal("down-up-down-only reachability must not count as routable")
	}
}

func TestPickConnectedRespectsRoutability(t *testing.T) {
	f := build(t)
	for n := 1; n <= 6; n++ {
		links, ok := PickConnected(f.Rand(), f, n)
		if !ok {
			t.Fatalf("no pick for n=%d", n)
		}
		if len(links) != n {
			t.Fatalf("picked %d links, want %d", len(links), n)
		}
		if !Routable(f, links) {
			t.Fatalf("pick %v breaks routability", links)
		}
		seen := map[int]bool{}
		for _, l := range links {
			if seen[l] {
				t.Fatal("duplicate link in pick")
			}
			seen[l] = true
		}
	}
}

func TestPickConnectedImpossible(t *testing.T) {
	f := build(t)
	if _, ok := PickConnected(f.Rand(), f, 1000); ok {
		t.Fatal("impossible request satisfied")
	}
}

func TestPickConnectedExhaustsRejectionSampling(t *testing.T) {
	f := build(t)
	// 30 of the 32 switch links is a feasible *count* but can never
	// preserve routability at k=4, so every sample is rejected and
	// the sampler must give up with ok=false — not panic, not loop.
	if _, ok := PickConnected(f.Rand(), f, 30); ok {
		t.Fatal("routability-breaking pick accepted")
	}
}

func TestScheduleFailsAndRecovers(t *testing.T) {
	f := build(t)
	li, ok := f.LinkBetween("agg-p0-s0", "core-0")
	if !ok {
		t.Fatal("no agg-core link")
	}
	var sw topo.NodeID = -1
	for _, n := range f.Spec.Nodes {
		if n.Name == "agg-p1-s0" {
			sw = n.ID
		}
	}
	if sw < 0 {
		t.Fatal("agg-p1-s0 not in blueprint")
	}
	base := f.Now()
	var failedAt, recoveredAt time.Duration
	Schedule{Events: []Event{{
		At:        100 * time.Millisecond,
		Duration:  200 * time.Millisecond,
		Links:     []int{li},
		Switches:  []topo.NodeID{sw},
		OnFail:    func() { failedAt = f.Now() },
		OnRecover: func() { recoveredAt = f.Now() },
	}}}.Apply(f)

	f.RunFor(150 * time.Millisecond)
	if f.Links[li].Up() {
		t.Fatal("link up after scheduled failure")
	}
	if !f.Switches[sw].Failed() {
		t.Fatal("switch alive after scheduled crash")
	}
	f.RunFor(200 * time.Millisecond)
	if !f.Links[li].Up() {
		t.Fatal("link down after scheduled recovery")
	}
	if f.Switches[sw].Failed() {
		t.Fatal("switch dead after scheduled recovery")
	}
	if failedAt != base+100*time.Millisecond || recoveredAt != base+300*time.Millisecond {
		t.Fatalf("hooks at %v/%v, want %v/%v", failedAt, recoveredAt,
			base+100*time.Millisecond, base+300*time.Millisecond)
	}
}

func TestScheduleManagerOutage(t *testing.T) {
	f := build(t)
	var restarted bool
	Schedule{Events: []Event{{
		At:       50 * time.Millisecond,
		Duration: 100 * time.Millisecond,
		Manager:  true,
		OnRecover: func() {
			restarted = true
			// f.Manager is already the fresh instance here.
			f.Manager.SetOnSyncDone(func(uint32) {})
		},
	}}}.Apply(f)
	f.RunFor(100 * time.Millisecond)
	if f.ManagerAlive() {
		t.Fatal("manager alive mid-outage")
	}
	f.RunFor(200 * time.Millisecond)
	if !restarted || f.ManagerAlive() != true {
		t.Fatal("manager not restarted by schedule")
	}
	if f.Manager.SyncPending() != 0 {
		t.Fatalf("resync incomplete: %d pending", f.Manager.SyncPending())
	}
}

func TestFailRestoreAll(t *testing.T) {
	f := build(t)
	links := []int{SwitchLinks(f.Spec)[0], SwitchLinks(f.Spec)[5]}
	failAll(f, links)
	for _, i := range links {
		if f.Links[i].Up() {
			t.Fatal("link still up")
		}
	}
	restoreAll(f, links)
	for _, i := range links {
		if !f.Links[i].Up() {
			t.Fatal("link still down")
		}
	}
}

// connected reports whether all hosts remain mutually reachable when
// the given extra links are removed (in addition to links already
// down in the fabric): plain graph connectivity, the contrast oracle
// for Routable's up-then-down constraint.
func connected(f *core.Fabric, extraDown []int) bool {
	down := make(map[int]bool, len(extraDown))
	for _, i := range extraDown {
		down[i] = true
	}
	adj := make(map[topo.NodeID][]topo.NodeID)
	for i, l := range f.Spec.Links {
		if down[i] || !f.Links[i].Up() {
			continue
		}
		adj[l.A.Node] = append(adj[l.A.Node], l.B.Node)
		adj[l.B.Node] = append(adj[l.B.Node], l.A.Node)
	}
	hosts := f.Spec.Hosts()
	if len(hosts) == 0 {
		return true
	}
	seen := make(map[topo.NodeID]bool)
	queue := []topo.NodeID{hosts[0]}
	seen[hosts[0]] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for _, h := range hosts {
		if !seen[h] {
			return false
		}
	}
	return true
}

// failAll takes the given links down.
func failAll(f *core.Fabric, links []int) {
	for _, i := range links {
		f.FailLink(i)
	}
}

// restoreAll brings the given links back.
func restoreAll(f *core.Fabric, links []int) {
	for _, i := range links {
		f.RestoreLink(i)
	}
}
