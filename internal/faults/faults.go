// Package faults injects failures into a fabric the way the paper's
// evaluation does: random switch-to-switch link failures (and
// recoveries), constrained so the network stays connected — the
// paper measures convergence, which presumes a surviving path.
package faults

import (
	"math/rand/v2"

	"portland/internal/core"
	"portland/internal/topo"
)

// SwitchLinks returns the indices of blueprint links whose two ends are
// switches (host links are not failed: the paper treats host NIC
// failure as an application-layer concern).
func SwitchLinks(spec *topo.Spec) []int {
	var out []int
	for i, l := range spec.Links {
		if spec.Nodes[l.A.Node].Level != topo.Host && spec.Nodes[l.B.Node].Level != topo.Host {
			out = append(out, i)
		}
	}
	return out
}

// PickConnected samples n distinct switch-link indices whose joint
// removal keeps every host pair fat-tree-routable. It never panics:
// if n exceeds the live switch links, or rejection sampling fails to
// find a routable combination after many attempts, it returns
// ok=false and the caller decides how to degrade.
func PickConnected(r *rand.Rand, f *core.Fabric, n int) ([]int, bool) {
	cand := SwitchLinks(f.Spec)
	// Exclude links already down.
	var avail []int
	for _, i := range cand {
		if f.Links[i].Up() {
			avail = append(avail, i)
		}
	}
	if n > len(avail) {
		return nil, false
	}
	for attempt := 0; attempt < 200; attempt++ {
		perm := r.Perm(len(avail))
		pick := make([]int, n)
		for i := 0; i < n; i++ {
			pick[i] = avail[perm[i]]
		}
		if Routable(f, pick) {
			return pick, true
		}
	}
	return nil, false
}

// Routable reports whether every edge-switch pair remains reachable
// over a legal fat-tree (up then down) path when the given extra
// links are removed. Plain graph connectivity is not enough: PortLand
// forwarding never travels down-up-down, so the paper's "maintain
// connectivity" constraint is really a routability constraint.
func Routable(f *core.Fabric, extraDown []int) bool {
	down := make(map[int]bool, len(extraDown))
	for _, i := range extraDown {
		down[i] = true
	}
	up := func(i int) bool { return !down[i] && f.Links[i].Up() }

	// Adjacency restricted to live switch links.
	edgeAggs := make(map[topo.NodeID][]topo.NodeID) // edge -> live aggs
	aggCores := make(map[topo.NodeID][]topo.NodeID) // agg -> live cores
	coreAggs := make(map[topo.NodeID][]topo.NodeID) // core -> live aggs
	for i, l := range f.Spec.Links {
		if !up(i) {
			continue
		}
		a, b := f.Spec.Nodes[l.A.Node], f.Spec.Nodes[l.B.Node]
		if b.Level == topo.Edge || b.Level == topo.Aggregation && a.Level == topo.Core {
			a, b = b, a
		}
		switch {
		case a.Level == topo.Edge && b.Level == topo.Aggregation:
			edgeAggs[a.ID] = append(edgeAggs[a.ID], b.ID)
		case a.Level == topo.Aggregation && b.Level == topo.Core:
			aggCores[a.ID] = append(aggCores[a.ID], b.ID)
			coreAggs[b.ID] = append(coreAggs[b.ID], a.ID)
		}
	}
	// Cores reachable from an edge going up.
	coresOf := func(e topo.NodeID) map[topo.NodeID]bool {
		set := make(map[topo.NodeID]bool)
		for _, a := range edgeAggs[e] {
			for _, c := range aggCores[a] {
				set[c] = true
			}
		}
		return set
	}
	var edges []topo.NodeID
	pod := make(map[topo.NodeID]int)
	for _, n := range f.Spec.Nodes {
		if n.Level == topo.Edge {
			edges = append(edges, n.ID)
			pod[n.ID] = n.Pod
		}
	}
	for _, n := range f.Spec.Nodes {
		if n.Level == topo.Aggregation {
			pod[n.ID] = n.Pod
		}
	}
	aggSet := make(map[topo.NodeID]map[topo.NodeID]bool) // edge -> agg set
	for _, e := range edges {
		m := make(map[topo.NodeID]bool)
		for _, a := range edgeAggs[e] {
			m[a] = true
		}
		aggSet[e] = m
	}
	for _, e1 := range edges {
		cores := coresOf(e1)
		for _, e2 := range edges {
			if e1 == e2 {
				continue
			}
			if pod[e1] == pod[e2] {
				// Intra-pod: need one shared live aggregation switch.
				ok := false
				for _, a := range edgeAggs[e2] {
					if aggSet[e1][a] {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
				continue
			}
			// Inter-pod: some core reachable from e1 must reach a
			// live aggregation switch of e2's pod that serves e2.
			ok := false
		search:
			for _, a2 := range edgeAggs[e2] {
				for _, c := range aggCores[a2] {
					if cores[c] {
						ok = true
						break search
					}
				}
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// SwitchCandidates returns aggregation and core switch names whose
// crash does not isolate any host a priori (edge switches always
// isolate their hosts, so they are excluded — the paper's convergence
// metric presumes surviving paths).
func SwitchCandidates(f *core.Fabric) []topo.NodeID {
	var out []topo.NodeID
	for _, n := range f.Spec.Nodes {
		if n.Level == topo.Aggregation || n.Level == topo.Core {
			out = append(out, n.ID)
		}
	}
	return out
}

// linksOfSwitch returns the blueprint link indices incident to id.
func linksOfSwitch(f *core.Fabric, id topo.NodeID) []int {
	var out []int
	for i, l := range f.Spec.Links {
		if l.A.Node == id || l.B.Node == id {
			out = append(out, i)
		}
	}
	return out
}

// PickConnectedSwitches samples n distinct aggregation/core switches
// whose joint crash keeps every edge pair fat-tree-routable.
func PickConnectedSwitches(r *rand.Rand, f *core.Fabric, n int) ([]topo.NodeID, bool) {
	cand := SwitchCandidates(f)
	if n > len(cand) {
		return nil, false
	}
	for attempt := 0; attempt < 200; attempt++ {
		perm := r.Perm(len(cand))
		pick := make([]topo.NodeID, n)
		var down []int
		for i := 0; i < n; i++ {
			pick[i] = cand[perm[i]]
			down = append(down, linksOfSwitch(f, pick[i])...)
		}
		if Routable(f, down) {
			return pick, true
		}
	}
	return nil, false
}
