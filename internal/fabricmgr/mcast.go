package fabricmgr

import (
	"sort"

	"portland/internal/ctrlmsg"
	"portland/internal/pmac"
)

// recomputeGroups reinstalls every multicast tree; called after
// topology changes (paper §3.6: "the fabric manager recalculates the
// multicast tree and installs new forwarding state").
func (m *Manager) recomputeGroups() {
	if len(m.groups) == 0 {
		return
	}
	gids := make([]uint32, 0, len(m.groups))
	for id := range m.groups {
		gids = append(gids, id)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, id := range gids {
		m.installGroup(id, m.groups[id])
	}
}

// installGroup computes the group's forwarding tree and pushes the
// per-switch deltas.
//
// Tree shape: one rendezvous core C (chosen by group hash among the
// cores that can currently reach every involved pod), one designated
// aggregation switch per involved pod on a live path from C, and the
// involved edge switches. Each switch's entry is the set of tree
// ports; replication excludes the arrival port, so the same state
// serves any sender on the tree.
func (m *Manager) installGroup(gid uint32, g *group) {
	desired := m.computeTree(gid, g)

	// Push deltas, removals first.
	var ids []ctrlmsg.SwitchID
	for id := range g.installed {
		ids = append(ids, id)
	}
	for id := range desired {
		if _, ok := g.installed[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		want := desired[id]
		have := g.installed[id]
		if equalPorts(want, have) {
			continue
		}
		m.Stats.McastInstalls++
		m.send(id, ctrlmsg.McastInstall{Group: gid, OutPorts: want})
	}
	g.installed = desired
}

func equalPorts(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// computeTree returns switch → sorted output ports for the group.
func (m *Manager) computeTree(gid uint32, g *group) map[ctrlmsg.SwitchID][]uint8 {
	desired := make(map[ctrlmsg.SwitchID][]uint8)
	if len(g.members) == 0 {
		return desired
	}

	// Involved edges and the host ports behind them.
	hostPorts := make(map[ctrlmsg.SwitchID]map[uint8]bool) // edge -> ports
	pods := make(map[uint16][]ctrlmsg.SwitchID)            // pod -> involved edges
	for addr, mem := range g.members {
		hp := hostPorts[mem.edge]
		if hp == nil {
			hp = make(map[uint8]bool)
			hostPorts[mem.edge] = hp
			pod := m.g.loc(mem.edge).Pod
			pods[pod] = append(pods[pod], mem.edge)
		}
		// Receivers get a delivery port; pure sources need only the
		// fabric legs (replication excludes the arrival port, so the
		// sender never hears its own frames back).
		if !mem.src {
			hp[pmac.FromAddr(addr).Port] = true
		}
	}
	for _, es := range pods {
		sort.Slice(es, func(i, j int) bool { return es[i] < es[j] })
	}

	if len(pods) == 0 {
		return desired
	}

	// Single-edge group: no fabric legs needed.
	if len(hostPorts) == 1 {
		for e, hp := range hostPorts {
			desired[e] = sortedPorts(hp)
		}
		return desired
	}

	m.g.levels()
	singlePod := len(pods) == 1

	// For a single-pod group no core is needed: one aggregation
	// switch in the pod suffices.
	if singlePod {
		var pod uint16
		var edges []ctrlmsg.SwitchID
		for p, es := range pods {
			pod, edges = p, es
		}
		agg, ok := m.pickPodAgg(pod, edges)
		if !ok {
			return desired // no live aggregation path; group dark
		}
		m.addTreeLegs(desired, agg, edges, hostPorts)
		return desired
	}

	// Candidate cores in deterministic hash-rotated order.
	cores := m.g.cores
	if len(cores) == 0 {
		return desired
	}
	start := int(gid) % len(cores)
	for i := 0; i < len(cores); i++ {
		c := cores[(start+i)%len(cores)]
		aggOf := make(map[uint16]ctrlmsg.SwitchID)
		ok := true
		for pod, edges := range pods {
			agg, found := m.pickPodAggViaCore(c, pod, edges)
			if !found {
				ok = false
				break
			}
			aggOf[pod] = agg
		}
		if !ok {
			continue
		}
		// Install core ports.
		cports := make(map[uint8]bool)
		podsSorted := make([]uint16, 0, len(aggOf))
		for pod := range aggOf {
			podsSorted = append(podsSorted, pod)
		}
		sort.Slice(podsSorted, func(a, b int) bool { return podsSorted[a] < podsSorted[b] })
		for _, pod := range podsSorted {
			agg := aggOf[pod]
			l, _ := m.g.link(c, agg)
			downlink, uplink := l.ports()
			cports[uint8(downlink)] = true
			m.addTreeLegs(desired, agg, pods[pod], hostPorts)
			// Aggregation's uplink to the core.
			desired[agg] = append(desired[agg], uint8(uplink))
		}
		desired[m.g.ids[c]] = sortedPorts(cports)
		// Normalize aggregation port lists.
		for id, ports := range desired {
			desired[id] = dedupSorted(ports)
		}
		return desired
	}
	return desired // no feasible core: group dark until recovery
}

// pickPodAgg returns the lowest aggregation switch in pod with live
// links to every involved edge.
func (m *Manager) pickPodAgg(pod uint16, edges []ctrlmsg.SwitchID) (ctrlmsg.SwitchID, bool) {
	if p := m.g.pod(pod); p != nil {
		for _, i := range p.aggs {
			if a := m.g.ids[i]; m.aggServes(a, edges) {
				return a, true
			}
		}
	}
	return 0, false
}

// pickPodAggViaCore additionally requires a live link from core c.
func (m *Manager) pickPodAggViaCore(c int32, pod uint16, edges []ctrlmsg.SwitchID) (ctrlmsg.SwitchID, bool) {
	for _, l := range m.g.nodes[c].adj {
		a := m.g.nodes[l.idx].loc
		if a.Level != ctrlmsg.LevelAggregation || a.Pod != pod || !l.up() {
			continue
		}
		if peer := m.g.ids[l.idx]; m.aggServes(peer, edges) {
			return peer, true
		}
	}
	return 0, false
}

func (m *Manager) aggServes(a ctrlmsg.SwitchID, edges []ctrlmsg.SwitchID) bool {
	for _, e := range edges {
		if !m.g.up(a, e) {
			return false
		}
	}
	return true
}

// addTreeLegs installs the agg->edge legs and edge entries.
func (m *Manager) addTreeLegs(desired map[ctrlmsg.SwitchID][]uint8, agg ctrlmsg.SwitchID, edges []ctrlmsg.SwitchID, hostPorts map[ctrlmsg.SwitchID]map[uint8]bool) {
	for _, e := range edges {
		l, _ := m.g.linkByID(agg, e)
		downlink, uplink := l.ports()
		desired[agg] = append(desired[agg], uint8(downlink))
		ports := make(map[uint8]bool)
		for p := range hostPorts[e] {
			ports[p] = true
		}
		ports[uint8(uplink)] = true // uplink for local senders
		desired[e] = dedupSorted(append(desired[e], sortedPorts(ports)...))
	}
	desired[agg] = dedupSorted(desired[agg])
}

func sortedPorts(set map[uint8]bool) []uint8 {
	out := make([]uint8, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func dedupSorted(v []uint8) []uint8 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	out := v[:0]
	for i, p := range v {
		if i == 0 || p != v[i-1] {
			out = append(out, p)
		}
	}
	return out
}
