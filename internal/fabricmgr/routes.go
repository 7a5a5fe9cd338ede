package fabricmgr

import (
	"cmp"
	"slices"

	"portland/internal/ctrlmsg"
	"portland/internal/obs"
)

// Route exclusions (paper §3.5) are derived from the fault matrix in
// three tiers, each kept as persistent state that a link flip updates
// only within its own cone:
//
//  1. A core can deliver to pod P (or to edge position q in P) only
//     through its aggregation neighbors in P with live links; when
//     observed faults sever them all, every aggregation switch that
//     might pick that core for P (or (P,q)) — its neighbors in other
//     pods — is told to exclude it. The severed destinations are the
//     core's node.cut.
//  2. An aggregation switch in pod Q can deliver to a remote P (or
//     (P,q)) only through cores that can; when all of its cores are
//     severed (e.g. the whole core group's descent into P runs through
//     one failed aggregation switch), the edges below it are told to
//     exclude it. Those destinations are the aggregation switch's
//     node.cut.
//  3. Within pod P, an aggregation switch that lost its link to the
//     edge at position q is excluded by P's other edges for (P,q). The
//     lost links are the pod's podIndex.loss.
//
// Exclusions are derived only from observed faults: unknown adjacency
// is assumed healthy, so an incompletely-discovered fabric never
// blackholes itself, and with no link down every tier is empty. A
// pod-wide cut stands for all of the pod's positions, which are then
// not listed. When two edges of a pod claim the same position (a pod
// mid-reboot), the one with the highest ID speaks for it.
//
// What a switch should hold is a pure function of this state
// (wantOf); what the manager believes it holds is node.excl. A
// trigger updates the tiers, marks the switches whose inputs moved,
// and syncRoutes diffs exactly those.

// cut is one destination a switch cannot deliver to: all of pod
// (wide, pos AnyPos) or the edge at position pos of it. Lists are
// kept in (pod, pos) order; a wide cut is its pod's only entry.
type cut struct {
	pod  uint16
	pos  uint8
	wide bool
}

// lostLink is a down link between an aggregation switch and an edge
// of its own pod.
type lostLink struct{ agg, edge int32 }

// Node marks.
const (
	markDirty uint8 = 1 << iota // installed exclusions to be re-diffed
	markAgg                     // tier 2 to be re-evaluated
)

func (m *Manager) markDirty(i int32) {
	if n := &m.g.nodes[i]; n.marks&markDirty == 0 {
		n.marks |= markDirty
		m.dirty = append(m.dirty, i)
	}
}

func (m *Manager) queueAgg(i int32) {
	if n := &m.g.nodes[i]; n.marks&markAgg == 0 {
		n.marks |= markAgg
		m.aggQueue = append(m.aggQueue, i)
	}
}

// syncRoutes brings exclusions in line with the graph after a trigger
// and pushes the deltas. flipped names the link whose health or
// existence the trigger changed, if it did.
func (m *Manager) syncRoutes(flipped bool, a, b int32) {
	g := &m.g
	// Fast path: a healthy fault matrix implies an empty exclusion
	// set; if none are installed either, there is nothing to diff.
	// This is what keeps the manager O(1) under the storm of
	// adjacency reports a booting fabric produces.
	if m.downLinks == 0 && m.installed == 0 {
		if m.tiersLive {
			m.resetTiers()
			m.tiersLive = false
		}
		for _, i := range m.dirty {
			g.nodes[i].marks = 0
		}
		m.dirty, m.lagging = m.dirty[:0], m.lagging[:0]
		m.tiersStale = false
		return
	}
	m.tiersLive = true
	g.levels()
	if m.tiersStale {
		// Locations moved under the tiers: rebuild them by replaying
		// every down link through the same update a flip takes.
		m.tiersStale = false
		m.resetTiers()
		for i := range g.nodes {
			if len(g.nodes[i].excl) > 0 {
				m.markDirty(int32(i))
			}
			for _, l := range g.nodes[i].adj {
				if l.idx > int32(i) && !l.up() {
					m.touch(int32(i), l.idx)
				}
			}
		}
	} else if flipped {
		m.touch(a, b)
	}
	for _, x := range m.aggQueue {
		g.nodes[x].marks &^= markAgg
		if m.evalAgg(x) {
			for _, l := range g.nodes[x].adj {
				if g.nodes[l.idx].loc.Level == ctrlmsg.LevelEdge {
					m.markDirty(l.idx)
				}
			}
		}
	}
	m.aggQueue = m.aggQueue[:0]
	m.flushRoutes()
}

// resetTiers empties all three tiers.
func (m *Manager) resetTiers() {
	g := &m.g
	for i := range g.nodes {
		g.nodes[i].cut = g.nodes[i].cut[:0]
	}
	for i := range g.pods {
		g.pods[i].loss = g.pods[i].loss[:0]
	}
}

// touch re-derives the tier state in the cone of link (u, v) after it
// flipped or first appeared. An edge–agg link reaches its pod's
// tier 3, the cores above the aggregation switch (their descent into
// this pod only) and, if one of those moved, the aggregation switches
// sharing it; an agg–core link reaches that core (its descent into
// the pod below) and the aggregation switches around it. Links
// between other levels carry no routes.
func (m *Manager) touch(u, v int32) {
	g := &m.g
	// A new link makes its ends targets of what the other end cuts.
	m.markDirty(u)
	m.markDirty(v)
	lu, lv := g.nodes[u].loc.Level, g.nodes[v].loc.Level
	if lu > lv {
		u, v, lu, lv = v, u, lv, lu
	}
	switch {
	case lu == ctrlmsg.LevelAggregation && lv == ctrlmsg.LevelCore:
		if m.evalCore(v, g.nodes[u].loc.Pod) {
			m.coreMoved(v)
		}
		m.queueAgg(u)
	case lu == ctrlmsg.LevelEdge && lv == ctrlmsg.LevelAggregation:
		e, a := u, v
		loc := g.nodes[e].loc
		if g.nodes[a].loc.Pod != loc.Pod {
			return
		}
		l, _ := g.link(a, g.ids[e])
		p := g.pod(loc.Pod)
		if setLoss(p, lostLink{a, e}, !l.up()) {
			for _, x := range p.edges {
				m.markDirty(x)
			}
		}
		for _, l := range g.nodes[a].adj {
			if g.nodes[l.idx].loc.Level == ctrlmsg.LevelCore && m.evalCore(l.idx, loc.Pod) {
				m.coreMoved(l.idx)
			}
		}
	}
}

// coreMoved follows a change of core c's cut list to the aggregation
// switches around it: each must be told (tier 1) and re-evaluated
// (tier 2).
func (m *Manager) coreMoved(c int32) {
	g := &m.g
	for _, l := range g.nodes[c].adj {
		if g.nodes[l.idx].loc.Level == ctrlmsg.LevelAggregation {
			m.markDirty(l.idx)
			m.queueAgg(l.idx)
		}
	}
}

// setLoss adds or removes l in p's lost links and reports whether
// that changed them.
func setLoss(p *podIndex, l lostLink, lost bool) bool {
	at := slices.Index(p.loss, l)
	if lost == (at >= 0) {
		return false
	}
	if lost {
		p.loss = append(p.loss, l)
	} else {
		p.loss = slices.Delete(p.loss, at, at+1)
	}
	return true
}

// evalCore re-derives tier 1 for core c's descent into pod and
// reports whether c's cut list changed.
func (m *Manager) evalCore(c int32, pod uint16) bool {
	g := &m.g
	// The aggregation switches through which c enters the pod.
	known := false
	ups := m.idxBuf[:0]
	for _, l := range g.nodes[c].adj {
		if a := g.nodes[l.idx].loc; a.Level == ctrlmsg.LevelAggregation && a.Pod == pod {
			known = true
			if l.up() {
				ups = append(ups, l.idx)
			}
		}
	}
	m.idxBuf = ups
	fresh := m.cutBuf[:0]
	if known && len(ups) == 0 {
		fresh = append(fresh, cut{pod: pod, pos: ctrlmsg.AnyPos, wide: true})
	} else if p := g.pod(pod); known && p != nil {
		// Highest ID first: the first edge seen at a position speaks
		// for it.
		var seen [256 / 64]uint64
		for i := len(p.edges) - 1; i >= 0; i-- {
			e := p.edges[i]
			q := g.nodes[e].loc.Pos
			if seen[q/64]&(1<<(q%64)) != 0 {
				continue
			}
			seen[q/64] |= 1 << (q % 64)
			reach := false
			for _, a := range ups {
				if l, ok := g.link(a, g.ids[e]); !ok || l.up() {
					reach = true
					break
				}
			}
			if !reach {
				fresh = append(fresh, cut{pod: pod, pos: q})
			}
		}
		slices.SortFunc(fresh, func(a, b cut) int { return cmp.Compare(a.pos, b.pos) })
	}
	m.cutBuf = fresh
	cuts := g.nodes[c].cut
	lo, hi := podCuts(cuts, pod)
	if slices.Equal(cuts[lo:hi], fresh) {
		return false
	}
	g.nodes[c].cut = slices.Replace(cuts, lo, hi, fresh...)
	return true
}

// podCuts returns the range of cuts that names pod.
func podCuts(cuts []cut, pod uint16) (lo, hi int) {
	for lo < len(cuts) && cuts[lo].pod < pod {
		lo++
	}
	hi = lo
	for hi < len(cuts) && cuts[hi].pod == pod {
		hi++
	}
	return lo, hi
}

// hasCut reports whether cuts covers (pod, pos): by a pod-wide entry,
// or — unless wide is asked for — by that position's own.
func hasCut(cuts []cut, pod uint16, pos uint8, wide bool) bool {
	lo, hi := podCuts(cuts, pod)
	if lo == hi {
		return false
	}
	if cuts[lo].wide {
		return true
	}
	if wide {
		return false
	}
	for _, c := range cuts[lo:hi] {
		if c.pos == pos {
			return true
		}
	}
	return false
}

// evalAgg re-derives tier 2 for aggregation switch x and reports
// whether its cut list changed. A destination is cut when no core x
// has a live link to can deliver to it, so only what x's first live
// core cannot reach needs checking against the others.
func (m *Manager) evalAgg(x int32) bool {
	g := &m.g
	n := &g.nodes[x]
	cores := 0
	ups := m.idxBuf[:0]
	if n.loc.Level == ctrlmsg.LevelAggregation {
		for _, l := range n.adj {
			if g.nodes[l.idx].loc.Level == ctrlmsg.LevelCore {
				cores++
				if l.up() {
					ups = append(ups, l.idx)
				}
			}
		}
	}
	m.idxBuf = ups
	allCut := func(pod uint16, pos uint8, wide bool) bool {
		for _, c := range ups {
			if !hasCut(g.nodes[c].cut, pod, pos, wide) {
				return false
			}
		}
		return true
	}
	fresh := m.cutBuf[:0]
	switch {
	case cores == 0:
		// Adjacency not yet discovered; assume healthy.
	case len(ups) == 0:
		for i := range g.pods {
			if p := &g.pods[i]; p.pod != n.loc.Pod && len(p.edges) > 0 {
				fresh = append(fresh, cut{pod: p.pod, pos: ctrlmsg.AnyPos, wide: true})
			}
		}
	default:
		first := g.nodes[ups[0]].cut
		for lo := 0; lo < len(first); {
			pod := first[lo].pod
			hi := lo
			for hi < len(first) && first[hi].pod == pod {
				hi++
			}
			cands := first[lo:hi]
			lo = hi
			if p := g.pod(pod); pod == n.loc.Pod || p == nil || len(p.edges) == 0 {
				continue
			}
			if allCut(pod, ctrlmsg.AnyPos, true) {
				fresh = append(fresh, cut{pod: pod, pos: ctrlmsg.AnyPos, wide: true})
				continue
			}
			if cands[0].wide {
				// The first core lost the whole pod; take the
				// positions from one that did not.
				for _, c := range ups {
					if l, h := podCuts(g.nodes[c].cut, pod); l == h || !g.nodes[c].cut[l].wide {
						cands = g.nodes[c].cut[l:h]
						break
					}
				}
			}
			for _, cand := range cands {
				if allCut(pod, cand.pos, false) {
					fresh = append(fresh, cut{pod: pod, pos: cand.pos})
				}
			}
		}
	}
	m.cutBuf = fresh
	if slices.Equal(n.cut, fresh) {
		return false
	}
	n.cut = append(n.cut[:0], fresh...)
	return true
}

// wantOf derives the exclusions switch t should hold, in
// (via, pod, pos) order, into the manager's key buffer; the result is
// valid only until the next call.
func (m *Manager) wantOf(t int32) []exclKey {
	g := &m.g
	n := &g.nodes[t]
	ks := m.keyBuf[:0]
	switch n.loc.Level {
	case ctrlmsg.LevelAggregation:
		// Tier 1: what the cores above cannot reach, own pod aside.
		for _, l := range n.adj {
			if c := &g.nodes[l.idx]; c.loc.Level == ctrlmsg.LevelCore {
				for _, ct := range c.cut {
					if ct.pod != n.loc.Pod {
						ks = append(ks, exclKey{via: g.ids[l.idx], pod: ct.pod, pos: ct.pos})
					}
				}
			}
		}
	case ctrlmsg.LevelEdge:
		// Tier 2: what the aggregation switches above cannot reach.
		for _, l := range n.adj {
			if x := &g.nodes[l.idx]; x.loc.Level == ctrlmsg.LevelAggregation {
				for _, ct := range x.cut {
					ks = append(ks, exclKey{via: g.ids[l.idx], pod: ct.pod, pos: ct.pos})
				}
			}
		}
		// Tier 3: the pod's aggregation switches that lost another
		// edge's position.
		if p := g.pod(n.loc.Pod); p != nil && len(p.loss) > 0 {
			for _, l := range p.loss {
				if l.edge != t {
					ks = append(ks, exclKey{via: g.ids[l.agg], pod: n.loc.Pod, pos: g.nodes[l.edge].loc.Pos})
				}
			}
			slices.SortFunc(ks, cmpExclKey)
			ks = slices.Compact(ks)
		}
	}
	m.keyBuf = ks
	return ks
}

func cmpExclKey(a, b exclKey) int {
	return cmp.Or(cmp.Compare(a.via, b.via), cmp.Compare(a.pod, b.pod), cmp.Compare(a.pos, b.pos))
}

// flushRoutes diffs every marked switch's installed exclusions against
// what it should hold, coalesces the whole trigger's deltas into one
// batch and sends it in a single pass. The order — targets ascending,
// adds in key order, then removes in key order — is observable under
// CtrlLoss (each send draws from the RNG), so assembly preserves it
// exactly; the batch and key buffers are reused across triggers.
func (m *Manager) flushRoutes() {
	g := &m.g
	targets := append(m.dirty, m.lagging...)
	m.lagging = m.lagging[:0]
	slices.SortFunc(targets, func(a, b int32) int { return cmp.Compare(g.ids[a], g.ids[b]) })
	deltas := m.deltaBuf[:0]
	for j, t := range targets {
		n := &g.nodes[t]
		if j > 0 && targets[j-1] == t {
			continue
		}
		n.marks &^= markDirty
		id := g.ids[t]
		if _, connected := m.conns[id]; !connected {
			// No session yet (its Hello is still in flight — a race a
			// restarted manager under control loss hits routinely): a
			// push would vanish into m.send's no-op, so keep the old
			// installed view and diff again on every later trigger;
			// the first one after the session binds (the switch's own
			// LocationReport at the latest) emits the missed deltas.
			m.lagging = append(m.lagging, t)
			continue
		}
		want, have := m.wantOf(t), n.excl
		before := len(deltas)
		for _, k := range want {
			if _, ok := slices.BinarySearchFunc(have, k, cmpExclKey); !ok {
				deltas = append(deltas, exclDelta{target: id, key: k, add: true})
			}
		}
		for _, k := range have {
			if _, ok := slices.BinarySearchFunc(want, k, cmpExclKey); !ok {
				deltas = append(deltas, exclDelta{target: id, key: k, add: false})
			}
		}
		if len(deltas) > before {
			m.installed += len(want) - len(have)
			n.excl = append(have[:0], want...)
		}
	}
	m.dirty = targets[:0]
	for _, d := range deltas {
		k := d.key
		if d.add {
			m.Stats.ExclusionsSet++
			m.jou.Record(obs.MgrExclPush, uint64(d.target), uint64(k.via), uint64(k.pod), uint64(k.pos))
		} else {
			m.jou.Record(obs.MgrExclClear, uint64(d.target), uint64(k.via), uint64(k.pod), uint64(k.pos))
		}
		m.send(d.target, ctrlmsg.RouteExclude{Add: d.add, Via: k.via, DstPod: k.pod, DstPos: k.pos})
	}
	m.deltaBuf = deltas[:0]
}
