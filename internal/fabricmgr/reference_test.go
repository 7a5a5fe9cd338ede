package fabricmgr

// The differential oracle for routes.go: the full-fabric exclusion
// derivation the manager ran on every trigger before exclusion
// maintenance became incremental, kept verbatim (the planGlobalRef
// precedent in internal/sim) on the flat link map it was written for.
// refManager models just enough of the manager around it — sessions,
// locations, the link merge — to be fed the same message schedule as
// a real Manager; oracle_test.go compares the two after every message.
// The only edits to the moved code are the receiver type, the journal
// calls (dropped), send (recorded) and the name of the per-switch link
// scan (incident).

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"portland/internal/ctrlmsg"
)

// pairKey identifies a switch pair (at most one physical link between
// any two switches, as in the fat tree).
type pairKey struct {
	lo, hi ctrlmsg.SwitchID
}

func mkPair(a, b ctrlmsg.SwitchID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// linkState is one graph edge assembled from both endpoints' reports.
type linkState struct {
	lo, hi         ctrlmsg.SwitchID
	loPort, hiPort int // -1 until that side reports
	loUp, hiUp     bool
}

func (l *linkState) up() bool { return l.loUp && l.hiUp }

func (l *linkState) other(id ctrlmsg.SwitchID) ctrlmsg.SwitchID {
	if id == l.lo {
		return l.hi
	}
	return l.lo
}

// sentExclude is one RouteExclude the reference pushed, with the
// switch it went to.
type sentExclude struct {
	target ctrlmsg.SwitchID
	msg    ctrlmsg.RouteExclude
}

type refManager struct {
	conns map[ctrlmsg.SwitchID]bool
	locs  map[ctrlmsg.SwitchID]ctrlmsg.Loc
	links map[pairKey]*linkState
	excl  map[ctrlmsg.SwitchID]map[exclKey]bool

	idsSorted []ctrlmsg.SwitchID
	idsDirty  bool

	deltaBuf  []exclDelta
	keyBuf    []exclKey
	targetBuf []ctrlmsg.SwitchID

	downLinks     int
	nextPod       uint16
	exclusionsSet int64
	sent          []sentExclude
}

func newRefManager() *refManager {
	return &refManager{
		conns: make(map[ctrlmsg.SwitchID]bool),
		locs:  make(map[ctrlmsg.SwitchID]ctrlmsg.Loc),
		links: make(map[pairKey]*linkState),
		excl:  make(map[ctrlmsg.SwitchID]map[exclKey]bool),
	}
}

// handle feeds the reference one switch-to-manager message.
func (m *refManager) handle(msg ctrlmsg.Msg) {
	switch v := msg.(type) {
	case ctrlmsg.Hello:
		m.conns[v.Switch] = true
	case ctrlmsg.LocationReport:
		m.noteLoc(v.Switch, v.Loc)
		m.notePod(v.Loc.Pod)
		m.recomputeRoutes()
	case ctrlmsg.FaultNotify:
		m.handleFault(v)
	}
}

func (m *refManager) send(id ctrlmsg.SwitchID, msg ctrlmsg.RouteExclude) {
	if m.conns[id] {
		m.sent = append(m.sent, sentExclude{id, msg})
	}
}

func (m *refManager) notePod(pod uint16) {
	if pod < podSentinel && pod >= m.nextPod {
		m.nextPod = pod + 1
	}
}

func (m *refManager) noteLoc(id ctrlmsg.SwitchID, loc ctrlmsg.Loc) {
	if _, known := m.locs[id]; !known {
		m.idsDirty = true
	}
	m.locs[id] = loc
}

func (m *refManager) handleFault(v ctrlmsg.FaultNotify) {
	if v.PeerID == v.Switch {
		return
	}
	key := mkPair(v.Switch, v.PeerID)
	l, ok := m.links[key]
	if !ok {
		l = &linkState{lo: key.lo, hi: key.hi, loPort: -1, hiPort: -1, loUp: true, hiUp: true}
		m.links[key] = l
	}
	wasUp := l.up()
	if v.Switch == l.lo {
		l.loPort = int(v.Port)
		l.loUp = !v.Down
	} else {
		l.hiPort = int(v.Port)
		l.hiUp = !v.Down
	}
	if wasUp != l.up() {
		if l.up() {
			m.downLinks--
		} else {
			m.downLinks++
		}
	}
	m.noteLoc(v.Switch, v.LocalLoc)
	m.notePod(v.LocalLoc.Pod)
	if _, known := m.locs[v.PeerID]; !known || v.PeerLoc.Level != ctrlmsg.LevelUnknown {
		m.noteLoc(v.PeerID, v.PeerLoc)
		m.notePod(v.PeerLoc.Pod)
	}
	m.recomputeRoutes()
}

// registry is the part of a manager's state the oracle compares, as
// values in the order Manager.Snapshot prints it: the alloc, loc, link
// and excl lines, with ip and lease lines as counts (the oracle's
// schedules register no host). Multicast groups are left out.
type registry struct {
	nextPod     uint16
	nextLease   uint32
	ips, leases int
	locs        []locRow
	links       []linkRow
	excl        []exclRow
}

type locRow struct {
	id  ctrlmsg.SwitchID
	loc ctrlmsg.Loc
}

type linkRow struct {
	lo, hi         ctrlmsg.SwitchID
	loPort, hiPort int
	loUp, hiUp     bool
}

type exclRow struct {
	id ctrlmsg.SwitchID
	k  exclKey
}

func (r *registry) equal(o *registry) bool {
	return r.nextPod == o.nextPod && r.nextLease == o.nextLease && r.ips == o.ips && r.leases == o.leases &&
		slices.Equal(r.locs, o.locs) && slices.Equal(r.links, o.links) && slices.Equal(r.excl, o.excl)
}

// ofManager reads m's registry, reusing r's buffers.
func (r *registry) ofManager(m *Manager) {
	*r = registry{nextPod: m.nextPod, nextLease: m.nextLease, ips: len(m.ips), leases: len(m.leases),
		locs: r.locs[:0], links: r.links[:0], excl: r.excl[:0]}
	g := &m.g
	for _, i := range g.order {
		r.locs = append(r.locs, locRow{g.ids[i], g.nodes[i].loc})
	}
	for _, i := range g.order {
		for _, l := range g.nodes[i].adj {
			if id, peer := g.ids[i], g.ids[l.idx]; peer > id {
				port, peerPort := l.ports()
				r.links = append(r.links, linkRow{id, peer, port, peerPort, l.flags&selfDown == 0, l.flags&peerDown == 0})
			}
		}
	}
	for _, i := range g.order {
		for _, k := range g.nodes[i].excl {
			r.excl = append(r.excl, exclRow{g.ids[i], k})
		}
	}
}

// ofReference reads the reference's registry, reusing r's buffers.
func (r *registry) ofReference(m *refManager) {
	*r = registry{nextPod: m.nextPod, locs: r.locs[:0], links: r.links[:0], excl: r.excl[:0]}
	for _, id := range m.sortedSwitchIDs() {
		r.locs = append(r.locs, locRow{id, m.locs[id]})
	}
	for _, l := range m.links {
		r.links = append(r.links, linkRow{l.lo, l.hi, l.loPort, l.hiPort, l.loUp, l.hiUp})
	}
	slices.SortFunc(r.links, func(a, b linkRow) int { return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi)) })
	ids := make([]ctrlmsg.SwitchID, 0, len(m.excl))
	for id := range m.excl {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		for _, k := range m.sortedExclKeys(m.excl[id]) {
			r.excl = append(r.excl, exclRow{id, k})
		}
	}
}

// snapshot prints the reference's state as Manager.Snapshot prints
// the same state: the alloc, loc, link and excl lines.
func (m *refManager) snapshot() string {
	var r registry
	r.ofReference(m)
	var b strings.Builder
	fmt.Fprintf(&b, "alloc nextPod=%d nextLease=0\n", r.nextPod)
	for _, l := range r.locs {
		fmt.Fprintf(&b, "loc %d %s\n", l.id, l.loc)
	}
	for _, l := range r.links {
		fmt.Fprintf(&b, "link %d/%d ports=%d/%d up=%v/%v\n", l.lo, l.hi, l.loPort, l.hiPort, l.loUp, l.hiUp)
	}
	for _, e := range r.excl {
		fmt.Fprintf(&b, "excl %d via=%d dst=%d/%d\n", e.id, e.k.via, e.k.pod, e.k.pos)
	}
	return b.String()
}

// sortedSwitchIDs returns the known switches in ID order for
// deterministic iteration.
func (m *refManager) sortedSwitchIDs() []ctrlmsg.SwitchID {
	if m.idsDirty {
		m.idsSorted = m.idsSorted[:0]
		for id := range m.locs {
			m.idsSorted = append(m.idsSorted, id)
		}
		sort.Slice(m.idsSorted, func(i, j int) bool { return m.idsSorted[i] < m.idsSorted[j] })
		m.idsDirty = false
	}
	return m.idsSorted
}

// incident returns the graph edges incident to id, sorted by peer.
func (m *refManager) incident(id ctrlmsg.SwitchID) []*linkState {
	var out []*linkState
	for _, l := range m.links {
		if l.lo == id || l.hi == id {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].other(id) < out[j].other(id) })
	return out
}

func (m *refManager) level(id ctrlmsg.SwitchID) uint8 { return m.locs[id].Level }

// recomputeRoutes derives the full desired exclusion set from the
// fault matrix (paper §3.5) and pushes deltas to affected switches.
//
// Reachability cascades down the tree:
//
//  1. A core can deliver to pod P (or to edge position q in P) only
//     through its aggregation neighbors in P with live links; when
//     observed faults sever them all, every aggregation switch that
//     might pick that core for P (or (P,q)) is told to exclude it.
//  2. An aggregation switch in pod Q can deliver to a remote (P,q)
//     only through cores that can; when all of its cores are severed
//     (e.g. the whole core group's descent into P runs through one
//     failed aggregation switch), the edges below it are told to
//     exclude it for (P,q).
//  3. Within pod P, an aggregation switch that lost its link to the
//     edge at position q is excluded by P's other edges for (P,q).
//
// Exclusions are derived only from observed faults: unknown adjacency
// is assumed healthy, so an incompletely-discovered fabric never
// blackholes itself.
func (m *refManager) recomputeRoutes() {
	// Fast path: a healthy fault matrix implies an empty exclusion
	// set; if none are installed either, there is nothing to diff.
	// This is what keeps the manager O(1) under the storm of
	// adjacency reports a booting fabric produces.
	if m.downLinks == 0 && len(m.excl) == 0 {
		return
	}
	desired := make(map[ctrlmsg.SwitchID]map[exclKey]bool)
	add := func(target ctrlmsg.SwitchID, k exclKey) {
		s, ok := desired[target]
		if !ok {
			s = make(map[exclKey]bool)
			desired[target] = s
		}
		s[k] = true
	}

	ids := m.sortedSwitchIDs()

	// Indexes.
	podEdges := make(map[uint16][]ctrlmsg.SwitchID)
	var aggs, cores []ctrlmsg.SwitchID
	for _, id := range ids {
		switch m.level(id) {
		case ctrlmsg.LevelEdge:
			podEdges[m.locs[id].Pod] = append(podEdges[m.locs[id].Pod], id)
		case ctrlmsg.LevelAggregation:
			aggs = append(aggs, id)
		case ctrlmsg.LevelCore:
			cores = append(cores, id)
		}
	}

	linkState2 := func(a, b ctrlmsg.SwitchID) (up, known bool) {
		l, ok := m.links[mkPair(a, b)]
		if !ok {
			return false, false
		}
		return l.up(), true
	}
	// Per-switch sorted neighbor lists by level.
	neighborsOf := func(id ctrlmsg.SwitchID, level uint8) []ctrlmsg.SwitchID {
		var out []ctrlmsg.SwitchID
		for _, l := range m.incident(id) {
			n := l.other(id)
			if m.level(n) == level {
				out = append(out, n)
			}
		}
		return out
	}

	type podPos struct {
		pod uint16
		pos uint8
	}
	// Tier 1: core reachability.
	coreReachPod := make(map[ctrlmsg.SwitchID]map[uint16]bool)
	coreReachPos := make(map[ctrlmsg.SwitchID]map[podPos]bool)
	for _, c := range cores {
		aggsByPod := make(map[uint16][]ctrlmsg.SwitchID)
		for _, a := range neighborsOf(c, ctrlmsg.LevelAggregation) {
			aggsByPod[m.locs[a].Pod] = append(aggsByPod[m.locs[a].Pod], a)
		}
		coreReachPod[c] = make(map[uint16]bool)
		coreReachPos[c] = make(map[podPos]bool)
		for pod, as := range aggsByPod {
			anyUp := false
			for _, a := range as {
				if up, _ := linkState2(c, a); up {
					anyUp = true
					break
				}
			}
			coreReachPod[c][pod] = anyUp
			for _, e := range podEdges[pod] {
				q := m.locs[e].Pos
				reach := false
				for _, a := range as {
					cu, _ := linkState2(c, a)
					if !cu {
						continue
					}
					if up, known := linkState2(a, e); up || !known {
						reach = true
						break
					}
				}
				coreReachPos[c][podPos{pod, q}] = reach
			}
		}
	}
	// Push tier-1 exclusions to aggregation switches adjacent to each
	// core (pods other than the destination).
	for _, c := range cores {
		neigh := neighborsOf(c, ctrlmsg.LevelAggregation)
		for pod, ok := range coreReachPod[c] {
			if ok {
				continue
			}
			for _, n := range neigh {
				if m.locs[n].Pod != pod {
					add(n, exclKey{via: c, pod: pod, pos: ctrlmsg.AnyPos})
				}
			}
		}
		for pp, ok := range coreReachPos[c] {
			if ok || !coreReachPod[c][pp.pod] {
				continue // pod-wide exclusion already covers it
			}
			for _, n := range neigh {
				if m.locs[n].Pod != pp.pod {
					add(n, exclKey{via: c, pod: pp.pod, pos: pp.pos})
				}
			}
		}
	}

	// Unknown adjacency reads as reachable: a core we have never seen
	// linked into a pod must not be excluded (bootstrap safety).
	corePodReach := func(c ctrlmsg.SwitchID, pod uint16) bool {
		v, known := coreReachPod[c][pod]
		return v || !known
	}
	corePosReach := func(c ctrlmsg.SwitchID, pp podPos) bool {
		v, known := coreReachPos[c][pp]
		return v || !known
	}

	// Tier 2: aggregation reachability toward remote (pod, pos), and
	// the edge-level exclusions it implies.
	for _, x := range aggs {
		xPod := m.locs[x].Pod
		coreLinks := neighborsOf(x, ctrlmsg.LevelCore)
		if len(coreLinks) == 0 {
			continue // adjacency not yet discovered; assume healthy
		}
		edgesBelow := neighborsOf(x, ctrlmsg.LevelEdge)
		for pod, es := range podEdges {
			if pod == xPod {
				continue
			}
			podReach := false
			for _, c := range coreLinks {
				if up, _ := linkState2(x, c); up && corePodReach(c, pod) {
					podReach = true
					break
				}
			}
			if !podReach {
				for _, e := range edgesBelow {
					add(e, exclKey{via: x, pod: pod, pos: ctrlmsg.AnyPos})
				}
				continue
			}
			for _, dst := range es {
				q := m.locs[dst].Pos
				reach := false
				for _, c := range coreLinks {
					if up, _ := linkState2(x, c); up && corePosReach(c, podPos{pod, q}) {
						reach = true
						break
					}
				}
				if !reach {
					for _, e := range edgesBelow {
						add(e, exclKey{via: x, pod: pod, pos: q})
					}
				}
			}
		}
	}

	// Tier 3: intra-pod position exclusions.
	for _, a := range aggs {
		pod := m.locs[a].Pod
		for _, e := range podEdges[pod] {
			up, known := linkState2(a, e)
			if !known || up {
				continue
			}
			q := m.locs[e].Pos
			for _, x := range podEdges[pod] {
				if x != e {
					add(x, exclKey{via: a, pod: pod, pos: q})
				}
			}
		}
	}

	// Diff against installed state and coalesce the whole trigger's
	// deltas into one (target, key)-sorted batch, then flush it in a
	// single pass. The order — targets ascending, adds in key order,
	// then removes in key order — is observable under CtrlLoss (each
	// send draws from the RNG), so assembly preserves it exactly; the
	// batch and key-sort buffers are reused across triggers.
	targets := make(map[ctrlmsg.SwitchID]bool)
	for id := range desired {
		targets[id] = true
	}
	for id := range m.excl {
		targets[id] = true
	}
	tids := m.targetBuf[:0]
	for id := range targets {
		tids = append(tids, id)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	deltas := m.deltaBuf[:0]
	for _, id := range tids {
		if _, connected := m.conns[id]; !connected {
			// No session yet (its Hello is still in flight — a race a
			// restarted manager under control loss hits routinely): a
			// push would vanish into m.send's no-op, so keep the old
			// installed view. The switch's LocationReport re-runs this
			// recompute once the session binds, and the diff against
			// the preserved state emits the missed deltas then.
			if have := m.excl[id]; have != nil {
				desired[id] = have
			} else {
				delete(desired, id)
			}
			continue
		}
		want := desired[id]
		have := m.excl[id]
		for _, k := range m.sortedExclKeys(want) {
			if !have[k] {
				deltas = append(deltas, exclDelta{target: id, key: k, add: true})
			}
		}
		for _, k := range m.sortedExclKeys(have) {
			if !want[k] {
				deltas = append(deltas, exclDelta{target: id, key: k, add: false})
			}
		}
	}
	for _, d := range deltas {
		k := d.key
		if d.add {
			m.exclusionsSet++
		}
		m.send(d.target, ctrlmsg.RouteExclude{Add: d.add, Via: k.via, DstPod: k.pod, DstPos: k.pos})
	}
	m.targetBuf = tids[:0]
	m.deltaBuf = deltas[:0]
	m.excl = desired
}

// sortedExclKeys returns a set's keys ordered by (via, pod, pos) in
// the manager's reusable scratch buffer; the result is valid only
// until the next call.
func (m *refManager) sortedExclKeys(set map[exclKey]bool) []exclKey {
	ks := m.keyBuf[:0]
	for k := range set {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].via != ks[j].via {
			return ks[i].via < ks[j].via
		}
		if ks[i].pod != ks[j].pod {
			return ks[i].pod < ks[j].pod
		}
		return ks[i].pos < ks[j].pos
	})
	m.keyBuf = ks
	return ks
}
