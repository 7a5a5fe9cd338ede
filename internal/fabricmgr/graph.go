package fabricmgr

import (
	"cmp"
	"slices"

	"portland/internal/ctrlmsg"
)

// graph is the manager's indexed view of the fabric: every switch it
// has a location for, under a dense index, with the switch-to-switch
// links each one has reported. Route exclusions, multicast trees and
// the snapshot all read topology from here.
type graph struct {
	index map[ctrlmsg.SwitchID]int32
	ids   []ctrlmsg.SwitchID // by dense index
	nodes []node
	// order lists the dense indices by ascending switch ID: the
	// iteration order of everything whose sends are observable.
	order []int32

	// Per-level views, rebuilt from order by levels() after a location
	// changed: cores and edge switches fabric-wide, and each pod's
	// switches, all in switch-ID order.
	levelsDirty bool
	cores       []int32
	edgeIDs     []ctrlmsg.SwitchID
	pods        []podIndex // ascending pod number
}

// node is one switch: its last reported location, its links sorted by
// peer ID, and the route state the exclusion tiers keep for it
// (routes.go).
type node struct {
	loc   ctrlmsg.Loc
	marks uint8
	adj   []nbr
	// cut lists the destinations this switch cannot deliver to: a
	// core's severed descents (tier 1) or an aggregation switch's
	// remote destinations none of its cores reach (tier 2).
	cut []cut
	// excl is the exclusion set installed on the switch, in
	// (via, pod, pos) order.
	excl []exclKey
}

// nbr is one link as seen from the switch whose list holds it; the
// peer's list holds the mirror image. Ports are as narrow as the wire
// format's, and a link is healthy until an end says otherwise.
type nbr struct {
	idx      int32 // peer's dense index
	port     uint8 // this end's port; meaningful once selfSeen is set
	peerPort uint8 // the peer's; meaningful once peerSeen is set
	flags    uint8
}

// Link flags, from the holder's point of view.
const (
	selfSeen uint8 = 1 << iota // this end has reported its port
	peerSeen
	selfDown // this end reports the link down
	peerDown
)

func (n nbr) up() bool { return n.flags&(selfDown|peerDown) == 0 }

// ports returns the holder's and the peer's port, -1 for an end that
// has not reported yet.
func (n nbr) ports() (self, peer int) {
	self, peer = -1, -1
	if n.flags&selfSeen != 0 {
		self = int(n.port)
	}
	if n.flags&peerSeen != 0 {
		peer = int(n.peerPort)
	}
	return self, peer
}

// podIndex lists one pod's switches in switch-ID order, plus the
// pod's tier-3 state (routes.go).
type podIndex struct {
	pod   uint16
	edges []int32
	aggs  []int32
	loss  []lostLink
}

// loc returns the last location reported for id; the zero Loc
// (LevelUnknown) if the switch has never been located.
func (g *graph) loc(id ctrlmsg.SwitchID) ctrlmsg.Loc {
	if i, ok := g.index[id]; ok {
		return g.nodes[i].loc
	}
	return ctrlmsg.Loc{}
}

// add indexes a newly located switch.
func (g *graph) add(id ctrlmsg.SwitchID, loc ctrlmsg.Loc) int32 {
	i := int32(len(g.nodes))
	g.ids = append(g.ids, id)
	g.nodes = append(g.nodes, node{loc: loc})
	g.index[id] = i
	at, _ := slices.BinarySearchFunc(g.order, id, func(j int32, id ctrlmsg.SwitchID) int {
		return cmp.Compare(g.ids[j], id)
	})
	g.order = slices.Insert(g.order, at, i)
	return i
}

// searchAdj finds the switch with ID peer in a's list: its position,
// or where it would be inserted.
func (g *graph) searchAdj(a int32, peer ctrlmsg.SwitchID) (int, bool) {
	adj := g.nodes[a].adj
	lo, hi := 0, len(adj)
	for lo < hi {
		if mid := (lo + hi) / 2; g.ids[adj[mid].idx] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(adj) && g.ids[adj[lo].idx] == peer
}

// link returns the link from switch a to the switch with ID peer, as
// a sees it.
func (g *graph) link(a int32, peer ctrlmsg.SwitchID) (nbr, bool) {
	if at, ok := g.searchAdj(a, peer); ok {
		return g.nodes[a].adj[at], true
	}
	return nbr{}, false
}

// linkByID is link for callers that hold switch IDs.
func (g *graph) linkByID(a, b ctrlmsg.SwitchID) (nbr, bool) {
	if i, ok := g.index[a]; ok {
		return g.link(i, b)
	}
	return nbr{}, false
}

// up reports whether a link between a and b is known and healthy.
func (g *graph) up(a, b ctrlmsg.SwitchID) bool {
	l, ok := g.linkByID(a, b)
	return ok && l.up()
}

// report merges switch a's report about its link to b — the port it
// uses and whether it sees the link down — into both ends' lists,
// creating the link if it is new. It returns whether it was, and the
// link's health before and after.
func (g *graph) report(a, b int32, port uint8, down bool) (added, wasUp, isUp bool) {
	at, added := g.end(a, b)
	bt, _ := g.end(b, a)
	self, mirror := &g.nodes[a].adj[at], &g.nodes[b].adj[bt]
	wasUp = self.up()
	self.port, mirror.peerPort = port, port
	self.flags |= selfSeen
	mirror.flags |= peerSeen
	if down {
		self.flags |= selfDown
		mirror.flags |= peerDown
	} else {
		self.flags &^= selfDown
		mirror.flags &^= peerDown
	}
	return added, wasUp, self.up()
}

// end returns the position of b in a's list, inserting a fresh
// healthy record — and saying so — if a has not been linked to b
// before.
func (g *graph) end(a, b int32) (at int, added bool) {
	at, ok := g.searchAdj(a, g.ids[b])
	if !ok {
		g.nodes[a].adj = slices.Insert(g.nodes[a].adj, at, nbr{idx: b})
	}
	return at, !ok
}

// levels brings the per-level views up to date.
func (g *graph) levels() {
	if !g.levelsDirty {
		return
	}
	g.levelsDirty = false
	g.cores, g.edgeIDs = g.cores[:0], g.edgeIDs[:0]
	for i := range g.pods {
		p := &g.pods[i]
		p.edges, p.aggs = p.edges[:0], p.aggs[:0]
	}
	for _, i := range g.order {
		n := &g.nodes[i]
		switch n.loc.Level {
		case ctrlmsg.LevelEdge:
			p := g.podSlot(n.loc.Pod)
			p.edges = append(p.edges, i)
			g.edgeIDs = append(g.edgeIDs, g.ids[i])
		case ctrlmsg.LevelAggregation:
			p := g.podSlot(n.loc.Pod)
			p.aggs = append(p.aggs, i)
		case ctrlmsg.LevelCore:
			g.cores = append(g.cores, i)
		}
	}
}

func searchPods(pods []podIndex, pod uint16) (int, bool) {
	return slices.BinarySearchFunc(pods, pod, func(p podIndex, pod uint16) int { return cmp.Compare(p.pod, pod) })
}

// podSlot returns pod's index entry, creating it if needed.
func (g *graph) podSlot(pod uint16) *podIndex {
	at, ok := searchPods(g.pods, pod)
	if !ok {
		g.pods = slices.Insert(g.pods, at, podIndex{pod: pod})
	}
	return &g.pods[at]
}

// pod returns pod's index entry, nil if no switch ever reported that
// pod. Valid until the next levels() rebuild.
func (g *graph) pod(pod uint16) *podIndex {
	if at, ok := searchPods(g.pods, pod); ok {
		return &g.pods[at]
	}
	return nil
}
