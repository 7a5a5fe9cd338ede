// Package fabricmgr implements PortLand's logically centralized fabric
// manager (paper §3): soft state only — an IP → PMAC registry fed by
// edge-switch registrations, a topology graph and fault matrix fed by
// switch port reports, and multicast group state fed by joins. It
// answers proxy-ARP queries, assigns pod numbers, reacts to faults by
// pushing targeted route exclusions to affected switches, computes
// multicast trees, and drives VM-migration invalidations.
//
// The manager is transport-agnostic: each switch connects over a
// ctrlnet.Conn (in-simulator pipe or real TCP), and all state can be
// rebuilt from the network, as the paper requires of soft state.
package fabricmgr

import (
	"net/netip"
	"sort"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/obs"
	"portland/internal/pmac"
)

// Counters tracks manager load for the scalability experiments.
type Counters struct {
	ARPQueries    int64
	ARPHits       int64
	ARPMisses     int64
	Registrations int64
	Migrations    int64
	FaultEvents   int64
	ExclusionsSet int64
	McastInstalls int64
	DHCPQueries   int64
	GrayReports   int64
	HostReplays   int64
	// ARPBatches counts batched punt messages served and
	// BatchedQueries the queries they carried (each also counted in
	// ARPQueries), so the amortization ratio is directly readable.
	ARPBatches     int64
	BatchedQueries int64
}

// Add accumulates o into c. This is the per-shard merge: a fabric
// running N registry shards reports the sum of every active shard's
// counters, and because each registration and ARP punt is routed to
// exactly one owning shard, summing never double-counts registry
// churn.
func (c *Counters) Add(o Counters) {
	c.ARPQueries += o.ARPQueries
	c.ARPHits += o.ARPHits
	c.ARPMisses += o.ARPMisses
	c.Registrations += o.Registrations
	c.Migrations += o.Migrations
	c.FaultEvents += o.FaultEvents
	c.ExclusionsSet += o.ExclusionsSet
	c.McastInstalls += o.McastInstalls
	c.DHCPQueries += o.DHCPQueries
	c.GrayReports += o.GrayReports
	c.HostReplays += o.HostReplays
	c.ARPBatches += o.ARPBatches
	c.BatchedQueries += o.BatchedQueries
}

type hostRecord struct {
	amac ether.Addr
	pmac ether.Addr
	edge ctrlmsg.SwitchID
}

type exclKey struct {
	via ctrlmsg.SwitchID
	pod uint16
	pos uint8
}

// exclDelta is one coalesced RouteExclude to flush: flushRoutes
// assembles the whole trigger's worth before sending any of them.
type exclDelta struct {
	target ctrlmsg.SwitchID
	key    exclKey
	add    bool
}

type member struct {
	edge ctrlmsg.SwitchID
	src  bool
}

type group struct {
	members map[ether.Addr]member // PMAC addr -> membership
	// installed output ports per switch for diffing.
	installed map[ctrlmsg.SwitchID][]uint8
}

// Manager is the fabric manager. It is not safe for concurrent use:
// its caller serializes every call. The simulator drives each manager
// from one goroutine at a time; cmd/fabricmgrd holds one mutex around
// every Session.Handle.
type Manager struct {
	conns map[ctrlmsg.SwitchID]ctrlnet.Conn

	ips map[netip.Addr]hostRecord

	// g is the topology graph and fault matrix: every located switch
	// and the links between them (graph.go), carrying the exclusion
	// tiers derived from it and what each switch has installed
	// (routes.go).
	g graph

	// downLinks counts graph edges currently down and installed the
	// exclusions switches currently hold (the sum of every node.excl):
	// both zero is the fast-path guard that keeps bootstrap (thousands
	// of adjacency reports, zero faults) from touching the tiers at all.
	downLinks int
	installed int
	// tiersLive records that the tiers may be non-empty; tiersStale
	// that a location changed since they were derived, so the next
	// sync rebuilds them.
	tiersLive, tiersStale bool

	// Work lists of one exclusion sync: the switches whose installed
	// set must be re-diffed, the aggregation switches whose tier 2 must
	// be re-evaluated, and the switches still owed a diff because they
	// had no session when one was due.
	dirty    []int32
	aggQueue []int32
	lagging  []int32

	// Reusable assembly buffers: the exclusion deltas of one trigger
	// are coalesced in deltaBuf and flushed in a single sorted pass,
	// so repeated fault churn allocates nothing but the messages it
	// sends once the buffers reach their high-water mark.
	deltaBuf []exclDelta
	keyBuf   []exclKey
	cutBuf   []cut
	idxBuf   []int32

	groups map[uint32]*group

	// DHCP leases: MAC -> assigned IP (idempotent re-discovery).
	leases    map[ether.Addr]netip.Addr
	nextLease uint32

	nextPod uint16

	// pods is the sticky pod memory: the last real (non-sentinel) pod
	// each edge switch was known to occupy. Unlike the graph's
	// locations, it survives the switch re-registering with PodUnknown
	// after a reboot, so a power-cycled pod gets its number — and thus
	// every member PMAC — back instead of a fresh one that stales every
	// remote ARP cache.
	pods map[ctrlmsg.SwitchID]uint16

	// shardID/shardN make this manager one replica of a
	// prefix-partitioned registry: it owns exactly the IPs with
	// ctrlmsg.ShardOfIP(ip, shardN) == shardID. Edge switches route
	// registrations and ARP punts to the owner, so the guard in
	// register is belt-and-braces; shardN <= 1 means unsharded.
	shardID, shardN int

	// Resync bookkeeping: the epoch being collected, how many
	// switches have yet to answer it, and the completion callback.
	// ARP misses that race the resync are parked in pendingARP and
	// re-served once the fabric has fully reported — a miss during
	// resync is indistinguishable from a host not yet replayed.
	syncEpoch   uint32
	syncWaiting int
	onSyncDone  func(epoch uint32)
	pendingARP  []ctrlmsg.ARPQuery

	// Stats is the manager's counter block.
	Stats Counters

	// jou receives the manager's control-plane events (ARP service,
	// registry churn, fault-matrix transitions, exclusion pushes,
	// resync progress). Nil is a no-op sink.
	jou *obs.Journal
}

// New returns an empty manager.
func New() *Manager {
	return &Manager{
		conns:  make(map[ctrlmsg.SwitchID]ctrlnet.Conn),
		g:      graph{index: make(map[ctrlmsg.SwitchID]int32)},
		ips:    make(map[netip.Addr]hostRecord),
		groups: make(map[uint32]*group),
		leases: make(map[ether.Addr]netip.Addr),
		pods:   make(map[ctrlmsg.SwitchID]uint16),
	}
}

// SetShard makes the manager responsible for registry shard id of n
// (0 of 1 = the classic unsharded manager). A shard ignores
// registrations for IPs it does not own; shard 0 additionally carries
// the route authority (faults, exclusions, pods, DHCP, multicast) in
// the fabric's wiring.
func (m *Manager) SetShard(id, n int) {
	m.shardID, m.shardN = id, n
}

// ownsIP reports whether this manager's shard owns ip.
func (m *Manager) ownsIP(ip netip.Addr) bool {
	return m.shardN <= 1 || ctrlmsg.ShardOfIP(ip, m.shardN) == m.shardID
}

// SetJournal directs the manager's control-plane events into j. Safe
// to leave unset, and safe to call before any session exists.
func (m *Manager) SetJournal(j *obs.Journal) {
	m.jou = j
}

// Session binds one switch's control connection to the manager.
// Create it, then use its Handle method as the connection's receive
// handler.
type Session struct {
	mgr  *Manager
	conn ctrlnet.Conn
	id   ctrlmsg.SwitchID
	have bool
}

// NewSession creates a session for a yet-unidentified switch; the
// first Hello on the channel binds it.
func (m *Manager) NewSession(conn ctrlnet.Conn) *Session {
	return &Session{mgr: m, conn: conn}
}

// Handle processes one message from this session's switch.
func (s *Session) Handle(msg ctrlmsg.Msg) {
	m := s.mgr
	if h, ok := msg.(ctrlmsg.Hello); ok {
		s.id = h.Switch
		s.have = true
		m.conns[h.Switch] = s.conn
		return
	}
	if !s.have {
		return // protocol violation: everything after Hello
	}
	switch v := msg.(type) {
	case ctrlmsg.LocationReport:
		m.noteLoc(v.Switch, v.Loc)
		m.notePod(v.Loc.Pod)
		if v.Loc.Level == ctrlmsg.LevelEdge && v.Loc.Pod < podSentinel {
			m.syncEdgeHosts(v.Switch, v.Loc)
		}
		m.syncRoutes(false, 0, 0)
	case ctrlmsg.PodRequest:
		// Sticky assignment: a switch the registry already places in a
		// pod (e.g. the position-0 edge of a whole pod that power-cycled
		// and restarted discovery) gets its old number back, so the rest
		// of the fabric's pod-addressed state stays meaningful.
		pod := m.nextPod
		if old, ok := m.pods[v.Switch]; ok {
			pod = old
		} else {
			m.nextPod++
		}
		m.jou.Record(obs.MgrPodAssign, uint64(v.Switch), uint64(pod), 0, 0)
		m.send(v.Switch, ctrlmsg.PodAssign{Pod: pod})
	case ctrlmsg.PMACRegister:
		m.register(v)
	case ctrlmsg.ARPQuery:
		m.handleARP(v)
	case ctrlmsg.ARPQueryBatch:
		m.handleARPBatch(v)
	case ctrlmsg.FaultNotify:
		m.handleFault(v)
	case ctrlmsg.McastJoin:
		m.handleJoin(v)
	case ctrlmsg.DHCPQuery:
		m.handleDHCP(v)
	case ctrlmsg.LeaseReport:
		m.noteLease(v.MAC, v.IP)
	case ctrlmsg.SyncDone:
		m.handleSyncDone(v)
	case ctrlmsg.GrayReport:
		m.Stats.GrayReports++
		q := uint64(0)
		if v.Quarantined {
			q = 1
		}
		m.jou.Record(obs.MgrGrayReport, uint64(v.Switch), uint64(v.Port), v.WireErrs, q)
	}
}

func (m *Manager) send(id ctrlmsg.SwitchID, msg ctrlmsg.Msg) {
	if c, ok := m.conns[id]; ok {
		_ = c.Send(msg)
	}
}

// ip4u32 packs an IPv4 address into a journal event argument.
func ip4u32(ip netip.Addr) uint64 {
	b := ip.As4()
	return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
}

// syncEdgeHosts runs when an edge switch reports a resolved location:
// every registry record homed on it is pushed back down
// (ctrlmsg.HostInstall), re-seeding the PMAC table a reboot wiped.
// Hosts that never transmit (pure receivers) would otherwise stay
// unreachable forever, because only ingress traffic re-populates the
// table. This is the §3.2 soft-state story run in reverse: the manager
// rebuilt its state from the switches once, now a switch rebuilds its
// state from the manager.
//
// Reboots can also change the location itself — position negotiation
// is randomized, so a power-cycled pod's edges may come back with
// their positions swapped. Every PMAC the edge issued is then stale
// fabric-wide. The registry rewrites to the new location (port and
// VMID survive; pod and position follow the report), and nothing else
// is owed: a frame still sent to an old PMAC lands on an edge that
// either has no host there or has one with a different IP, so that
// edge traps it and the sender is corrected from this registry.
func (m *Manager) syncEdgeHosts(id ctrlmsg.SwitchID, loc ctrlmsg.Loc) {
	ips := make([]netip.Addr, 0, len(m.ips))
	for ip, rec := range m.ips {
		if rec.edge == id {
			ips = append(ips, ip)
		}
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Less(ips[j]) })
	// A corrected PMAC must never collide with a live record's: two
	// hosts would then share one address.
	used := make(map[ether.Addr]struct{}, len(m.ips))
	for _, rec := range m.ips {
		used[rec.pmac] = struct{}{}
	}
	for _, ip := range ips {
		rec := m.ips[ip]
		want := pmac.FromAddr(rec.pmac)
		want.Pod, want.Position = loc.Pod, loc.Pos
		if want.Addr() != rec.pmac {
			for {
				if _, taken := used[want.Addr()]; !taken {
					break
				}
				want.VMID++
			}
			rec.pmac = want.Addr()
			used[rec.pmac] = struct{}{}
			m.ips[ip] = rec
		}
		m.Stats.HostReplays++
		m.jou.Record(obs.MgrHostReplay, uint64(id), ip4u32(ip), 0, 0)
		m.send(id, ctrlmsg.HostInstall{IP: ip, AMAC: rec.amac, PMAC: rec.pmac})
	}
}

// register installs or updates an IP mapping; a changed PMAC for a
// known IP is a VM migration (paper §3.4). A sharded manager drops
// registrations it does not own — the switch-side router already
// steers them, so an off-shard arrival is a misroute, not load.
func (m *Manager) register(v ctrlmsg.PMACRegister) {
	if !m.ownsIP(v.IP) {
		return
	}
	m.Stats.Registrations++
	prev, existed := m.ips[v.IP]
	if existed && prev.pmac == v.PMAC {
		return
	}
	m.ips[v.IP] = hostRecord{amac: v.AMAC, pmac: v.PMAC, edge: v.Switch}
	if !existed {
		m.jou.Record(obs.MgrRegister, uint64(v.Switch), ip4u32(v.IP), 0, 0)
		return
	}
	m.Stats.Migrations++
	m.jou.Record(obs.MgrMigrate, uint64(v.Switch), ip4u32(v.IP), uint64(prev.edge), 0)
	// The old edge must forget the mapping, so frames still sent to the
	// old PMAC trap there and their senders learn the new one.
	m.send(prev.edge, ctrlmsg.MigrationUpdate{IP: v.IP, OldPMAC: prev.pmac})
	// Multicast membership follows the VM.
	changed := false
	for _, g := range m.groups {
		if mem, ok := g.members[prev.pmac]; ok {
			delete(g.members, prev.pmac)
			g.members[v.PMAC] = member{edge: v.Switch, src: mem.src}
			changed = true
		}
	}
	if changed {
		m.recomputeGroups()
	}
}

// handleARP is the proxy-ARP service (paper §3.3): answer from the
// registry, or fall back to a broadcast on every edge switch's host
// ports.
func (m *Manager) handleARP(v ctrlmsg.ARPQuery) {
	m.Stats.ARPQueries++
	m.serveARP(v)
}

// serveARP answers one query from the registry, journaling it as a
// hit or a miss; a miss also floods (resolveARP says when a query
// parks instead).
func (m *Manager) serveARP(v ctrlmsg.ARPQuery) {
	a, parked := m.resolveARP(v)
	if parked {
		return
	}
	ev := obs.MgrARPHit
	if !a.Found {
		ev = obs.MgrARPMiss
	}
	m.jou.Record(ev, uint64(v.Switch), v.QueryID, ip4u32(v.TargetIP), 0)
	m.send(v.Switch, a)
	if !a.Found {
		m.floodARP(v)
	}
}

// handleARPBatch serves one batched punt. Hits and immediate misses
// are answered together in a single ARPAnswerBatch and the whole batch
// records one journal event — the amortization that makes batching pay
// at storm rates. Misses still flood individually (floods are rare and
// latency-critical), and queries that race a resync are parked exactly
// like unbatched ones, to be re-served one at a time on sync-done.
func (m *Manager) handleARPBatch(v ctrlmsg.ARPQueryBatch) {
	m.Stats.ARPBatches++
	m.Stats.BatchedQueries += int64(len(v.Queries))
	m.Stats.ARPQueries += int64(len(v.Queries))
	answers := make([]ctrlmsg.ARPAnswer, 0, len(v.Queries))
	hits, misses := 0, 0
	for _, q := range v.Queries {
		a, parked := m.resolveARP(q)
		switch {
		case parked:
			continue
		case a.Found:
			hits++
		default:
			misses++
			m.floodARP(q)
		}
		answers = append(answers, a)
	}
	m.jou.Record(obs.MgrARPBatch, uint64(v.Switch), uint64(len(v.Queries)), uint64(hits), uint64(misses))
	if len(answers) > 0 {
		m.send(v.Switch, ctrlmsg.ARPAnswerBatch{Answers: answers})
	}
}

// resolveARP decides one query against the registry and counts the
// verdict. A miss while a resync is outstanding is parked rather than
// answered: the target may simply not have been replayed yet, and a
// flood keyed off a half-built location map would go nowhere. Parked
// queries are re-served the moment the last switch reports
// (handleSyncDone) — which is what lets a fresh ARP issued the instant
// a manager restarts resolve within one resync round instead of a full
// host-side retry.
func (m *Manager) resolveARP(q ctrlmsg.ARPQuery) (a ctrlmsg.ARPAnswer, parked bool) {
	a = ctrlmsg.ARPAnswer{QueryID: q.QueryID, TargetIP: q.TargetIP}
	if rec, ok := m.ips[q.TargetIP]; ok {
		m.Stats.ARPHits++
		a.Found, a.PMAC = true, rec.pmac
		return a, false
	}
	if m.syncWaiting > 0 {
		m.jou.Record(obs.MgrARPParked, uint64(q.Switch), q.QueryID, ip4u32(q.TargetIP), 0)
		m.pendingARP = append(m.pendingARP, q)
		return a, true
	}
	m.Stats.ARPMisses++
	return a, false
}

// floodARP asks every edge switch to broadcast a missed query on its
// host ports. Floods go in ID order: under CtrlLoss every send draws
// from the engine RNG, so map-order iteration here would make the
// whole run's random stream depend on Go map layout. The target list
// is the cached edge set — one batch, no per-miss sort or filter.
func (m *Manager) floodARP(q ctrlmsg.ARPQuery) {
	flood := ctrlmsg.ARPFlood{QueryID: q.QueryID, SenderPMAC: q.SenderPMAC, SenderIP: q.SenderIP, TargetIP: q.TargetIP}
	m.g.levels()
	for _, id := range m.g.edgeIDs {
		m.send(id, flood)
	}
}

// handleFault merges a port report into the graph and fault matrix,
// then brings routing exclusions and multicast trees in line with it.
func (m *Manager) handleFault(v ctrlmsg.FaultNotify) {
	if v.PeerID == v.Switch {
		return
	}
	a := m.noteLoc(v.Switch, v.LocalLoc)
	m.notePod(v.LocalLoc.Pod)
	b, known := m.g.index[v.PeerID]
	if !known || v.PeerLoc.Level != ctrlmsg.LevelUnknown {
		b = m.noteLoc(v.PeerID, v.PeerLoc)
		m.notePod(v.PeerLoc.Pod)
	}
	added, wasUp, isUp := m.g.report(a, b, v.Port, v.Down)
	lo, hi := min(v.Switch, v.PeerID), max(v.Switch, v.PeerID)
	switch {
	case wasUp && !isUp:
		m.downLinks++
		m.jou.Record(obs.MgrLinkDown, uint64(lo), uint64(hi), 0, 0)
	case isUp && !wasUp:
		m.downLinks--
		m.jou.Record(obs.MgrLinkUp, uint64(lo), uint64(hi), 0, 0)
	}
	if v.Down {
		m.Stats.FaultEvents++
	}
	m.syncRoutes(added || wasUp != isUp, a, b)
	m.recomputeGroups()
}

// handleJoin updates group membership and reinstalls the tree.
func (m *Manager) handleJoin(v ctrlmsg.McastJoin) {
	g, ok := m.groups[v.Group]
	if !ok {
		g = &group{members: make(map[ether.Addr]member), installed: make(map[ctrlmsg.SwitchID][]uint8)}
		m.groups[v.Group] = g
	}
	if v.Join {
		g.members[v.HostPMAC] = member{edge: v.Switch, src: v.Source}
	} else {
		delete(g.members, v.HostPMAC)
	}
	m.installGroup(v.Group, g)
}

// handleDHCP leases an address: stable per client MAC, allocated
// from 10.200.0.0/16 (outside the static experiment range).
func (m *Manager) handleDHCP(v ctrlmsg.DHCPQuery) {
	m.Stats.DHCPQueries++
	ip, ok := m.leases[v.ClientMAC]
	if !ok {
		m.nextLease++
		n := m.nextLease
		ip = netip.AddrFrom4([4]byte{10, 200, byte(n >> 8), byte(n)})
		m.leases[v.ClientMAC] = ip
	}
	m.send(v.Switch, ctrlmsg.DHCPAnswer{QueryID: v.QueryID, XID: v.XID, IP: ip})
}

// Leases returns the number of DHCP leases handed out.
func (m *Manager) Leases() int {
	return len(m.leases)
}

// NumHosts returns the registry size.
func (m *Manager) NumHosts() int {
	return len(m.ips)
}

// Lookup resolves an IP from the registry (for tests and tools).
func (m *Manager) Lookup(ip netip.Addr) (ether.Addr, bool) {
	rec, ok := m.ips[ip]
	return rec.pmac, ok
}

// noteLoc is the single write path into the location table and
// returns the switch's index in the graph. A change — a new switch
// included — invalidates what is derived from locations: the
// per-level views and the exclusion tiers.
func (m *Manager) noteLoc(id ctrlmsg.SwitchID, loc ctrlmsg.Loc) int32 {
	i, known := m.g.index[id]
	if known && m.g.nodes[i].loc == loc {
		return i
	}
	if known {
		m.g.nodes[i].loc = loc
	} else {
		i = m.g.add(id, loc)
	}
	m.g.levelsDirty, m.tiersStale = true, true
	if loc.Level == ctrlmsg.LevelEdge && loc.Pod < podSentinel {
		m.pods[id] = loc.Pod
	}
	return i
}
