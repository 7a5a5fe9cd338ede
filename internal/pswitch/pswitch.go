// Package pswitch implements the PortLand switch: an unconfigured
// fat-tree switch that discovers its location with LDP, assigns PMACs
// to directly connected hosts, intercepts and proxies ARP through the
// fabric manager, and forwards on the PMAC hierarchy with ECMP across
// live, non-excluded uplinks (paper §3).
//
// The same type serves as edge, aggregation and core switch; the role
// is whatever LDP discovers, exactly as the paper's deployment model
// requires ("switches begin with no configuration state").
package pswitch

import (
	"fmt"
	"net/netip"
	"time"

	"portland/internal/arppkt"
	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/flowtable"
	"portland/internal/graydetect"
	"portland/internal/ldp"
	"portland/internal/obs"
	"portland/internal/pmac"
	"portland/internal/sim"
)

// Counters aggregates a switch's dataplane statistics.
type Counters struct {
	FramesIn        int64
	FramesOut       int64
	Dropped         int64 // no route / filtered
	StaleTraps      int64 // local-prefix frames refused by the delivery rule (also in Dropped)
	Blackholed      int64 // had a route class but no live port
	ARPPunts        int64 // host ARP requests punted to the fabric manager
	ARPProxied      int64 // ARP replies synthesized from fabric-manager answers
	ARPFloods       int64 // fallback broadcasts on host ports
	IngressRewrites int64 // AMAC→PMAC
	EgressRewrites  int64 // PMAC→AMAC
	McastReplicas   int64
	GratuitousSent  int64 // unicast ARP corrections sent to stale senders (§3.4)
	DHCPPunts       int64 // host Discovers punted to the fabric manager
	DHCPProxied     int64 // Acks synthesized from manager answers
	ProbesSent      int64 // gray-detector probe requests transmitted
	ProbeReplies    int64 // probe requests answered (receiver side)
	EcmpDegrades    int64 // group-table admission failures (see resources.go)
}

// pendingARP is one query parked until the fabric manager answers:
// a host's ARP request, or a trap, whose answer corrects a stale
// sender (hostMAC is then the sender's PMAC, and hostPort unused).
type pendingARP struct {
	hostPort int
	hostMAC  ether.Addr
	trap     bool
	hostIP   netip.Addr
	targetIP netip.Addr
	at       time.Duration // punt time, for ARP-resolution latency
}

type pendingDHCPReq struct {
	hostPort  int
	clientMAC ether.Addr
	xid       uint32
}

type exclKey struct {
	via ctrlmsg.SwitchID
	pod uint16
	pos uint8
}

// Switch is one PortLand switch.
type Switch struct {
	eng    *sim.Proc
	id     ctrlmsg.SwitchID
	ldpCfg ldp.Config
	name   string
	links  []*sim.Link

	agent *ldp.Agent
	// ctrl holds one control channel per fabric-manager registry shard:
	// one element on an unsharded manager, none before SetControlShards.
	// Registration and ARP punts route by ctrlmsg.ShardOfIP; everything
	// route- or fault-related stays on shard 0, the route authority.
	ctrl []ctrlnet.Conn

	// Punt batching (off unless SetPuntBatch armed it): per-shard
	// buffers of pending ARP-miss punts, flushed as one ARPQueryBatch
	// per shard when the hold timer fires or a buffer fills.
	puntBatch time.Duration
	puntBuf   [][]ctrlmsg.ARPQuery
	puntTimer *sim.Timer
	puntArmed bool

	loc      ctrlmsg.Loc
	resolved bool

	table *pmac.Table // AMAC↔PMAC↔IP (edge role)

	pending     map[uint64]pendingARP
	pendingDHCP map[uint64]pendingDHCPReq
	nextQueryID uint64

	excl  map[exclKey]bool
	mcast map[uint32][]int
	flows *flowtable.Table

	// pool is the engine's frame free-list; the data path clones and
	// releases through it (see ether.FramePool for ownership rules).
	pool *ether.FramePool
	// ldpSrc is the switch's fixed LDP source address, precomputed so
	// the per-tick LDM fan-out fills pooled frames instead of
	// allocating one composite literal per port per interval.
	ldpSrc ether.Addr
	// cands caches candidate out-port sets per destination class,
	// validated against (agent.Version, exclEpoch); see candidates().
	cands map[candKey]*candSet
	// exclEpoch increments on every excl mutation, invalidating cands.
	exclEpoch uint64

	// Hardware resource envelope (resources.go). The zero Generation
	// keeps every table unbounded; resGroups/resMembers account the
	// ECMP group table and wild is the reserved fallback group that
	// destination classes share once admission fails.
	gen        Generation
	resGroups  int
	resMembers int
	wild       *candSet

	// Soft state kept for manager resync: DHCP leases this switch
	// proxied (client MAC → IP) and active group memberships punted
	// upward (value: source flag). Both replay on StateSyncRequest.
	leases map[ether.Addr]netip.Addr
	joins  map[joinKey]bool

	// Gray-failure detector (off unless SetDetector armed it): the
	// windowed decision logic, its sampling ticker, and per-port
	// counter snapshots. See detector.go.
	detCfg    graydetect.Config
	det       *graydetect.Detector
	detTicker *sim.Ticker
	detPorts  map[int]*detPortState

	failed bool

	// jou receives the switch's control-plane events (exclusion
	// churn, flow flushes, ARP resolutions, fail/recover/resync).
	// Nil is a no-op sink; the steady-state data path never records.
	jou *obs.Journal

	// Tap, if non-nil, observes every frame the switch receives
	// (egress=false) and transmits (egress=true). Used by the trace
	// tooling and the path tracer; nil costs nothing.
	Tap func(port int, f *ether.Frame, egress bool)

	// Stats is the switch's dataplane counter block.
	Stats Counters
}

// New builds a switch with the given burned-in ID and port count.
func New(eng *sim.Proc, id ctrlmsg.SwitchID, name string, ports int, cfg ldp.Config) *Switch {
	s := &Switch{
		eng:         eng,
		id:          id,
		name:        name,
		links:       make([]*sim.Link, ports),
		table:       pmac.NewTable(),
		pending:     make(map[uint64]pendingARP),
		pendingDHCP: make(map[uint64]pendingDHCPReq),
		excl:        make(map[exclKey]bool),
		mcast:       make(map[uint32][]int),
		leases:      make(map[ether.Addr]netip.Addr),
		joins:       make(map[joinKey]bool),
		pool:        eng.FramePool(),
		ldpSrc:      pmac.PMAC{Pod: 0, Position: 0, Port: 0, VMID: uint16(id)}.Addr(),
		cands:       make(map[candKey]*candSet),
	}
	s.flows = flowtable.New(eng.Now, 0)
	s.agent = ldp.New(eng, (*agentEnv)(s), cfg)
	return s
}

// agentEnv adapts Switch to ldp.Env without exporting the callbacks.
type agentEnv Switch

// Name implements sim.Node.
func (s *Switch) Name() string { return s.name }

// Attach implements sim.Node.
func (s *Switch) Attach(port int, l *sim.Link) { s.links[port] = l }

// SetControlShards wires the switch to a prefix-sharded fabric manager:
// conns[i] reaches registry shard i. A single-element slice is the
// unsharded fabric: every message goes to shard 0. Must be called
// before Start.
func (s *Switch) SetControlShards(conns []ctrlnet.Conn) { s.ctrl = conns }

// SetPuntBatch arms ARP punt batching: instead of one ARPQuery per
// host request, the switch holds misses for up to d and sends one
// ARPQueryBatch per manager shard. Zero (the default) keeps the
// immediate per-query path, byte-identical to prior behavior.
func (s *Switch) SetPuntBatch(d time.Duration) { s.puntBatch = d }

// numShards returns how many manager shards the switch is wired to.
func (s *Switch) numShards() int { return max(1, len(s.ctrl)) }

// SetJournal directs the switch's (and its LDP agent's) control-plane
// events into j. Safe to leave unset.
func (s *Switch) SetJournal(j *obs.Journal) {
	s.jou = j
	s.agent.SetJournal(j)
}

// flushFlows invalidates the flow table, journaling the flush when it
// actually discarded entries.
func (s *Switch) flushFlows() {
	if n := s.flows.InvalidateAll(); n > 0 {
		s.jou.Record(obs.FlowFlush, uint64(n), 0, 0, 0)
	}
}

// Start announces the switch to the fabric manager and begins
// location discovery.
func (s *Switch) Start() {
	s.sendCtrlAll(ctrlmsg.Hello{Switch: s.id})
	s.agent.Start()
	s.startDetector()
}

// Fail drops the switch out of the network: it stops speaking LDP,
// stops forwarding, and ignores everything it receives. Neighbors
// notice via missed LDMs, exactly as with a crashed switch.
func (s *Switch) Fail() {
	s.failed = true
	s.agent.Stop()
	s.stopDetector()
	// Buffered punts die with the switch, like any other soft state.
	s.puntArmed = false
	if s.puntTimer != nil {
		s.puntTimer.Stop()
	}
	for i := range s.puntBuf {
		s.puntBuf[i] = s.puntBuf[i][:0]
	}
	s.jou.Record(obs.SwitchFailed, 0, 0, 0, 0)
}

// Failed reports whether Fail was called.
func (s *Switch) Failed() bool { return s.failed }

// Recover reboots a failed switch: all discovered state is discarded
// (configuration-free switches hold nothing durable) and location
// discovery starts over, exactly as a replaced or power-cycled unit
// would behave in the paper's deployment model.
func (s *Switch) Recover() {
	if !s.failed {
		return
	}
	s.failed = false
	s.resolved = false
	s.loc = ctrlmsg.Loc{}
	s.table = pmac.NewTable()
	s.pending = make(map[uint64]pendingARP)
	s.pendingDHCP = make(map[uint64]pendingDHCPReq)
	s.excl = make(map[exclKey]bool)
	s.mcast = make(map[uint32][]int)
	s.leases = make(map[ether.Addr]netip.Addr)
	s.joins = make(map[joinKey]bool)
	s.flows = flowtable.New(s.eng.Now, 0)
	// Hardware is physical: a reboot clears the tables but not the
	// ASIC's limits, so the generation bound re-applies to the fresh
	// flow table and the group-table accounting restarts empty.
	s.applyGen()
	s.wild = nil
	s.resGroups, s.resMembers = 0, 0
	// The replacement agent restarts its version counter, so cached
	// candidate sets validated against the old counter must go too.
	s.cands = make(map[candKey]*candSet)
	s.exclEpoch++
	s.agent = ldp.New(s.eng, (*agentEnv)(s), s.ldpCfg)
	s.agent.SetJournal(s.jou)
	s.jou.Record(obs.SwitchRecovered, 0, 0, 0, 0)
	s.Start()
}

// Loc returns the LDP-discovered location.
func (s *Switch) Loc() ctrlmsg.Loc { return s.loc }

// Resolved reports whether location discovery completed.
func (s *Switch) Resolved() bool { return s.resolved }

// Agent exposes the LDP agent for tests and ablation benches.
func (s *Switch) Agent() *ldp.Agent { return s.agent }

// PMACTableLen returns the number of AMAC↔PMAC mappings (edge state).
func (s *Switch) PMACTableLen() int { return s.table.Len() }

// FlowTable exposes the OpenFlow-style flow cache (tests, Table 1).
func (s *Switch) FlowTable() *flowtable.Table { return s.flows }

// RoutingStateSize returns the number of forwarding-table entries the
// switch holds: live flow entries, PMAC mappings, multicast entries
// and route exclusions. The Table 1 experiment compares this against
// the baseline's flat MAC table.
func (s *Switch) RoutingStateSize() int {
	n := s.flows.Len() + s.table.Len() + len(s.excl)
	for _, ports := range s.mcast {
		n += len(ports)
	}
	// Live neighbor/port bookkeeping is O(ports).
	for _, l := range s.links {
		if l != nil {
			n++
		}
	}
	return n
}

// HandleFrame implements sim.Node.
func (s *Switch) HandleFrame(port int, f *ether.Frame) {
	if s.failed {
		s.pool.Put(f)
		return
	}
	s.Stats.FramesIn++
	if s.Tap != nil {
		s.Tap(port, f, false)
	}
	if f.Type == ether.TypeLDP {
		if p, ok := f.Payload.(*ldp.Packet); ok {
			s.agent.HandleLDP(port, p)
		}
		s.pool.Put(f)
		return
	}
	if f.Type == ether.TypeProbe {
		s.handleProbe(port, f)
		return
	}
	s.agent.NoteDataFrame(port)
	if !s.resolved {
		// Dataplane is down until discovery finishes; the paper's
		// switches likewise forward nothing before LDP completes.
		s.Stats.Dropped++
		s.pool.Put(f)
		return
	}
	if s.loc.Level == ctrlmsg.LevelEdge && s.agent.IsHostPort(port) {
		// fromHost only ever forwards rewritten clones, never the
		// arriving frame itself: consume it here, after every branch
		// (and the switch Tap above) has finished with it.
		s.fromHost(port, f)
		s.pool.Put(f)
		return
	}
	s.fromFabric(port, f)
}

func (s *Switch) send(port int, f *ether.Frame) {
	if l := s.links[port]; l != nil {
		s.Stats.FramesOut++
		if s.Tap != nil {
			s.Tap(port, f, true)
		}
		l.Send(s, f)
		return
	}
	s.pool.Put(f) // unwired port: the frame is consumed here
}

// sendCtrl sends m to shard 0, the route authority.
func (s *Switch) sendCtrl(m ctrlmsg.Msg) { s.sendCtrlTo(0, m) }

// sendCtrlTo routes m to one manager shard; an unwired switch drops it.
func (s *Switch) sendCtrlTo(shard int, m ctrlmsg.Msg) {
	if shard < len(s.ctrl) {
		_ = s.ctrl[shard].Send(m)
	}
}

// sendCtrlAll fans m out to every manager shard: identity and location
// must be shared state, since each shard floods ARP misses to the edge
// set and replays its registry slice on resync.
func (s *Switch) sendCtrlAll(m ctrlmsg.Msg) {
	for _, c := range s.ctrl {
		_ = c.Send(m)
	}
}

// --- ldp.Env ---

// ID implements ldp.Env.
func (e *agentEnv) ID() ctrlmsg.SwitchID { return e.id }

// NumPorts implements ldp.Env.
func (e *agentEnv) NumPorts() int { return len(e.links) }

// SendLDP implements ldp.Env. The frame comes from the engine pool:
// the agent reuses one packet for a whole announcement fan-out, so the
// per-port cost is filling a recycled header — the receiving switch or
// host consumes the frame back into the pool as usual.
func (e *agentEnv) SendLDP(port int, p *ldp.Packet) {
	s := (*Switch)(e)
	if s.failed {
		return
	}
	f := s.pool.Get()
	f.Dst, f.Src, f.Type, f.Payload = ether.Broadcast, s.ldpSrc, ether.TypeLDP, p
	s.send(port, f)
}

// LocationResolved implements ldp.Env.
func (e *agentEnv) LocationResolved(loc ctrlmsg.Loc) {
	s := (*Switch)(e)
	s.loc = loc
	s.resolved = true
	if loc.Level == ctrlmsg.LevelEdge {
		s.table.SetLocation(loc.Pod, loc.Pos)
	}
	s.sendCtrlAll(ctrlmsg.LocationReport{Switch: s.id, Loc: loc})
	// Report current adjacency so the fabric manager's graph includes
	// links discovered before resolution.
	for port := range s.links {
		if n, ok := s.agent.Neighbor(port); ok && n.Alive {
			s.reportPort(port, n, true)
		}
	}
}

// RequestPod implements ldp.Env.
func (e *agentEnv) RequestPod() {
	s := (*Switch)(e)
	s.sendCtrl(ctrlmsg.PodRequest{Switch: s.id})
}

// PortStatus implements ldp.Env.
func (e *agentEnv) PortStatus(port int, peer ldp.Neighbor, up bool) {
	s := (*Switch)(e)
	if s.failed {
		return
	}
	// Liveness changed: cached flow entries may point at a dead (or
	// newly usable) port.
	s.flushFlows()
	s.reportPort(port, peer, up)
}

// NeighborUpdate implements ldp.Env.
func (e *agentEnv) NeighborUpdate(port int, peer ldp.Neighbor) {
	s := (*Switch)(e)
	if s.failed {
		return
	}
	s.reportPort(port, peer, true)
}

func (s *Switch) reportPort(port int, peer ldp.Neighbor, up bool) {
	s.sendCtrl(ctrlmsg.FaultNotify{
		Switch:   s.id,
		Port:     uint8(port),
		Down:     !up,
		PeerID:   peer.ID,
		PeerLoc:  peer.Loc,
		LocalLoc: s.agent.Loc(),
	})
}

// --- control messages from the fabric manager ---

// CtrlHandlerFor returns the receive handler for manager shard i's
// control channel, so replies that depend on the peer — resync replays
// in particular — route back to the shard that asked.
func (s *Switch) CtrlHandlerFor(shard int) ctrlnet.Handler {
	return func(m ctrlmsg.Msg) { s.handleCtrlFrom(shard, m) }
}

func (s *Switch) handleCtrlFrom(shard int, m ctrlmsg.Msg) {
	if s.failed {
		return
	}
	switch v := m.(type) {
	case ctrlmsg.PodAssign:
		s.agent.SetPod(v.Pod)
	case ctrlmsg.ARPAnswer:
		s.handleARPAnswer(v)
	case ctrlmsg.ARPAnswerBatch:
		for _, a := range v.Answers {
			s.handleARPAnswer(a)
		}
	case ctrlmsg.ARPFlood:
		s.handleARPFlood(v)
	case ctrlmsg.RouteExclude:
		k := exclKey{via: v.Via, pod: v.DstPod, pos: v.DstPos}
		kind := obs.ExclInstall
		if v.Add {
			s.excl[k] = true
		} else {
			delete(s.excl, k)
			kind = obs.ExclRemove
		}
		s.exclEpoch++ // cached candidate sets are stale
		s.jou.Record(kind, uint64(v.Via), uint64(v.DstPod), uint64(v.DstPos), s.exclEpoch)
		s.flushFlows() // routing changed; re-run slow paths
	case ctrlmsg.McastInstall:
		if len(v.OutPorts) == 0 {
			delete(s.mcast, v.Group)
			return
		}
		ports := make([]int, 0, len(v.OutPorts))
		for _, p := range v.OutPorts {
			ports = append(ports, int(p))
		}
		s.mcast[v.Group] = ports
	case ctrlmsg.MigrationUpdate:
		s.handleMigrationUpdate(v)
	case ctrlmsg.HostInstall:
		// Registry replay after a reboot: re-seed the PMAC table so
		// hosts that never transmit (pure receivers) are deliverable
		// again without waiting for ingress learning that may never
		// come.
		s.table.Install(v.AMAC, pmac.FromAddr(v.PMAC), v.IP)
	case ctrlmsg.DHCPAnswer:
		s.handleDHCPAnswer(v)
	case ctrlmsg.StateSyncRequest:
		s.resync(shard, v.Epoch)
	default:
		// Benign: newer fabric managers may speak extra kinds.
	}
}

func (s *Switch) handleARPAnswer(v ctrlmsg.ARPAnswer) {
	p, ok := s.pending[v.QueryID]
	if !ok {
		return
	}
	delete(s.pending, v.QueryID)
	if !v.Found {
		// The fabric manager has launched the broadcast fallback;
		// the eventual ARP reply arrives through the dataplane.
		return
	}
	reply := arppkt.Reply(v.PMAC, v.TargetIP, p.hostMAC, p.hostIP)
	if p.trap {
		// A trap's answer is §3.4's correction: a unicast ARP reply
		// routed through the fabric to the stale sender.
		s.Stats.GratuitousSent++
		s.forwardUnicast(reply)
		return
	}
	s.jou.Record(obs.ARPResolved, uint64(s.eng.Now()-p.at), v.QueryID, 0, 0)
	s.Stats.ARPProxied++
	s.send(p.hostPort, reply)
}

func (s *Switch) handleARPFlood(v ctrlmsg.ARPFlood) {
	if s.loc.Level != ctrlmsg.LevelEdge {
		return
	}
	s.Stats.ARPFloods++
	req := &ether.Frame{
		Dst:  ether.Broadcast,
		Src:  v.SenderPMAC,
		Type: ether.TypeARP,
		Payload: &arppkt.Packet{
			Op:        arppkt.OpRequest,
			SenderMAC: v.SenderPMAC,
			SenderIP:  v.SenderIP,
			TargetIP:  v.TargetIP,
		},
	}
	for hp := range s.links {
		if s.agent.IsHostPort(hp) {
			s.send(hp, s.pool.Clone(req))
		}
	}
}

// handleMigrationUpdate forgets the mapping of a host that moved
// away, so frames still addressed to its old PMAC trap (deliverLocal)
// instead of reaching the empty port.
func (s *Switch) handleMigrationUpdate(v ctrlmsg.MigrationUpdate) {
	s.flushFlows()
	// Only when the mapping still belongs to the migrating host: a
	// same-address mapping for a different IP means this removal is
	// stale, and taking it would turn a live host into a trap.
	if h, ok := s.table.LookupPMAC(v.OldPMAC); ok && h.IP == v.IP {
		s.table.Remove(h.AMAC)
	}
	// Membership followed the VM; never replay it from the old edge.
	for k := range s.joins {
		if k.pmac == v.OldPMAC {
			delete(s.joins, k)
		}
	}
}

// String identifies the switch.
func (s *Switch) String() string {
	return fmt.Sprintf("%s(%s)", s.name, s.loc)
}
