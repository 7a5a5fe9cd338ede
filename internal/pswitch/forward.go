package pswitch

import (
	"net/netip"
	"time"

	"portland/internal/arppkt"
	"portland/internal/ctrlmsg"
	"portland/internal/dhcppkt"
	"portland/internal/ether"
	"portland/internal/flowtable"
	"portland/internal/grouppkt"
	"portland/internal/ippkt"
	"portland/internal/ldp"
	"portland/internal/pmac"
)

// fromHost processes a frame arriving on a host-facing edge port:
// PMAC assignment and ingress rewriting, ARP interception, group
// management, then fabric forwarding (paper §3.1, §3.3).
func (s *Switch) fromHost(port int, f *ether.Frame) {
	pm, _ := s.table.Assign(f.Src, uint8(port))
	switch f.Type {
	case ether.TypeARP:
		p, ok := f.Payload.(*arppkt.Packet)
		if !ok {
			s.Stats.Dropped++
			return
		}
		s.learnIP(f.Src, pm, p.SenderIP)
		switch {
		case p.Op == arppkt.OpRequest:
			s.puntARP(port, f.Src, p)
		case p.Gratuitous():
			// Consumed: registration above already told the fabric
			// manager, which handles (re)announcement and migration.
			s.Stats.ARPPunts++
		default:
			// Unicast reply (answer to a flooded request): rewrite
			// the sender's AMAC to its PMAC in both headers and
			// forward through the fabric.
			s.Stats.IngressRewrites++
			g := s.pool.Clone(f)
			g.Src = pm.Addr()
			q := *p
			q.SenderMAC = pm.Addr()
			g.Payload = &q
			s.forwardUnicast(g)
		}
	case ether.TypeGroupMgmt:
		p, ok := f.Payload.(*grouppkt.Packet)
		if !ok {
			s.Stats.Dropped++
			return
		}
		if p.Join {
			s.joins[joinKey{group: p.Group, pmac: pm.Addr()}] = p.Source
		} else {
			delete(s.joins, joinKey{group: p.Group, pmac: pm.Addr()})
		}
		s.sendCtrl(ctrlmsg.McastJoin{
			Switch:   s.id,
			Group:    p.Group,
			HostPMAC: pm.Addr(),
			Join:     p.Join,
			Source:   p.Source,
		})
	default:
		if ip, ok := f.Payload.(*ippkt.IPv4); ok {
			s.learnIP(f.Src, pm, ip.Src)
		}
		s.Stats.IngressRewrites++
		switch {
		case f.Dst.IsMulticast():
			g := s.pool.Clone(f)
			g.Src = pm.Addr()
			s.forwardMulticast(port, g)
		case f.Dst.IsBroadcast():
			// PortLand eliminates data broadcast; ARP (handled above)
			// and DHCP get the proxy treatment, everything else is
			// dropped at the first hop.
			if d := dhcpDiscover(f); d != nil {
				s.puntDHCP(port, d)
				return
			}
			s.Stats.Dropped++
		default:
			g := s.pool.Clone(f)
			g.Src = pm.Addr()
			s.forwardUnicast(g)
		}
	}
}

// learnIP records the IP of amac (issued pm) and registers the mapping
// with the fabric manager the first time (or whenever the IP changes).
func (s *Switch) learnIP(amac ether.Addr, pm pmac.PMAC, ip netip.Addr) {
	if !ip.IsValid() || ip.IsUnspecified() || !s.table.SetIP(pm, ip) {
		return
	}
	s.sendCtrlTo(ctrlmsg.ShardOfIP(ip, s.numShards()),
		ctrlmsg.PMACRegister{Switch: s.id, IP: ip, AMAC: amac, PMAC: pm.Addr()})
}

// puntARP forwards a host's ARP request to the fabric manager and
// parks the request until the answer comes back.
func (s *Switch) puntARP(port int, hostMAC ether.Addr, p *arppkt.Packet) {
	s.Stats.ARPPunts++
	s.punt(pendingARP{hostPort: port, hostMAC: hostMAC, hostIP: p.SenderIP, targetIP: p.TargetIP, at: s.eng.Now()})
}

// trap asks the fabric manager where dstIP lives now, on behalf of a
// sender whose frame deliverLocal refused; the answer comes back as
// that sender's correction (handleARPAnswer). At most one trap per
// (sender, dstIP) is in flight, so every further stale frame before
// the answer costs a scan of the parked queries and nothing else.
func (s *Switch) trap(senderPMAC ether.Addr, senderIP, dstIP netip.Addr) {
	for _, p := range s.pending {
		if p.trap && p.hostMAC == senderPMAC && p.targetIP == dstIP {
			return
		}
	}
	s.punt(pendingARP{trap: true, hostMAC: senderPMAC, hostIP: senderIP, targetIP: dstIP, at: s.eng.Now()})
}

// senderPMAC returns the PMAC a parked query names as its sender: a
// trap's stale sender, or the PMAC issued to the asking host.
func (s *Switch) senderPMAC(p pendingARP) ether.Addr {
	if p.trap {
		return p.hostMAC
	}
	pm, _ := s.table.LookupAMAC(p.hostMAC)
	return pm.Addr()
}

// punt parks p and sends its query to the manager shard owning the
// target IP, which holds the mapping being asked for.
func (s *Switch) punt(p pendingARP) {
	s.nextQueryID++
	id := s.nextQueryID
	s.pending[id] = p
	// Bound the parked-request table: answers normally arrive in
	// microseconds; anything older than a host ARP retry is dead.
	s.eng.Schedule(pendingARPTTL, func() { delete(s.pending, id) })
	q := ctrlmsg.ARPQuery{
		Switch:     s.id,
		QueryID:    id,
		SenderPMAC: s.senderPMAC(p),
		SenderIP:   p.hostIP,
		TargetIP:   p.targetIP,
	}
	shard := ctrlmsg.ShardOfIP(p.targetIP, s.numShards())
	if s.puntBatch > 0 {
		s.bufferPunt(shard, q)
		return
	}
	s.sendCtrlTo(shard, q)
}

// puntBatchMax caps a single ARPQueryBatch; a full buffer flushes
// immediately rather than waiting out the hold timer.
const puntBatchMax = 64

// bufferPunt queues one ARP miss for the owning shard and arms the
// hold timer on the first queued entry.
func (s *Switch) bufferPunt(shard int, q ctrlmsg.ARPQuery) {
	if s.puntBuf == nil {
		s.puntBuf = make([][]ctrlmsg.ARPQuery, s.numShards())
	}
	s.puntBuf[shard] = append(s.puntBuf[shard], q)
	if len(s.puntBuf[shard]) >= puntBatchMax {
		s.flushPunts()
		return
	}
	if !s.puntArmed {
		s.puntArmed = true
		if s.puntTimer == nil {
			s.puntTimer = s.eng.NewTimer(s.flushPunts)
		}
		s.puntTimer.Reset(s.puntBatch)
	}
}

// flushPunts drains every shard's buffer, one ARPQueryBatch message
// (and one manager journal record) per non-empty shard — the
// amortization the batching exists for.
func (s *Switch) flushPunts() {
	s.puntArmed = false
	if s.puntTimer != nil {
		s.puntTimer.Stop()
	}
	for shard, buf := range s.puntBuf {
		if len(buf) == 0 {
			continue
		}
		qs := make([]ctrlmsg.ARPQuery, len(buf))
		copy(qs, buf)
		s.puntBuf[shard] = buf[:0]
		s.sendCtrlTo(shard, ctrlmsg.ARPQueryBatch{Switch: s.id, Queries: qs})
	}
}

// pendingARPTTL bounds how long a punted ARP request waits for the
// fabric manager before the switch forgets it.
const pendingARPTTL = 2 * time.Second

// dhcpDiscover returns the DHCP Discover inside f, or nil.
func dhcpDiscover(f *ether.Frame) *dhcppkt.Packet {
	ip, ok := f.Payload.(*ippkt.IPv4)
	if !ok || ip.Protocol != ippkt.ProtoUDP {
		return nil
	}
	udp, ok := ip.Payload.(*ippkt.UDP)
	if !ok || udp.DstPort != dhcppkt.ServerPort {
		return nil
	}
	d, ok := udp.Payload.(*dhcppkt.Packet)
	if !ok || d.Op != dhcppkt.OpDiscover {
		return nil
	}
	return d
}

// puntDHCP forwards a Discover to the fabric manager (paper §3.3:
// DHCP is proxied exactly like ARP, never flooded).
func (s *Switch) puntDHCP(port int, d *dhcppkt.Packet) {
	s.Stats.DHCPPunts++
	s.nextQueryID++
	id := s.nextQueryID
	s.pendingDHCP[id] = pendingDHCPReq{hostPort: port, clientMAC: d.ClientMAC, xid: d.XID}
	s.eng.Schedule(pendingARPTTL, func() { delete(s.pendingDHCP, id) })
	s.sendCtrl(ctrlmsg.DHCPQuery{Switch: s.id, QueryID: id, XID: d.XID, ClientMAC: d.ClientMAC})
}

// handleDHCPAnswer synthesizes the Ack back to the client.
func (s *Switch) handleDHCPAnswer(v ctrlmsg.DHCPAnswer) {
	p, ok := s.pendingDHCP[v.QueryID]
	if !ok {
		return
	}
	delete(s.pendingDHCP, v.QueryID)
	s.Stats.DHCPProxied++
	s.leases[p.clientMAC] = v.IP
	ack := &dhcppkt.Packet{Op: dhcppkt.OpAck, XID: p.xid, ClientMAC: p.clientMAC, YourIP: v.IP}
	s.send(p.hostPort, &ether.Frame{
		Dst:  p.clientMAC,
		Src:  pmac.PMAC{Pod: s.loc.Pod, Position: s.loc.Pos, Port: uint8(p.hostPort), VMID: 0}.Addr(),
		Type: ether.TypeIPv4,
		Payload: &ippkt.IPv4{
			TTL: 64, Protocol: ippkt.ProtoUDP,
			Src: netip.AddrFrom4([4]byte{10, 255, 255, 254}), // the fabric's server identity
			Dst: v.IP,
			Payload: &ippkt.UDP{
				SrcPort: dhcppkt.ServerPort, DstPort: dhcppkt.ClientPort,
				Payload: ack,
			},
		},
	})
}

// fromFabric processes a frame arriving on a fabric-facing port.
func (s *Switch) fromFabric(port int, f *ether.Frame) {
	switch {
	case f.Dst.IsMulticast():
		s.forwardMulticast(port, f)
	case f.Dst.IsBroadcast():
		// No broadcast transits the PortLand fabric.
		s.Stats.Dropped++
		s.pool.Put(f)
	default:
		s.forwardUnicast(f)
	}
}

// forwardUnicast routes on the PMAC hierarchy (paper §3.1: edge and
// aggregation switches prefix-match on pod/position; core switches on
// pod; inter-pod traffic spreads over ECMP uplinks). The first packet
// of each flow takes this slow path and installs an OpenFlow-style
// flow entry; subsequent packets hit the cache until it expires or a
// fault invalidates it — exactly the reactive model the paper's
// switches ran.
func (s *Switch) forwardUnicast(f *ether.Frame) {
	dst := pmac.FromAddr(f.Dst)
	if s.loc.Level == ctrlmsg.LevelEdge && dst.Pod == s.loc.Pod && dst.Position == s.loc.Pos {
		// Local delivery is uncached: it rewrites headers and checks
		// every frame against its destination host.
		s.deliverLocal(f, dst)
		return
	}
	// One hash per frame: the flow-table key and the ECMP modulus on
	// the miss path share it.
	h := flowHash(f)
	key := flowtable.Key{Dst: f.Dst, Hash: h}
	if port, ok := s.flows.Lookup(key); ok {
		s.send(port, f)
		return
	}
	port, ok := s.routeUnicast(h, dst)
	if !ok {
		s.pool.Put(f)
		return // counted by routeUnicast
	}
	s.flows.Install(key, port)
	s.send(port, f)
}

// routeUnicast is the slow path: compute the output port from LDP
// state, exclusions and the flow hash.
func (s *Switch) routeUnicast(h uint32, dst pmac.PMAC) (int, bool) {
	switch s.loc.Level {
	case ctrlmsg.LevelEdge:
		return s.ecmpUp(h, dst)
	case ctrlmsg.LevelAggregation:
		if dst.Pod == s.loc.Pod {
			return s.downToPosition(dst)
		}
		return s.ecmpUp(h, dst)
	case ctrlmsg.LevelCore:
		return s.downToPod(h, dst)
	default:
		s.Stats.Dropped++
		return 0, false
	}
}

// deliverLocal hands a frame addressed to one of this edge switch's
// own PMACs to the host, rewriting PMAC→AMAC (paper §3.1) — but only
// to the host that owns the frame's destination IP. Any other frame
// left a stale ARP cache: the PMAC maps to no host (it moved away, or
// this edge rebooted into another position), or to a host that was
// issued the address since. It is dropped, and trapped so its sender
// is corrected (paper §3.4); a frame that carries no IP cannot be.
func (s *Switch) deliverLocal(f *ether.Frame, dst pmac.PMAC) {
	srcIP, dstIP := frameIPs(f)
	if h, ok := s.table.LookupPMAC(f.Dst); ok && dstIP.IsValid() && h.IP == dstIP {
		s.Stats.EgressRewrites++
		g := s.pool.Clone(f)
		g.Dst = h.AMAC
		if p, ok := g.Payload.(*arppkt.Packet); ok && p.TargetMAC == f.Dst {
			q := *p
			q.TargetMAC = h.AMAC
			g.Payload = &q
		}
		s.send(int(dst.Port), g)
		s.pool.Put(f)
		return
	}
	s.Stats.StaleTraps++
	s.Stats.Dropped++
	if dstIP.IsValid() {
		s.trap(f.Src, srcIP, dstIP)
	}
	s.pool.Put(f)
}

// frameIPs returns the IPs a frame carries: its IPv4 header's source
// and destination, or its ARP packet's sender and target.
func frameIPs(f *ether.Frame) (src, dst netip.Addr) {
	switch p := f.Payload.(type) {
	case *ippkt.IPv4:
		return p.Src, p.Dst
	case *arppkt.Packet:
		return p.SenderIP, p.TargetIP
	}
	return netip.Addr{}, netip.Addr{}
}

// Candidate-set cache. Each destination class a switch routes toward
// (ECMP uplinks filtered by exclusions, down links to a pod, down
// links to an edge position) keeps its sorted candidate-port slice
// cached. A set is rebuilt only when the LDP agent's state version or
// the switch's exclusion epoch has moved since the cached build —
// epoch validation makes the common flow-table miss O(1) instead of
// refiltering and sorting the port list per miss.
const (
	candUp uint8 = iota
	candDownPod
	candDownPos
)

type candKey struct {
	kind uint8
	pod  uint16
	pos  uint8
}

type candSet struct {
	agentV uint64 // ldp.Agent.Version at build time
	exclV  uint64 // Switch.exclEpoch at build time
	ports  []int  // ascending; storage reused across rebuilds

	// Hardware group-table bookkeeping (resources.go); unused and
	// zero when the switch's Generation is unbounded.
	width int  // member slots this set charges
	live  bool // occupies a group-table entry
	wild  bool // degraded: rides the shared wildcard group
}

// candidates returns the (cached) candidate out-ports for key. Port
// order is ascending: ForEachLive* iterates ports in index order, so
// the set is born sorted and ECMP modulus picks stay deterministic.
//
// Under a bounded Generation, each up-class set is one hardware ECMP
// group: a rebuild re-runs group-table admission (resources.go) and
// may come back truncated or degraded onto the shared wildcard group.
// Down-class sets model LPM next-hop entries, not multipath groups,
// and are never charged.
func (s *Switch) candidates(key candKey) []int {
	limited := key.kind == candUp && (s.gen.ECMPGroups > 0 || s.gen.ECMPMembers > 0)
	cs := s.cands[key]
	if cs == nil {
		cs = &candSet{}
		s.cands[key] = cs
	} else if cs.agentV == s.agent.Version() && cs.exclV == s.exclEpoch {
		if cs.wild {
			return s.wildPorts()
		}
		return cs.ports
	}
	if limited {
		s.releaseGroup(cs)
	}
	cs.agentV, cs.exclV = s.agent.Version(), s.exclEpoch
	cs.ports = cs.ports[:0]
	switch key.kind {
	case candUp:
		s.agent.ForEachLiveUp(func(port int, n ldp.Neighbor) {
			if s.excl[exclKey{via: n.ID, pod: key.pod, pos: ctrlmsg.AnyPos}] ||
				s.excl[exclKey{via: n.ID, pod: key.pod, pos: key.pos}] {
				return
			}
			cs.ports = append(cs.ports, port)
		})
	case candDownPod:
		s.agent.ForEachLiveDown(func(port int, n ldp.Neighbor) {
			if n.Loc.Pod == key.pod {
				cs.ports = append(cs.ports, port)
			}
		})
	case candDownPos:
		s.agent.ForEachLiveDown(func(port int, n ldp.Neighbor) {
			if n.Loc.Pos == key.pos {
				cs.ports = append(cs.ports, port)
			}
		})
	}
	if limited {
		ports, degraded := s.chargeGroup(key, cs)
		if degraded {
			cs.wild = true
			return s.wildPorts()
		}
		return ports
	}
	return cs.ports
}

// ecmpUp spreads a flow across the live, non-excluded uplinks.
func (s *Switch) ecmpUp(h uint32, dst pmac.PMAC) (int, bool) {
	cand := s.candidates(candKey{kind: candUp, pod: dst.Pod, pos: dst.Position})
	if len(cand) == 0 {
		s.Stats.Blackholed++
		return 0, false
	}
	return cand[h%uint32(len(cand))], true
}

// downToPosition (aggregation) routes toward an edge position in this
// pod.
func (s *Switch) downToPosition(dst pmac.PMAC) (int, bool) {
	cand := s.candidates(candKey{kind: candDownPos, pos: dst.Position})
	if len(cand) == 0 {
		s.Stats.Blackholed++
		return 0, false
	}
	return cand[0], true
}

// downToPod (core) routes toward the destination pod; strict fat
// trees have exactly one such link, but generalized multi-rooted
// trees may offer several, in which case the flow hash picks.
func (s *Switch) downToPod(h uint32, dst pmac.PMAC) (int, bool) {
	cand := s.candidates(candKey{kind: candDownPod, pod: dst.Pod})
	switch len(cand) {
	case 0:
		s.Stats.Blackholed++
		return 0, false
	case 1:
		return cand[0], true
	default:
		return cand[int(h)%len(cand)], true
	}
}

// forwardMulticast replicates a group frame along the fabric-manager
// installed tree (paper §3.6).
func (s *Switch) forwardMulticast(inPort int, f *ether.Frame) {
	group, ok := ether.GroupFromAddr(f.Dst)
	if !ok {
		s.Stats.Dropped++
		s.pool.Put(f)
		return
	}
	ports, ok := s.mcast[group]
	if !ok {
		s.Stats.Dropped++
		s.pool.Put(f)
		return
	}
	sent := false
	for _, p := range ports {
		if p == inPort {
			continue
		}
		s.Stats.McastReplicas++
		s.send(p, s.pool.Clone(f))
		sent = true
	}
	if !sent {
		s.Stats.Dropped++
	}
	// The incoming frame was replicated (or dropped), never forwarded
	// itself: consumed here.
	s.pool.Put(f)
}

// FNV-1a parameters (inlined from hash/fnv: constructing a hash.Hash32
// there allocates the state object on every call, and the data path
// hashes every frame at every hop).
const (
	fnvOffset32 uint32 = 2166136261
	fnvPrime32  uint32 = 16777619
)

// flowHash is the ECMP flow hash: FNV-1a over the Ethernet pair and
// type, plus the transport 5-tuple when the payload is IPv4 (the
// paper's switches hash "on source and destination addresses and port
// numbers"). All packets of one flow take one path, preserving
// ordering. The arithmetic is byte-for-byte identical to feeding the
// same fields through hash/fnv's New32a.
func flowHash(f *ether.Frame) uint32 {
	h := fnvOffset32
	for _, c := range f.Dst {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	for _, c := range f.Src {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	h = (h ^ uint32(f.Type>>8)) * fnvPrime32
	h = (h ^ uint32(f.Type&0xff)) * fnvPrime32
	if ip, ok := f.Payload.(*ippkt.IPv4); ok {
		h = (h ^ uint32(ip.Protocol)) * fnvPrime32
		switch t := ip.Payload.(type) {
		case *ippkt.UDP:
			h = hashPorts(h, t.SrcPort, t.DstPort)
		case *ippkt.TCPSegment:
			h = hashPorts(h, t.SrcPort, t.DstPort)
		}
	}
	return h
}

func hashPorts(h uint32, src, dst uint16) uint32 {
	h = (h ^ uint32(src>>8)) * fnvPrime32
	h = (h ^ uint32(src&0xff)) * fnvPrime32
	h = (h ^ uint32(dst>>8)) * fnvPrime32
	h = (h ^ uint32(dst&0xff)) * fnvPrime32
	return h
}
