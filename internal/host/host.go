// Package host models an unmodified end host: a NIC with one or more
// endpoints (the physical host and any virtual machines behind it),
// a standard ARP resolver with caching and retry, UDP sockets, and
// tcplite TCP connections.
//
// PortLand's central promise is that hosts need no changes: they ARP
// for IPs, cache whatever MAC comes back (a PMAC, unbeknownst to
// them), and send Ethernet frames. This package implements exactly
// that behaviour, plus gratuitous-ARP announcement on VM attach,
// which is what a live-migrated VM emits (paper §3.4).
package host

import (
	"fmt"
	"net/netip"
	"time"

	"portland/internal/arppkt"
	"portland/internal/dhcppkt"
	"portland/internal/ether"
	"portland/internal/grouppkt"
	"portland/internal/ippkt"
	"portland/internal/sim"
	"portland/internal/tcplite"
)

// ARP resolver tuning (host-stack defaults).
const (
	arpCacheTTL   = 600 * time.Second
	arpRetry      = 1 * time.Second
	arpMaxRetries = 5
)

// Stats counts host NIC activity.
type Stats struct {
	FramesIn    int64
	FramesOut   int64
	Filtered    int64 // frames for someone else's MAC
	ARPRequests int64
	ARPReplies  int64
	Unresolved  int64 // packets dropped after ARP retries expired
}

type arpEntry struct {
	mac     ether.Addr
	expires time.Duration
}

type resolution struct {
	queued  []*ether.Frame
	retries int
	timer   *sim.Timer
	ep      *Endpoint // endpoint whose identity the requests carry
}

type tcpKey struct {
	lip   netip.Addr
	lport uint16
	rip   netip.Addr
	rport uint16
}

// Host is one physical machine with a single NIC.
type Host struct {
	eng  *sim.Proc
	name string
	link *sim.Link
	pool *ether.FramePool

	// primary is matched before eps, which holds attached VMs and
	// stays nil until the first one attaches. Like arp and pending
	// (and an Endpoint's socket maps), it is made on first insert: a
	// reader of a nil map sees an empty one.
	primary *Endpoint
	eps     map[ether.Addr]*Endpoint

	arp     map[netip.Addr]arpEntry
	pending map[netip.Addr]*resolution

	// RecvHook, if set, observes every accepted frame (metrics).
	RecvHook func(f *ether.Frame)

	// Stats is the host's counter block.
	Stats Stats
}

// New builds a host whose primary endpoint has the given MAC and IP.
func New(eng *sim.Proc, name string, mac ether.Addr, ip netip.Addr) *Host {
	h := &Host{eng: eng, name: name, pool: eng.FramePool()}
	h.primary = &Endpoint{host: h, eng: eng, mac: mac, ip: ip}
	return h
}

// Name implements sim.Node.
func (h *Host) Name() string { return h.name }

// Attach implements sim.Node.
func (h *Host) Attach(_ int, l *sim.Link) { h.link = l }

// Sim returns the simulation process the host runs on.
func (h *Host) Sim() *sim.Proc { return h.eng }

// Endpoint returns the host's primary network identity.
func (h *Host) Endpoint() *Endpoint { return h.primary }

// MAC returns the primary endpoint's hardware address.
func (h *Host) MAC() ether.Addr { return h.primary.mac }

// IP returns the primary endpoint's address.
func (h *Host) IP() netip.Addr { return h.primary.ip }

// AttachVM binds a VM endpoint to this host's NIC and announces it
// with a gratuitous ARP — the frame a freshly migrated (or booted) VM
// emits, which triggers PMAC assignment and fabric-manager
// registration at the edge switch.
func (h *Host) AttachVM(ep *Endpoint) {
	ep.host = h
	ep.eng = h.eng
	put(&h.eps, ep.mac, ep)
	h.sendFrame(arppkt.GratuitousReply(ep.mac, ep.ip))
}

// DetachVM removes a VM endpoint (the freeze step of migration);
// frames for it are ignored until it attaches elsewhere.
func (h *Host) DetachVM(ep *Endpoint) {
	if h.eps[ep.mac] == ep {
		delete(h.eps, ep.mac)
	}
	if ep.host == h {
		ep.host = nil
	}
}

func (h *Host) sendFrame(f *ether.Frame) {
	if h.link == nil {
		return
	}
	h.Stats.FramesOut++
	h.link.Send(h, f)
}

// SendFrame injects a fully formed frame into the host's NIC, exactly
// as sent. Benchmarks and packet-level tests use it to drive the data
// path without paying the host stack's frame construction; normal
// traffic goes through Endpoint's SendUDP/SendIP, which resolve ARP.
func (h *Host) SendFrame(f *ether.Frame) { h.sendFrame(f) }

// HandleFrame implements sim.Node. Inbound frames are consumed here:
// after the hooks and handlers run (none may retain the frame — only
// its payload survives independently), the frame returns to the
// engine's pool.
func (h *Host) HandleFrame(_ int, f *ether.Frame) {
	h.Stats.FramesIn++
	switch {
	case f.Type == ether.TypeLDP:
		// Hosts ignore the fabric's discovery chatter.
	case f.Dst.IsBroadcast():
		if h.RecvHook != nil {
			h.RecvHook(f)
		}
		h.handleBroadcast(f)
	case f.Dst.IsMulticast():
		group, ok := ether.GroupFromAddr(f.Dst)
		if !ok {
			break
		}
		if h.RecvHook != nil {
			h.RecvHook(f)
		}
		if handler := h.primary.groups[group]; handler != nil {
			handler(f)
		}
		for _, ep := range h.eps {
			if handler := ep.groups[group]; handler != nil {
				handler(f)
			}
		}
	default:
		ep := h.primary
		if f.Dst != ep.mac {
			ep = h.eps[f.Dst]
		}
		if ep == nil {
			h.Stats.Filtered++
			break
		}
		if h.RecvHook != nil {
			h.RecvHook(f)
		}
		h.deliver(ep, f)
	}
	h.pool.Put(f)
}

func (h *Host) handleBroadcast(f *ether.Frame) {
	if f.Type != ether.TypeARP {
		return
	}
	p, ok := f.Payload.(*arppkt.Packet)
	if !ok {
		return
	}
	if p.Op == arppkt.OpRequest {
		if ep := h.endpointByIP(p.TargetIP); ep != nil {
			h.Stats.ARPReplies++
			h.sendFrame(arppkt.Reply(ep.mac, ep.ip, p.SenderMAC, p.SenderIP))
		}
		return
	}
	// Broadcast reply (gratuitous): refresh the cache.
	h.learnARP(p.SenderIP, p.SenderMAC)
}

// put inserts k→v into *m, making the map on first insert: a host's
// and an endpoint's maps start nil, so one that never resolves, binds
// or dials costs none.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// endpointByIP returns the endpoint holding ip, the primary first, or
// nil.
func (h *Host) endpointByIP(ip netip.Addr) *Endpoint {
	if h.primary.ip == ip {
		return h.primary
	}
	for _, ep := range h.eps {
		if ep.ip == ip {
			return ep
		}
	}
	return nil
}

func (h *Host) deliver(ep *Endpoint, f *ether.Frame) {
	switch f.Type {
	case ether.TypeARP:
		p, ok := f.Payload.(*arppkt.Packet)
		if !ok {
			return
		}
		if p.Op == arppkt.OpRequest {
			if ep.ip == p.TargetIP {
				h.Stats.ARPReplies++
				h.sendFrame(arppkt.Reply(ep.mac, ep.ip, p.SenderMAC, p.SenderIP))
			}
			return
		}
		h.learnARP(p.SenderIP, p.SenderMAC)
	case ether.TypeIPv4:
		ip, ok := f.Payload.(*ippkt.IPv4)
		if !ok {
			return
		}
		if ip.Dst != ep.ip {
			// An endpoint still acquiring its address accepts DHCP
			// server→client traffic addressed to its future lease.
			if udp, isUDP := ip.Payload.(*ippkt.UDP); isUDP &&
				udp.DstPort == dhcppkt.ClientPort &&
				(!ep.ip.IsValid() || ep.ip.IsUnspecified()) {
				ep.handleIP(ip)
			}
			return
		}
		ep.handleIP(ip)
	}
}

// learnARP installs a mapping and flushes any packets waiting on it.
// Hosts also update existing entries from unsolicited replies — the
// standard behaviour PortLand's migration invalidation relies on.
func (h *Host) learnARP(ip netip.Addr, mac ether.Addr) {
	if !ip.IsValid() || mac.IsZero() {
		return
	}
	put(&h.arp, ip, arpEntry{mac: mac, expires: h.eng.Now() + arpCacheTTL})
	if res, ok := h.pending[ip]; ok {
		delete(h.pending, ip)
		res.timer.Stop()
		for _, f := range res.queued {
			f.Dst = mac
			h.sendFrame(f)
		}
	}
}

// ARPCacheLookup exposes the resolver cache (tests, experiments).
func (h *Host) ARPCacheLookup(ip netip.Addr) (ether.Addr, bool) {
	e, ok := h.arp[ip]
	if !ok || e.expires < h.eng.Now() {
		return ether.Addr{}, false
	}
	return e.mac, true
}

// FlushARP drops a cache entry (tests).
func (h *Host) FlushARP(ip netip.Addr) { delete(h.arp, ip) }

// resolveAndSend queues f (an IP frame without a destination MAC)
// behind ARP resolution of dst for endpoint ep.
func (h *Host) resolveAndSend(ep *Endpoint, dst netip.Addr, f *ether.Frame) {
	if e, ok := h.arp[dst]; ok && e.expires >= h.eng.Now() {
		f.Dst = e.mac
		h.sendFrame(f)
		return
	}
	res, ok := h.pending[dst]
	if ok {
		res.queued = append(res.queued, f)
		return
	}
	res = &resolution{queued: []*ether.Frame{f}, ep: ep}
	res.timer = h.eng.NewTimer(func() { h.retryARP(dst) })
	put(&h.pending, dst, res)
	h.sendARPRequest(ep, dst)
	res.timer.Reset(arpRetry)
}

func (h *Host) sendARPRequest(ep *Endpoint, dst netip.Addr) {
	h.Stats.ARPRequests++
	h.sendFrame(arppkt.Request(ep.mac, ep.ip, dst))
}

func (h *Host) retryARP(dst netip.Addr) {
	res, ok := h.pending[dst]
	if !ok {
		return
	}
	res.retries++
	if res.retries >= arpMaxRetries {
		delete(h.pending, dst)
		h.Stats.Unresolved += int64(len(res.queued))
		return
	}
	h.sendARPRequest(res.ep, dst)
	res.timer.Reset(arpRetry)
}

// String identifies the host.
func (h *Host) String() string {
	return fmt.Sprintf("%s(%s %s)", h.name, h.primary.ip, h.primary.mac)
}

// Endpoint is one network identity (the physical host or a VM). It
// satisfies tcplite.Endpoint and owns its sockets, so TCP connections
// and group subscriptions follow a VM across migrations.
type Endpoint struct {
	host *Host
	eng  *sim.Proc // survives detachment so timers keep ticking
	mac  ether.Addr
	ip   netip.Addr

	udp          map[uint16]UDPHandler
	listeners    map[uint16]listener
	conns        map[tcpKey]*tcplite.Conn
	groups       map[uint32]func(f *ether.Frame)
	nextPingPort uint16
}

// UDPHandler consumes one inbound datagram.
type UDPHandler func(src netip.Addr, srcPort uint16, payload ether.Payload)

type listener struct {
	cfg    tcplite.Config
	accept func(*tcplite.Conn)
}

// NewVM creates a detached VM endpoint; attach it with Host.AttachVM.
func NewVM(mac ether.Addr, ip netip.Addr) *Endpoint { return &Endpoint{mac: mac, ip: ip} }

// MAC returns the endpoint's hardware address.
func (ep *Endpoint) MAC() ether.Addr { return ep.mac }

// LocalIP implements tcplite.Endpoint.
func (ep *Endpoint) LocalIP() netip.Addr { return ep.ip }

// Host returns the current attachment (nil while migrating).
func (ep *Endpoint) Host() *Host { return ep.host }

// Sim implements tcplite.Endpoint: the simulation process the
// endpoint's timers run on, kept across detachment.
func (ep *Endpoint) Sim() *sim.Proc { return ep.eng }

// SendIP implements tcplite.Endpoint: wrap the packet in a frame and
// resolve the next-hop MAC (always the destination's own MAC in a
// flat L2 fabric — which PortLand transparently makes a PMAC). The
// frame comes from the engine's pool: it is consumed (and recycled)
// wherever it leaves the data path — receiving host stack, edge
// rewrite, or drop — so a send costs what its payload cost: one heap
// object for a freshly built packet (ippkt.NewUDP, tcplite's segments),
// none for a prebuilt one sent again (workload.StartCBR). Payloads are
// shared by every clone along the path and may outlive the frame, so
// they are never pooled; that one object is the floor.
func (ep *Endpoint) SendIP(dst netip.Addr, _ uint8, payload ether.Payload) {
	h := ep.host
	if h == nil {
		return // detached (mid-migration): packets are lost, TCP recovers
	}
	f := h.pool.Get()
	f.Dst = ether.Addr{} // cleared: resolveAndSend fills in the next hop
	f.Src, f.Type, f.Payload = ep.mac, ether.TypeIPv4, payload
	h.resolveAndSend(ep, dst, f)
}

// BindUDP registers a datagram handler on port.
func (ep *Endpoint) BindUDP(port uint16, fn UDPHandler) { put(&ep.udp, port, fn) }

// SendUDP transmits a datagram with a payload of n zero bytes: one
// heap object (ippkt.NewUDP). A sender that repeats a datagram builds
// it once and re-sends it through SendIP for none.
func (ep *Endpoint) SendUDP(dst netip.Addr, sport, dport uint16, n int) {
	ep.SendIP(dst, ippkt.ProtoUDP, ippkt.NewUDP(ep.ip, dst, sport, dport, n))
}

// ListenTCP accepts inbound connections on port with default TCP
// settings.
func (ep *Endpoint) ListenTCP(port uint16, accept func(*tcplite.Conn)) {
	ep.ListenTCPWith(port, tcplite.Config{}, accept)
}

// ListenTCPWith accepts inbound connections with a custom TCP config
// (e.g. delivery tracing on the server side).
func (ep *Endpoint) ListenTCPWith(port uint16, cfg tcplite.Config, accept func(*tcplite.Conn)) {
	put(&ep.listeners, port, listener{cfg: cfg, accept: accept})
}

// DialTCP opens a connection to (dst, dport) from lport.
func (ep *Endpoint) DialTCP(dst netip.Addr, lport, dport uint16, cfg tcplite.Config) *tcplite.Conn {
	c := tcplite.Dial(ep, dst, lport, dport, cfg)
	put(&ep.conns, tcpKey{lip: ep.ip, lport: lport, rip: dst, rport: dport}, c)
	return c
}

// JoinGroup subscribes to a multicast group; handler receives the
// group's frames. Source-only members pass a nil handler.
func (ep *Endpoint) JoinGroup(group uint32, source bool, handler func(f *ether.Frame)) {
	put(&ep.groups, group, handler)
	ep.host.sendFrame(&ether.Frame{
		Dst: ether.Broadcast, Src: ep.mac, Type: ether.TypeGroupMgmt,
		Payload: &grouppkt.Packet{Group: group, Join: true, Source: source},
	})
}

// LeaveGroup unsubscribes.
func (ep *Endpoint) LeaveGroup(group uint32) {
	delete(ep.groups, group)
	ep.host.sendFrame(&ether.Frame{
		Dst: ether.Broadcast, Src: ep.mac, Type: ether.TypeGroupMgmt,
		Payload: &grouppkt.Packet{Group: group, Join: false},
	})
}

// groupIP is the IP destination every group datagram carries; the
// fabric forwards multicast on the group MAC alone.
var groupIP = netip.AddrFrom4([4]byte{239, 0, 0, 1})

// SendGroup transmits a UDP datagram of n zero bytes to the group, on
// a pooled frame like SendIP's.
func (ep *Endpoint) SendGroup(group uint32, sport, dport uint16, n int) {
	h := ep.host
	if h == nil {
		return
	}
	f := h.pool.Get()
	f.Dst, f.Src, f.Type = ether.GroupAddr(group), ep.mac, ether.TypeIPv4
	f.Payload = ippkt.NewUDP(ep.ip, groupIP, sport, dport, n)
	h.sendFrame(f)
}

// handleIP demultiplexes an inbound IP packet to UDP or TCP.
func (ep *Endpoint) handleIP(ip *ippkt.IPv4) {
	switch p := ip.Payload.(type) {
	case *ippkt.UDP:
		if fn, ok := ep.udp[p.DstPort]; ok {
			fn(ip.Src, p.SrcPort, p.Payload)
		}
	case *ippkt.TCPSegment:
		key := tcpKey{lip: ep.ip, lport: p.DstPort, rip: ip.Src, rport: p.SrcPort}
		c, ok := ep.conns[key]
		if !ok {
			l, lok := ep.listeners[p.DstPort]
			if !lok || !p.HasFlag(ippkt.FlagSYN) || p.HasFlag(ippkt.FlagACK) {
				return
			}
			c = tcplite.Accept(ep, ip.Src, p.DstPort, p.SrcPort, l.cfg)
			put(&ep.conns, key, c)
			if l.accept != nil {
				l.accept(c)
			}
		}
		c.HandleSegment(p)
	}
}

// Conns returns the endpoint's TCP connections (tests/experiments).
func (ep *Endpoint) Conns() []*tcplite.Conn {
	out := make([]*tcplite.Conn, 0, len(ep.conns))
	for _, c := range ep.conns {
		out = append(out, c)
	}
	return out
}

// BootWithDHCP clears the endpoint's address and acquires one from
// the fabric: a Discover broadcast (intercepted at the edge switch,
// answered by the fabric manager) followed by an Ack carrying the
// lease, then a gratuitous ARP announcing the new identity. done, if
// non-nil, fires with the leased address. Retries every second until
// acknowledged.
func (ep *Endpoint) BootWithDHCP(done func(ip netip.Addr)) {
	h := ep.host
	if h == nil {
		return
	}
	ep.ip = netip.Addr{}
	xid := uint32(h.eng.Rand().Uint64())
	ep.BindUDP(dhcppkt.ClientPort, func(_ netip.Addr, _ uint16, payload ether.Payload) {
		ack, ok := payload.(*dhcppkt.Packet)
		if !ok || ack.Op != dhcppkt.OpAck || ack.XID != xid || ack.ClientMAC != ep.mac {
			return
		}
		if ep.ip.IsValid() && !ep.ip.IsUnspecified() {
			return // already bound
		}
		ep.ip = ack.YourIP
		// Announce the new identity so the edge registers the
		// IP→PMAC mapping immediately.
		h.sendFrame(arppkt.GratuitousReply(ep.mac, ep.ip))
		if done != nil {
			done(ep.ip)
		}
	})
	var try func()
	try = func() {
		if ep.host != h {
			return
		}
		if ep.ip.IsValid() && !ep.ip.IsUnspecified() {
			return
		}
		h.sendFrame(&ether.Frame{
			Dst: ether.Broadcast, Src: ep.mac, Type: ether.TypeIPv4,
			Payload: &ippkt.IPv4{
				TTL: 64, Protocol: ippkt.ProtoUDP,
				Src: netip.AddrFrom4([4]byte{0, 0, 0, 0}),
				Dst: netip.AddrFrom4([4]byte{255, 255, 255, 255}),
				Payload: &ippkt.UDP{
					SrcPort: dhcppkt.ClientPort, DstPort: dhcppkt.ServerPort,
					Payload: &dhcppkt.Packet{Op: dhcppkt.OpDiscover, XID: xid, ClientMAC: ep.mac},
				},
			},
		})
		h.eng.Schedule(time.Second, try)
	}
	try()
}

// EnableEcho binds the classic echo service on UDP port 7: every
// datagram comes straight back to its sender. Latency experiments
// (and Ping below) build on it.
func (ep *Endpoint) EnableEcho() {
	ep.BindUDP(EchoPort, func(src netip.Addr, srcPort uint16, payload ether.Payload) {
		n := 0
		if payload != nil {
			n = payload.WireSize()
		}
		ep.SendUDP(src, EchoPort, srcPort, n)
	})
}

// EchoPort is the UDP port EnableEcho answers on.
const EchoPort = 7

// Ping sends one echo probe to dst (which must have EnableEcho on)
// and invokes cb with the round-trip time when the reply lands. Each
// outstanding probe uses its own ephemeral port, so pings never
// confuse each other.
func (ep *Endpoint) Ping(dst netip.Addr, size int, cb func(rtt time.Duration)) {
	h := ep.host
	if h == nil {
		return
	}
	port := ep.nextPingPort
	if port < pingPortBase {
		port = pingPortBase
	}
	ep.nextPingPort = port + 1
	start := h.eng.Now()
	ep.BindUDP(port, func(netip.Addr, uint16, ether.Payload) {
		delete(ep.udp, port)
		if cb != nil {
			cb(h.eng.Now() - start)
		}
	})
	ep.SendUDP(dst, port, EchoPort, size)
}

// pingPortBase starts the ephemeral range Ping allocates from.
const pingPortBase = 61000
