// Package ctrlmsg defines the control protocol spoken between
// PortLand switches and the fabric manager, with a compact binary wire
// codec.
//
// The paper implements this channel with OpenFlow; this repository
// substitutes a purpose-built protocol with the same roles: location
// reports, pod-number assignment, PMAC registration, proxy-ARP punts
// and answers, fault notification and redistribution, multicast state
// installation, and VM-migration invalidations. Every message type
// round-trips byte-exactly through Encode/Decode (property-tested), so
// the protocol runs unchanged over the in-simulator transport and real
// TCP connections (see ctrlnet).
package ctrlmsg

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"portland/internal/ether"
)

// SwitchID uniquely identifies a switch (burned in, like a serial
// number; carried in LDMs and control messages).
type SwitchID uint32

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds.
const (
	KindInvalid Kind = iota
	KindHello
	KindLocationReport
	KindPodRequest
	KindPodAssign
	KindPMACRegister
	KindARPQuery
	KindARPAnswer
	KindARPFlood
	KindFaultNotify
	KindRouteExclude
	KindMcastJoin
	KindMcastInstall
	KindMigrationUpdate
	KindDHCPQuery
	KindDHCPAnswer
	KindStateSyncRequest
	KindLeaseReport
	KindSyncDone
	KindHeartbeat
	KindSeqData
	KindSeqAck
	KindGrayReport
	KindHostInstall
	KindARPQueryBatch
	KindARPAnswerBatch
	kindMax
)

var kindNames = [...]string{
	"invalid", "hello", "location-report", "pod-request", "pod-assign",
	"pmac-register", "arp-query", "arp-answer", "arp-flood",
	"fault-notify", "route-exclude", "mcast-join", "mcast-install",
	"migration-update", "dhcp-query", "dhcp-answer",
	"state-sync-request", "lease-report", "sync-done", "heartbeat",
	"seq-data", "seq-ack", "gray-report", "host-install",
	"arp-query-batch", "arp-answer-batch",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Level values carried in Loc (mirror topo.Level for switches).
const (
	LevelUnknown     uint8 = 0
	LevelEdge        uint8 = 1
	LevelAggregation uint8 = 2
	LevelCore        uint8 = 3
)

// Loc is a switch location in the fat tree as discovered by LDP.
type Loc struct {
	Level uint8
	Pod   uint16 // pmac.CorePod for core switches
	Pos   uint8
}

// String renders the location compactly.
func (l Loc) String() string {
	return fmt.Sprintf("{lvl=%d pod=%d pos=%d}", l.Level, l.Pod, l.Pos)
}

// Msg is a control message.
type Msg interface {
	Kind() Kind
}

// Hello opens a switch's control channel.
type Hello struct {
	Switch SwitchID
}

// LocationReport informs the fabric manager of a switch's discovered
// location.
type LocationReport struct {
	Switch SwitchID
	Loc    Loc
}

// PodRequest asks the fabric manager for a pod number (sent by the
// edge switch that won position 0 in its pod).
type PodRequest struct {
	Switch SwitchID
}

// PodAssign answers a PodRequest.
type PodAssign struct {
	Pod uint16
}

// PMACRegister records an IP → (AMAC, PMAC) mapping observed at an
// edge switch. The fabric manager detects VM migration when an
// existing IP re-registers with a different PMAC.
type PMACRegister struct {
	Switch SwitchID
	IP     netip.Addr
	AMAC   ether.Addr
	PMAC   ether.Addr
}

// ARPQuery punts a host ARP request to the fabric manager.
type ARPQuery struct {
	Switch     SwitchID
	QueryID    uint64
	SenderPMAC ether.Addr
	SenderIP   netip.Addr
	TargetIP   netip.Addr
}

// ARPAnswer resolves (or fails) an ARPQuery.
type ARPAnswer struct {
	QueryID  uint64
	Found    bool
	TargetIP netip.Addr
	PMAC     ether.Addr
}

// ARPFlood instructs an edge switch to broadcast an ARP request on its
// host ports — the paper's fallback when the fabric manager has no
// mapping for the target IP.
type ARPFlood struct {
	QueryID    uint64
	SenderPMAC ether.Addr
	SenderIP   netip.Addr
	TargetIP   netip.Addr
}

// FaultNotify reports the state of one switch port: sent when a
// neighbor is first discovered or changes its advertised location
// (Down=false, an adjacency report) and when LDP's missed-LDM timeout
// declares the neighbor dead or alive again (liveness report). The
// fabric manager assembles its topology graph and fault matrix from
// this single message type.
type FaultNotify struct {
	Switch   SwitchID
	Port     uint8
	Down     bool
	PeerID   SwitchID
	PeerLoc  Loc
	LocalLoc Loc
}

// RouteExclude is the fabric manager's targeted reaction to a fault
// (paper §3.5: "the fabric manager informs all affected switches of
// the failure, which then individually recalculate their forwarding
// tables"). The receiving switch must stop (Add) or may resume
// (!Add) using neighbor Via when forwarding toward DstPod/DstPos.
type RouteExclude struct {
	Add    bool
	Via    SwitchID
	DstPod uint16
	// DstPos narrows the exclusion to one edge position; AnyPos
	// excludes the whole pod.
	DstPos uint8
}

// AnyPos in RouteExclude.DstPos matches every position in the pod.
const AnyPos uint8 = 0xff

// McastJoin subscribes (or unsubscribes) a host port to a multicast
// group; sent by the host's edge switch on its behalf.
type McastJoin struct {
	Switch   SwitchID
	Group    uint32
	HostPMAC ether.Addr
	Join     bool
	Source   bool // host will transmit to the group
}

// McastInstall replaces a switch's forwarding state for a group with
// the given output-port set (empty = remove).
type McastInstall struct {
	Group    uint32
	OutPorts []uint8
}

// MigrationUpdate tells the *old* edge switch that IP has moved away
// from OldPMAC: the switch forgets that mapping (if it still belongs to
// IP), so frames sent from stale neighbor caches trap there and their
// senders are corrected with a unicast ARP reply (paper §3.4).
type MigrationUpdate struct {
	IP      netip.Addr
	OldPMAC ether.Addr
}

// DHCPQuery punts a host's DHCP Discover to the fabric manager, which
// doubles as the fabric's address server (paper §3.3 treats DHCP like
// ARP: intercepted at the edge, resolved centrally, never flooded).
type DHCPQuery struct {
	Switch    SwitchID
	QueryID   uint64
	XID       uint32
	ClientMAC ether.Addr
}

// DHCPAnswer returns the lease.
type DHCPAnswer struct {
	QueryID uint64
	XID     uint32
	IP      netip.Addr
}

// StateSyncRequest asks a switch to dump its entire soft state — the
// resync handshake a freshly (re)started fabric manager uses to
// rebuild its registry, location map, fault matrix, lease table and
// multicast membership from the fabric itself (paper §3.2: the
// manager holds soft state precisely so that it can be regenerated
// this way). The switch answers with Hello, LocationReport, one
// FaultNotify per known port, PMACRegister/LeaseReport/McastJoin
// replays, and finally SyncDone carrying the same epoch.
type StateSyncRequest struct {
	Epoch uint32
}

// LeaseReport replays one DHCP lease an edge switch proxied, letting a
// restarted fabric manager rebuild its lease table without reassigning
// addresses already in use.
type LeaseReport struct {
	Switch SwitchID
	MAC    ether.Addr
	IP     netip.Addr
}

// SyncDone terminates a switch's answer to a StateSyncRequest.
type SyncDone struct {
	Switch SwitchID
	Epoch  uint32
}

// Heartbeat is a fabric-manager shard's liveness beacon to its
// watchdog; a run of missed heartbeats triggers takeover.
type Heartbeat struct {
	Epoch uint32
}

// SeqData is the reliable-delivery envelope: a sequence number plus
// any other control message. The ctrlnet.Reliable transport wraps
// every message in one so that acknowledgment and retransmission work
// over lossy control links.
type SeqData struct {
	Seq     uint64
	Payload Msg
}

// SeqAck cumulatively acknowledges every SeqData with Seq < NextSeq.
type SeqAck struct {
	NextSeq uint64
}

// GrayReport informs the fabric manager that a switch's gray-failure
// detector reached a verdict about one of its ports: Quarantined true
// means the port was just evicted (the matching FaultNotify follows
// through the normal liveness path), false means a quarantine was
// released. WireErrs and ProbesLost are the tripping window's deltas,
// for operator visibility.
type GrayReport struct {
	Switch      SwitchID
	Port        uint8
	PeerID      SwitchID
	WireErrs    uint64
	ProbesLost  uint64
	Quarantined bool
}

// HostInstall pushes one host registry record from the fabric manager
// down to an edge switch, re-seeding its PMAC↔AMAC table after a
// reboot. Hosts that only receive traffic never re-trigger ingress
// learning, so without this replay a power-cycled edge would blackhole
// them forever (paper §3.2: soft state is recoverable from the
// manager's registry).
type HostInstall struct {
	IP   netip.Addr
	AMAC ether.Addr
	PMAC ether.Addr
}

// ARPQueryBatch carries every ARP-miss punt an edge switch collected
// for one registry shard during one batching tick. Batching amortizes
// the per-message control-channel and journal cost of an ARP storm:
// the manager answers with a single ARPAnswerBatch. On the wire the
// queries omit their Switch, which the batch header carries once;
// Decode fills it back in.
type ARPQueryBatch struct {
	Switch  SwitchID
	Queries []ARPQuery
}

// ARPAnswerBatch answers an ARPQueryBatch in one message. Queries the
// manager cannot answer immediately (parked during a resync) are
// omitted and answered individually later.
type ARPAnswerBatch struct {
	Answers []ARPAnswer
}

// ShardOfIP maps an IPv4 address to its owning registry shard among n:
// consecutive /30 address blocks stripe across shards, so any host
// population laid out in contiguous prefixes spreads evenly while each
// block of neighboring addresses stays on one shard. Edge switches and
// the fabric route PMAC registrations and ARP punts with this same
// function — it IS the shard contract.
func ShardOfIP(a netip.Addr, n int) int {
	if n <= 1 || !a.Is4() {
		return 0
	}
	v4 := a.As4()
	block := binary.BigEndian.Uint32(v4[:]) >> 2
	return int(block % uint32(n))
}

// Kind implements Msg for Hello.
func (Hello) Kind() Kind { return KindHello }

// Kind implements Msg for LocationReport.
func (LocationReport) Kind() Kind { return KindLocationReport }

// Kind implements Msg for PodRequest.
func (PodRequest) Kind() Kind { return KindPodRequest }

// Kind implements Msg for PodAssign.
func (PodAssign) Kind() Kind { return KindPodAssign }

// Kind implements Msg for PMACRegister.
func (PMACRegister) Kind() Kind { return KindPMACRegister }

// Kind implements Msg for ARPQuery.
func (ARPQuery) Kind() Kind { return KindARPQuery }

// Kind implements Msg for ARPAnswer.
func (ARPAnswer) Kind() Kind { return KindARPAnswer }

// Kind implements Msg for ARPFlood.
func (ARPFlood) Kind() Kind { return KindARPFlood }

// Kind implements Msg for FaultNotify.
func (FaultNotify) Kind() Kind { return KindFaultNotify }

// Kind implements Msg for RouteExclude.
func (RouteExclude) Kind() Kind { return KindRouteExclude }

// Kind implements Msg for McastJoin.
func (McastJoin) Kind() Kind { return KindMcastJoin }

// Kind implements Msg for McastInstall.
func (McastInstall) Kind() Kind { return KindMcastInstall }

// Kind implements Msg for MigrationUpdate.
func (MigrationUpdate) Kind() Kind { return KindMigrationUpdate }

// Kind implements Msg for DHCPQuery.
func (DHCPQuery) Kind() Kind { return KindDHCPQuery }

// Kind implements Msg for DHCPAnswer.
func (DHCPAnswer) Kind() Kind { return KindDHCPAnswer }

// Kind implements Msg for StateSyncRequest.
func (StateSyncRequest) Kind() Kind { return KindStateSyncRequest }

// Kind implements Msg for LeaseReport.
func (LeaseReport) Kind() Kind { return KindLeaseReport }

// Kind implements Msg for SyncDone.
func (SyncDone) Kind() Kind { return KindSyncDone }

// Kind implements Msg for Heartbeat.
func (Heartbeat) Kind() Kind { return KindHeartbeat }

// Kind implements Msg for SeqData.
func (SeqData) Kind() Kind { return KindSeqData }

// Kind implements Msg for SeqAck.
func (SeqAck) Kind() Kind { return KindSeqAck }

// Kind implements Msg for GrayReport.
func (GrayReport) Kind() Kind { return KindGrayReport }

// Kind implements Msg for HostInstall.
func (HostInstall) Kind() Kind { return KindHostInstall }

// Kind implements Msg for ARPQueryBatch.
func (ARPQueryBatch) Kind() Kind { return KindARPQueryBatch }

// Kind implements Msg for ARPAnswerBatch.
func (ARPAnswerBatch) Kind() Kind { return KindARPAnswerBatch }

type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) mac(a ether.Addr) { w.b = append(w.b, a[:]...) }
func (w *writer) ip(a netip.Addr) {
	// The zero Addr encodes as 0.0.0.0 (fields left unset in a
	// message must not panic the codec).
	if !a.Is4() {
		w.b = append(w.b, 0, 0, 0, 0)
		return
	}
	v4 := a.As4()
	w.b = append(w.b, v4[:]...)
}
func (w *writer) loc(l Loc) { w.u8(l.Level); w.u16(l.Pod); w.u8(l.Pos) }

type reader struct {
	b   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("ctrlmsg: short message: %w", ether.ErrTruncated)
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}
func (r *reader) u8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}
func (r *reader) u16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}
func (r *reader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}
func (r *reader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}
func (r *reader) bool() bool {
	v := r.u8()
	if v > 1 && r.err == nil {
		r.err = fmt.Errorf("ctrlmsg: non-canonical boolean %d", v)
	}
	return v != 0
}
func (r *reader) mac() ether.Addr {
	var a ether.Addr
	if v := r.take(6); v != nil {
		copy(a[:], v)
	}
	return a
}
func (r *reader) ip() netip.Addr {
	v := r.take(4)
	if v == nil {
		return netip.Addr{}
	}
	return netip.AddrFrom4([4]byte(v))
}
func (r *reader) loc() Loc { return Loc{Level: r.u8(), Pod: r.u16(), Pos: r.u8()} }

// Encode serializes m: one kind byte followed by fixed-layout fields.
func Encode(m Msg) []byte {
	w := &writer{b: make([]byte, 0, 32)}
	w.u8(uint8(m.Kind()))
	switch v := m.(type) {
	case Hello:
		w.u32(uint32(v.Switch))
	case LocationReport:
		w.u32(uint32(v.Switch))
		w.loc(v.Loc)
	case PodRequest:
		w.u32(uint32(v.Switch))
	case PodAssign:
		w.u16(v.Pod)
	case PMACRegister:
		w.u32(uint32(v.Switch))
		w.ip(v.IP)
		w.mac(v.AMAC)
		w.mac(v.PMAC)
	case ARPQuery:
		w.u32(uint32(v.Switch))
		w.u64(v.QueryID)
		w.mac(v.SenderPMAC)
		w.ip(v.SenderIP)
		w.ip(v.TargetIP)
	case ARPAnswer:
		w.u64(v.QueryID)
		w.bool(v.Found)
		w.ip(v.TargetIP)
		w.mac(v.PMAC)
	case ARPFlood:
		w.u64(v.QueryID)
		w.mac(v.SenderPMAC)
		w.ip(v.SenderIP)
		w.ip(v.TargetIP)
	case FaultNotify:
		w.u32(uint32(v.Switch))
		w.u8(v.Port)
		w.bool(v.Down)
		w.u32(uint32(v.PeerID))
		w.loc(v.PeerLoc)
		w.loc(v.LocalLoc)
	case RouteExclude:
		w.bool(v.Add)
		w.u32(uint32(v.Via))
		w.u16(v.DstPod)
		w.u8(v.DstPos)
	case McastJoin:
		w.u32(uint32(v.Switch))
		w.u32(v.Group)
		w.mac(v.HostPMAC)
		w.bool(v.Join)
		w.bool(v.Source)
	case McastInstall:
		w.u32(v.Group)
		w.u8(uint8(len(v.OutPorts)))
		for _, p := range v.OutPorts {
			w.u8(p)
		}
	case MigrationUpdate:
		w.ip(v.IP)
		w.mac(v.OldPMAC)
	case DHCPQuery:
		w.u32(uint32(v.Switch))
		w.u64(v.QueryID)
		w.u32(v.XID)
		w.mac(v.ClientMAC)
	case DHCPAnswer:
		w.u64(v.QueryID)
		w.u32(v.XID)
		w.ip(v.IP)
	case StateSyncRequest:
		w.u32(v.Epoch)
	case LeaseReport:
		w.u32(uint32(v.Switch))
		w.mac(v.MAC)
		w.ip(v.IP)
	case SyncDone:
		w.u32(uint32(v.Switch))
		w.u32(v.Epoch)
	case Heartbeat:
		w.u32(v.Epoch)
	case SeqData:
		w.u64(v.Seq)
		w.b = append(w.b, Encode(v.Payload)...)
	case SeqAck:
		w.u64(v.NextSeq)
	case GrayReport:
		w.u32(uint32(v.Switch))
		w.u8(v.Port)
		w.u32(uint32(v.PeerID))
		w.u64(v.WireErrs)
		w.u64(v.ProbesLost)
		w.bool(v.Quarantined)
	case HostInstall:
		w.ip(v.IP)
		w.mac(v.AMAC)
		w.mac(v.PMAC)
	case ARPQueryBatch:
		w.u32(uint32(v.Switch))
		w.u16(uint16(len(v.Queries)))
		for _, q := range v.Queries {
			w.u64(q.QueryID)
			w.mac(q.SenderPMAC)
			w.ip(q.SenderIP)
			w.ip(q.TargetIP)
		}
	case ARPAnswerBatch:
		w.u16(uint16(len(v.Answers)))
		for _, a := range v.Answers {
			w.u64(a.QueryID)
			w.bool(a.Found)
			w.ip(a.TargetIP)
			w.mac(a.PMAC)
		}
	default:
		panic(fmt.Sprintf("ctrlmsg: cannot encode %T", m))
	}
	return w.b
}

// Decode parses a message previously produced by Encode.
func Decode(b []byte) (Msg, error) {
	r := &reader{b: b}
	k := Kind(r.u8())
	var m Msg
	switch k {
	case KindHello:
		m = Hello{Switch: SwitchID(r.u32())}
	case KindLocationReport:
		m = LocationReport{Switch: SwitchID(r.u32()), Loc: r.loc()}
	case KindPodRequest:
		m = PodRequest{Switch: SwitchID(r.u32())}
	case KindPodAssign:
		m = PodAssign{Pod: r.u16()}
	case KindPMACRegister:
		m = PMACRegister{Switch: SwitchID(r.u32()), IP: r.ip(), AMAC: r.mac(), PMAC: r.mac()}
	case KindARPQuery:
		m = ARPQuery{Switch: SwitchID(r.u32()), QueryID: r.u64(), SenderPMAC: r.mac(), SenderIP: r.ip(), TargetIP: r.ip()}
	case KindARPAnswer:
		m = ARPAnswer{QueryID: r.u64(), Found: r.bool(), TargetIP: r.ip(), PMAC: r.mac()}
	case KindARPFlood:
		m = ARPFlood{QueryID: r.u64(), SenderPMAC: r.mac(), SenderIP: r.ip(), TargetIP: r.ip()}
	case KindFaultNotify:
		m = FaultNotify{Switch: SwitchID(r.u32()), Port: r.u8(), Down: r.bool(), PeerID: SwitchID(r.u32()), PeerLoc: r.loc(), LocalLoc: r.loc()}
	case KindRouteExclude:
		m = RouteExclude{Add: r.bool(), Via: SwitchID(r.u32()), DstPod: r.u16(), DstPos: r.u8()}
	case KindMcastJoin:
		m = McastJoin{Switch: SwitchID(r.u32()), Group: r.u32(), HostPMAC: r.mac(), Join: r.bool(), Source: r.bool()}
	case KindMcastInstall:
		mi := McastInstall{Group: r.u32()}
		n := int(r.u8())
		for i := 0; i < n; i++ {
			mi.OutPorts = append(mi.OutPorts, r.u8())
		}
		m = mi
	case KindMigrationUpdate:
		m = MigrationUpdate{IP: r.ip(), OldPMAC: r.mac()}
	case KindDHCPQuery:
		m = DHCPQuery{Switch: SwitchID(r.u32()), QueryID: r.u64(), XID: r.u32(), ClientMAC: r.mac()}
	case KindDHCPAnswer:
		m = DHCPAnswer{QueryID: r.u64(), XID: r.u32(), IP: r.ip()}
	case KindStateSyncRequest:
		m = StateSyncRequest{Epoch: r.u32()}
	case KindLeaseReport:
		m = LeaseReport{Switch: SwitchID(r.u32()), MAC: r.mac(), IP: r.ip()}
	case KindSyncDone:
		m = SyncDone{Switch: SwitchID(r.u32()), Epoch: r.u32()}
	case KindHeartbeat:
		m = Heartbeat{Epoch: r.u32()}
	case KindSeqData:
		seq := r.u64()
		if r.err != nil {
			break
		}
		// The rest of the buffer is a complete nested encoding. Nested
		// envelopes are rejected up front to bound the recursion.
		if len(r.b) > 0 && Kind(r.b[0]) == KindSeqData {
			return nil, fmt.Errorf("ctrlmsg: seq-data envelope nested inside seq-data")
		}
		inner, err := Decode(r.b)
		if err != nil {
			return nil, fmt.Errorf("decoding seq-data payload: %w", err)
		}
		r.b = nil
		m = SeqData{Seq: seq, Payload: inner}
	case KindSeqAck:
		m = SeqAck{NextSeq: r.u64()}
	case KindGrayReport:
		m = GrayReport{Switch: SwitchID(r.u32()), Port: r.u8(), PeerID: SwitchID(r.u32()), WireErrs: r.u64(), ProbesLost: r.u64(), Quarantined: r.bool()}
	case KindHostInstall:
		m = HostInstall{IP: r.ip(), AMAC: r.mac(), PMAC: r.mac()}
	case KindARPQueryBatch:
		qb := ARPQueryBatch{Switch: SwitchID(r.u32())}
		n := int(r.u16())
		for i := 0; i < n && r.err == nil; i++ {
			qb.Queries = append(qb.Queries, ARPQuery{
				Switch: qb.Switch, QueryID: r.u64(), SenderPMAC: r.mac(), SenderIP: r.ip(), TargetIP: r.ip(),
			})
		}
		m = qb
	case KindARPAnswerBatch:
		ab := ARPAnswerBatch{}
		n := int(r.u16())
		for i := 0; i < n && r.err == nil; i++ {
			ab.Answers = append(ab.Answers, ARPAnswer{
				QueryID: r.u64(), Found: r.bool(), TargetIP: r.ip(), PMAC: r.mac(),
			})
		}
		m = ab
	default:
		return nil, fmt.Errorf("ctrlmsg: unknown kind %d", uint8(k))
	}
	if r.err != nil {
		return nil, fmt.Errorf("decoding %s: %w", k, r.err)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("ctrlmsg: %d trailing bytes after %s", len(r.b), k)
	}
	return m, nil
}
