// Package baseline implements the comparison fabric the paper argues
// against (its Table 1 "flat MAC address" column): classic Ethernet
// learning switches running a distributed spanning tree protocol.
//
// Characteristics PortLand's evaluation contrasts with:
//   - forwarding state is O(total hosts) per switch (flat MAC tables),
//   - every ARP request floods the whole broadcast domain,
//   - a single spanning tree forfeits the fat tree's path multiplicity
//     (no ECMP), and
//   - failure recovery waits out the spanning-tree max-age and
//     re-election, orders of magnitude slower than LDP's keepalives.
//
// The STP here is a compact 802.1D-style protocol: configuration
// BPDUs carry (root, cost, sender); each switch elects the best root
// it has heard, picks a root port, claims designated ports where its
// own offering is superior, blocks the rest, and ages out stale info.
package baseline

import (
	"fmt"
	"time"

	"portland/internal/ether"
	"portland/internal/sim"
)

// Spanning-tree timers: classic STP scaled down. Hello is the BPDU
// period; information older than maxAge (6 hellos) is aged out.
// forwardDelay is how long a port that just became unblocked stays in
// the listening state (no data forwarded). Classic STP uses this to
// prevent transient loops while roles settle; a fat tree's dense
// meshing makes it mandatory — without it a single broadcast caught
// in a transient cycle snowballs into a line-rate storm.
const (
	Hello        = 100 * time.Millisecond
	maxAge       = 600 * time.Millisecond
	forwardDelay = 300 * time.Millisecond
)

// Config sets the hardware bound on the learning table.
type Config struct {
	// MACTableCap bounds the learned-address CAM; 0 = unbounded (the
	// pre-hardware-model behavior). A full table evicts the least
	// recently used address — deterministically, via an intrusive
	// recency list — and the evicted destination's next frame floods,
	// which is exactly the table-pressure failure mode of conventional
	// L2 that PortLand's O(k) PMAC state avoids (see HARDWARE.md and
	// the `-exp ft` sweep).
	MACTableCap int
}

// bpduWireLen is the wire size of a configuration BPDU.
const bpduWireLen = 18

// BPDU is a spanning-tree configuration message, carried in a frame
// with EtherType TypeSTP.
//
// AgeMs is 802.1D's message age: how stale the root information in
// this BPDU is, incremented at every hop. Without it, two switches
// can refresh each other's memory of a dead root forever and the tree
// never re-converges after a root failure.
type BPDU struct {
	Root   uint32
	Cost   uint32
	Sender uint32
	AgeMs  uint32
	// TCMs is the topology-change budget in milliseconds: when
	// non-zero, receivers flush their learned MAC tables and
	// re-advertise the flag with a decremented budget, so the flush
	// wave covers the whole broadcast domain and then dies out
	// (802.1D's TCN/TC mechanism, compressed into the config BPDU
	// with an explicit decay so the wave provably terminates).
	TCMs uint32
}

// TypeSTP is the EtherType used for BPDUs (local experimental range).
const TypeSTP ether.Type = 0x88b7

// WireSize implements ether.Payload.
func (b *BPDU) WireSize() int { return bpduWireLen }

// AppendTo implements ether.Payload.
func (b *BPDU) AppendTo(buf []byte) []byte {
	for _, v := range [...]uint32{b.Root, b.Cost, b.Sender, b.AgeMs} {
		buf = append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return append(buf, byte(b.TCMs>>8), byte(b.TCMs))
}

// ParseBPDU decodes a BPDU.
func ParseBPDU(b []byte) (*BPDU, error) {
	if len(b) < bpduWireLen {
		return nil, fmt.Errorf("parsing bpdu of %d bytes: %w", len(b), ether.ErrTruncated)
	}
	u := func(i int) uint32 {
		return uint32(b[i])<<24 | uint32(b[i+1])<<16 | uint32(b[i+2])<<8 | uint32(b[i+3])
	}
	return &BPDU{Root: u(0), Cost: u(4), Sender: u(8), AgeMs: u(12), TCMs: uint32(b[16])<<8 | uint32(b[17])}, nil
}

// better reports whether offer (root, cost, sender) beats cur.
func better(root, cost, sender uint32, curRoot, curCost, curSender uint32) bool {
	if root != curRoot {
		return root < curRoot
	}
	if cost != curCost {
		return cost < curCost
	}
	return sender < curSender
}

type portInfo struct {
	// Best BPDU heard on this port, if any.
	root, cost, sender uint32
	age                time.Duration // message age carried in the BPDU
	heard              bool
	lastHeard          time.Duration
	// role
	blocked bool
	// forwardAt is when the port leaves the listening state; data is
	// forwarded only once the current time passes it.
	forwardAt time.Duration
}

// Counters tracks the baseline switch's activity.
type Counters struct {
	FramesIn     int64
	FramesOut    int64
	Flooded      int64 // frames replicated to >1 port (unknown dst/broadcast)
	FloodCopies  int64
	Dropped      int64
	BPDUsSent    int64
	MACEvictions int64 // learned addresses displaced by MACTableCap pressure
}

// camEntry is one learned address; prev/next order entries by recency
// (maintained only under a MACTableCap bound).
type camEntry struct {
	addr       ether.Addr
	port       int
	prev, next *camEntry
}

// Switch is a flooding learning switch with spanning tree.
type Switch struct {
	eng   *sim.Proc
	pool  *ether.FramePool // engine's frame free-list (see ether.FramePool for ownership rules)
	id    uint32
	name  string
	links []*sim.Link
	ports []portInfo
	cfg   Config

	macTable map[ether.Addr]*camEntry // addr -> learned entry
	// camHead/camTail are the recency list ends (head = most recent),
	// live only when cfg.MACTableCap > 0.
	camHead, camTail *camEntry

	root     uint32
	rootCost uint32
	rootPort int           // -1 when we are root
	rootAge  time.Duration // age of our stored root information
	tcUntil  time.Duration // advertise the topology-change flag until then

	failed bool

	// Stats is the switch's counter block.
	Stats Counters
}

// New builds a baseline switch.
func New(eng *sim.Proc, id uint32, name string, ports int, cfg Config) *Switch {
	s := &Switch{
		eng:      eng,
		pool:     eng.FramePool(),
		id:       id,
		name:     name,
		links:    make([]*sim.Link, ports),
		ports:    make([]portInfo, ports),
		cfg:      cfg,
		macTable: make(map[ether.Addr]*camEntry),
		root:     id,
		rootPort: -1,
	}
	// Every port boots in the listening state.
	for i := range s.ports {
		s.ports[i].forwardAt = forwardDelay
	}
	return s
}

// Name implements sim.Node.
func (s *Switch) Name() string { return s.name }

// Attach implements sim.Node.
func (s *Switch) Attach(port int, l *sim.Link) { s.links[port] = l }

// Start implements sim.Node.
func (s *Switch) Start() {
	s.eng.NewTicker(Hello, Hello, s.tick)
}

// Fail crashes the switch.
func (s *Switch) Fail() { s.failed = true }

// Root returns the currently elected root bridge ID.
func (s *Switch) Root() uint32 { return s.root }

// IsRoot reports whether this switch believes it is the root.
func (s *Switch) IsRoot() bool { return s.root == s.id }

// MACTableLen returns the learned-address count — the baseline's
// forwarding state for the Table 1 comparison.
func (s *Switch) MACTableLen() int { return len(s.macTable) }

// Forwarding reports whether port passes data frames: unblocked and
// past its listening (forward-delay) period.
func (s *Switch) Forwarding(port int) bool {
	p := &s.ports[port]
	return !p.blocked && s.eng.Now() >= p.forwardAt
}

func (s *Switch) tick() {
	if s.failed {
		return
	}
	now := s.eng.Now()
	// Expire port information that is silent OR whose message age has
	// exceeded maxAge (the stored age keeps growing in real time).
	for i := range s.ports {
		p := &s.ports[i]
		if p.heard && (now-p.lastHeard > maxAge || p.age+(now-p.lastHeard) > maxAge) {
			p.heard = false
		}
	}
	s.recompute()
	// Send our offering on every port. The advertised age is our root
	// information's age plus one hop increment. 802.1D keeps the
	// increment well under maxAge/diameter so legitimate info survives
	// the deepest post-failure detour (7 hops in a fat tree); half a
	// hello gives 12 hops of headroom under the 6-hello maxAge.
	age := time.Duration(0)
	if !s.IsRoot() {
		age = s.rootAge + Hello/2
	}
	tcms := uint32(0)
	if now < s.tcUntil {
		tcms = uint32((s.tcUntil - now) / time.Millisecond)
	}
	b := &BPDU{
		Root: s.root, Cost: s.rootCost + 1, Sender: s.id,
		AgeMs: uint32(age / time.Millisecond),
		TCMs:  tcms,
	}
	for i, l := range s.links {
		if l == nil {
			continue
		}
		s.Stats.BPDUsSent++
		f := s.pool.Get()
		f.Dst, f.Src, f.Type, f.Payload = ether.Broadcast, macFromID(s.id), TypeSTP, b
		s.send(i, f)
	}
}

func macFromID(id uint32) ether.Addr {
	return ether.Addr{0x0e, 0x00, byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
}

// recompute re-elects the root, the root port and port roles from
// current per-port information.
func (s *Switch) recompute() {
	// Elect: start from "I am root".
	now := s.eng.Now()
	bestRoot, bestCost, bestSender := s.id, uint32(0), s.id
	bestPort := -1
	bestAge := time.Duration(0)
	for i := range s.ports {
		p := &s.ports[i]
		if !p.heard || p.age+(now-p.lastHeard) > maxAge {
			continue
		}
		if better(p.root, p.cost, p.sender, bestRoot, bestCost, bestSender) {
			bestRoot, bestCost, bestSender = p.root, p.cost, p.sender
			bestPort = i
			bestAge = p.age + (now - p.lastHeard)
		}
	}
	changed := bestRoot != s.root || bestPort != s.rootPort
	s.root, s.rootCost, s.rootPort, s.rootAge = bestRoot, bestCost, bestPort, bestAge
	// Port roles: root port forwards; a port is designated (forwards)
	// if our offering beats the best heard on it; otherwise blocked.
	// A port leaving the blocked state re-enters listening for
	// forwardDelay before passing data.
	for i := range s.ports {
		p := &s.ports[i]
		was := p.blocked
		switch {
		case i == s.rootPort:
			p.blocked = false
		case !p.heard:
			p.blocked = false // host port or silent segment: designated
		default:
			p.blocked = !better(s.root, s.rootCost+1, s.id, p.root, p.cost, p.sender)
		}
		if was != p.blocked {
			changed = true
		}
		if was && !p.blocked {
			p.forwardAt = s.eng.Now() + forwardDelay
		}
	}
	if changed {
		// Topology change: flush learned addresses and advertise the
		// TC flag for a maxAge so the whole domain flushes too —
		// without this, one-way flows chase stale entries into dead
		// subtrees forever.
		s.flushCAM()
		s.tcUntil = now + maxAge
	}
}

// learnMAC records (or refreshes) addr → port. Under a MACTableCap
// bound the entry moves to the recency head; a full table evicts the
// recency tail first — like a real CAM, whose aging favors addresses
// that keep transmitting. Recency follows *learning* (source activity)
// only, not destination lookups, matching hardware aging semantics.
func (s *Switch) learnMAC(addr ether.Addr, port int) {
	if e, ok := s.macTable[addr]; ok {
		e.port = port
		if s.cfg.MACTableCap > 0 {
			s.touchCAM(e)
		}
		return
	}
	if s.cfg.MACTableCap > 0 && len(s.macTable) >= s.cfg.MACTableCap {
		s.Stats.MACEvictions++
		s.removeCAM(s.camTail)
	}
	e := &camEntry{addr: addr, port: port}
	s.macTable[addr] = e
	if s.cfg.MACTableCap > 0 {
		e.next = s.camHead
		if s.camHead != nil {
			s.camHead.prev = e
		}
		s.camHead = e
		if s.camTail == nil {
			s.camTail = e
		}
	}
}

// touchCAM moves e to the recency head.
func (s *Switch) touchCAM(e *camEntry) {
	if s.camHead == e {
		return
	}
	s.unlinkCAM(e)
	e.next = s.camHead
	if s.camHead != nil {
		s.camHead.prev = e
	}
	s.camHead = e
	if s.camTail == nil {
		s.camTail = e
	}
}

// removeCAM deletes e from the table and recency list.
func (s *Switch) removeCAM(e *camEntry) {
	delete(s.macTable, e.addr)
	if s.cfg.MACTableCap > 0 {
		s.unlinkCAM(e)
	}
}

// unlinkCAM detaches e from the recency list.
func (s *Switch) unlinkCAM(e *camEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.camHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.camTail = e.prev
	}
	e.prev, e.next = nil, nil
}

// flushCAM empties the learned table (topology change).
func (s *Switch) flushCAM() {
	s.macTable = make(map[ether.Addr]*camEntry)
	s.camHead, s.camTail = nil, nil
}

func (s *Switch) send(port int, f *ether.Frame) {
	if l := s.links[port]; l != nil {
		s.Stats.FramesOut++
		l.Send(s, f)
		return
	}
	s.pool.Put(f) // unwired port: the frame is consumed here
}

// HandleFrame implements sim.Node. The switch owns f: it hands it on (a
// learned destination) or consumes it — BPDU, drop, or a flood of
// pooled clones — and releases it to the engine's pool right there.
func (s *Switch) HandleFrame(port int, f *ether.Frame) {
	if s.failed {
		s.pool.Put(f)
		return
	}
	s.Stats.FramesIn++
	if f.Type == TypeSTP {
		if b, ok := f.Payload.(*BPDU); ok {
			p := &s.ports[port]
			p.root, p.cost, p.sender = b.Root, b.Cost, b.Sender
			p.age = time.Duration(b.AgeMs) * time.Millisecond
			p.heard = true
			p.lastHeard = s.eng.Now()
			if b.TCMs > 0 {
				// Adopt the decayed budget: one hello less than the
				// advertiser's remaining, so every hop strictly
				// shrinks it and the wave terminates.
				rem := time.Duration(b.TCMs)*time.Millisecond - Hello
				if until := s.eng.Now() + rem; rem > 0 && until > s.tcUntil {
					s.flushCAM()
					s.tcUntil = until
				}
			}
			s.recompute()
		}
		s.pool.Put(f)
		return
	}
	if !s.Forwarding(port) {
		s.Stats.Dropped++
		s.pool.Put(f)
		return
	}
	// Learn.
	if !f.Src.IsMulticast() && !f.Src.IsBroadcast() {
		s.learnMAC(f.Src, port)
	}
	// Forward. A learned entry is only usable if it still points at a
	// forwarding port other than the ingress; otherwise fall through
	// to flooding (the entry is stale after a tree change).
	if !f.Dst.IsBroadcast() && !f.Dst.IsMulticast() {
		if e, ok := s.macTable[f.Dst]; ok {
			if e.port == port {
				s.Stats.Dropped++
				s.pool.Put(f)
				return
			}
			if s.Forwarding(e.port) {
				s.send(e.port, f)
				return
			}
			s.removeCAM(e)
		}
	}
	// Flood on all forwarding ports except ingress.
	s.Stats.Flooded++
	for i := range s.links {
		if i == port || s.links[i] == nil || !s.Forwarding(i) {
			continue
		}
		s.Stats.FloodCopies++
		s.send(i, s.pool.Clone(f))
	}
	s.pool.Put(f)
}

// String identifies the switch.
func (s *Switch) String() string {
	return fmt.Sprintf("%s(root=%d)", s.name, s.root)
}
