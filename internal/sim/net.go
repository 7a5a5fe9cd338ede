package sim

import (
	"fmt"
	"time"

	"portland/internal/ether"
)

// Node is anything attachable to links: a switch or a host.
type Node interface {
	// Name returns a stable human-readable identifier for traces.
	Name() string
	// Attach informs the node that port carries the given link.
	// Called once per port during wiring.
	Attach(port int, l *Link)
	// HandleFrame delivers a frame that arrived on port.
	HandleFrame(port int, f *ether.Frame)
}

// LinkConfig sets the physical properties of a link. The zero value is
// replaced by DefaultLinkConfig.
type LinkConfig struct {
	// Rate is the line rate in bits per second.
	Rate int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueFrames caps each direction's egress queue (drop-tail).
	QueueFrames int
	// LossRate drops each frame independently with this probability
	// (deterministic given the engine seed). Zero for clean links;
	// protocol-robustness tests use it to shake out assumptions of
	// reliable delivery.
	LossRate float64
}

// DefaultLinkConfig models a 1 GbE data-center cable run.
var DefaultLinkConfig = LinkConfig{
	Rate:        1e9,
	Delay:       1 * time.Microsecond,
	QueueFrames: 128,
}

// SerializationDelay returns the time the link's transmitter occupies
// the wire for a frame of the given size — the per-hop cost that makes
// a 40G port four times slower than a 160G one for the same bytes.
// This is exactly the term Send charges; exported so experiments can
// report expected per-hop costs per rate class.
func (c LinkConfig) SerializationDelay(wireBytes int) time.Duration {
	if c.Rate <= 0 {
		return 0
	}
	return time.Duration(int64(wireBytes) * 8 * int64(time.Second) / c.Rate)
}

// DirStats counts one direction's per-cause outcomes. A receiver that
// samples the stats of the direction delivering to it sees exactly
// what its NIC would count: frames that made it (Delivered) and frames
// corrupted on the wire (LossDrops, GrayDrops). QueueDrops happen at
// the sender's egress and DownDrops only while the link is
// administratively down — neither is a wire error. A link keeps each
// direction's counts as two halves, one per owning end (txStats,
// rxStats); RxStats merges them into this.
type DirStats struct {
	// Delivered counts frames handed to this direction's receiver.
	Delivered int64
	// QueueDrops counts drop-tail losses at the sender's egress queue.
	QueueDrops int64
	// LossDrops counts frames discarded by the random LossRate coin.
	LossDrops int64
	// GrayDrops counts frames discarded by the gray-failure rate set
	// via SetGrayLoss while the link stayed administratively up.
	GrayDrops int64
	// DownDrops counts frames discarded because the link was down.
	DownDrops int64
}

// txStats is the transmitter-owned half of a direction's counts:
// outcomes decided at send time.
type txStats struct{ QueueDrops, DownDrops int64 }

// rxStats is the receiver-owned half: outcomes decided at delivery.
type rxStats struct{ Delivered, LossDrops, GrayDrops, DownDrops int64 }

// Link is a full-duplex point-to-point link between two node ports.
// Each direction has an independent transmitter with a FIFO drop-tail
// queue; a frame occupies the transmitter for size/rate seconds and is
// delivered Delay later. Links can be administratively or
// failure-injected down, which silently discards frames — exactly what
// higher layers must detect via LDP timeouts.
//
// The two ends may live on different shards of a Domain, so every
// decision belongs to exactly one side. The transmitter decides
// queueing: it tracks its own egress occupancy by serialization-end
// times. The receiver decides wire loss: each direction owns a Proc of
// its *receiving* shard, and loss/gray coins are flipped at delivery
// time from that stream (physically, corruption is what the receiver's
// CRC check observes). Counters are split into transmitter-owned and
// receiver-owned halves so the two shards never write the same word.
// A link wired with Connect has both ends on one engine and runs the
// same code.
type Link struct {
	cfg LinkConfig

	a, b endpoint
	ab   direction // a transmits to b
	ba   direction // b transmits to a

	up bool

	// Tap, if non-nil, observes every frame the moment it is
	// delivered to a receiver (after queueing and propagation). The
	// frame is valid only for the duration of the call; taps must not
	// retain it (delivered frames may return to the engine's pool).
	// On a cross-shard link the tap runs on the receiving shard and
	// must touch only receiver-shard (or immutable) state.
	Tap func(f *ether.Frame)
}

type endpoint struct {
	node Node
	port int
}

// direction is one transmitter of a full-duplex link, embedded in the
// Link. It owns the frames serialized onto the wire: delivery events
// fire in (at, seq) order, and this direction schedules them with
// non-decreasing times and increasing seq, so the in-flight frames form
// a FIFO — the delivery event carries only the direction pointer and
// the frame is popped from the queue when it fires. (Storing the frame
// in the event itself would fatten every heap entry; see sim.event.)
//
// Past wiring (and grayRate, which faults set at exclusive instants),
// each field has one writer. The transmitting end writes busyUntil, tx
// and the serEnds ring; the receiving end writes rx and inflight
// (pushing at send time on a same-shard link, at the barrier's mailbox
// drain on a cross-shard one) and builds and draws proc's PRNG.
type direction struct {
	// proc is the direction's scheduling identity, a Proc of the
	// receiving engine. Its counter is advanced at send time by the
	// transmitting shard; its PRNG is built and drawn at delivery time
	// by the receiving shard. The fields are disjoint and the phases
	// cannot overlap (a delivery is at least one lookahead after its
	// send), so the shared struct is race-free.
	proc Proc

	link      *Link
	txEng     *Engine // the transmitting endpoint's engine
	busyUntil time.Duration

	// grayRate drops each non-LDP frame independently with this
	// probability while the link is up. LDP keepalives are tiny and
	// survive the corruption modes gray failures model (dirty optics,
	// shallow-buffer ASIC faults), so they pass — exactly the
	// liveness-protocol blind spot the detector exists for.
	grayRate float64

	tx txStats
	rx rxStats

	// serEnds tracks the serialization-end time of every frame the
	// transmitter has accepted: the egress queue occupancy at time t is
	// the count of entries > t. (The in-flight queue below is popped by
	// the receiving shard and must not feed back into transmit
	// decisions.)
	serEnds []time.Duration
	serHead int32
	serLen  int32

	// inflight holds the scheduled, undelivered frames, oldest first.
	inflight ether.FrameQueue
}

// pushSer records a frame leaving the egress queue at time t (its
// serialization end), growing the ring if full. Ring sizes are always
// powers of two, so index wrap is a mask — this path runs once per
// transmitted frame and shows up in steady-state profiles.
func (d *direction) pushSer(t time.Duration) {
	n := int32(len(d.serEnds))
	if d.serLen == n {
		grown := make([]time.Duration, max(8, 2*n))
		for i := int32(0); i < d.serLen; i++ {
			grown[i] = d.serEnds[(d.serHead+i)&(n-1)]
		}
		d.serEnds, d.serHead, n = grown, 0, int32(len(grown))
	}
	d.serEnds[(d.serHead+d.serLen)&(n-1)] = t
	d.serLen++
}

// reapSer drops queue entries fully serialized by time now.
func (d *direction) reapSer(now time.Duration) {
	for d.serLen > 0 && d.serEnds[d.serHead] <= now {
		d.serHead = (d.serHead + 1) & (int32(len(d.serEnds)) - 1)
		d.serLen--
	}
}

// Connect wires (an,ap) to (bn,bp) with cfg, both ends on engine e, and
// attaches both sides.
func Connect(e *Engine, an Node, ap int, bn Node, bp int, cfg LinkConfig) *Link {
	return connect(e, e, an, ap, bn, bp, cfg)
}

// Connect wires (an,ap) on engine ea to (bn,bp) on engine eb. A
// cross-shard link registers its propagation delay as a lookahead bound
// for both directed shard pairs (full-duplex media, one delay).
func (d *Domain) Connect(ea, eb *Engine, an Node, ap int, bn Node, bp int, cfg LinkConfig) *Link {
	if ea.dom != d || eb.dom != d {
		panic("sim: Domain.Connect with engines outside the domain")
	}
	l := connect(ea, eb, an, ap, bn, bp, cfg)
	d.RegisterLatency(ea, eb, l.cfg.Delay)
	return l
}

func connect(ea, eb *Engine, an Node, ap int, bn Node, bp int, cfg LinkConfig) *Link {
	if cfg.Rate == 0 {
		cfg = DefaultLinkConfig
	}
	// One object: both directions, their Procs and their in-flight
	// queues live in the Link; only the serialization-end rings and a
	// drawn PRNG are allocated later, on first use.
	l := &Link{cfg: cfg, a: endpoint{an, ap}, b: endpoint{bn, bp}, up: true}
	l.ab = direction{proc: eb.proc(), link: l, txEng: ea}
	l.ba = direction{proc: ea.proc(), link: l, txEng: eb}
	an.Attach(ap, l)
	bn.Attach(bp, l)
	return l
}

// Up reports whether the link is passing frames.
func (l *Link) Up() bool { return l.up }

// SetUp raises or fails the link. Frames already queued or in flight
// when the link goes down are lost (their delivery events notice the
// down state and count the drop).
func (l *Link) SetUp(up bool) {
	l.up = up
}

// dirTo returns the direction that delivers frames to n.
func (l *Link) dirTo(n Node) *direction {
	switch n {
	case l.b.node:
		return &l.ab
	case l.a.node:
		return &l.ba
	default:
		panic(fmt.Sprintf("sim: node %s not on link %s", n.Name(), l))
	}
}

// SetGrayLoss injects (or clears, with rate 0) a gray failure: each
// direction independently drops the given fraction of non-LDP frames
// while the link remains administratively up. rateToA applies to
// frames delivered toward the endpoint passed first to Connect,
// rateToB toward the second.
func (l *Link) SetGrayLoss(rateToA, rateToB float64) {
	l.ba.grayRate = rateToA
	l.ab.grayRate = rateToB
}

// GrayLoss reports the current gray-loss rates (toward a, toward b).
func (l *Link) GrayLoss() (rateToA, rateToB float64) {
	return l.ba.grayRate, l.ab.grayRate
}

// RxStats returns the per-cause counters of the direction delivering
// to n — what n's NIC would observe on this port. It merges the
// transmitter- and receiver-owned halves, so on a cross-shard link it
// is only coherent while the domain is at rest (between RunUntil
// calls or at an exclusive instant); in-run shard code should use
// RxWireErrs instead.
func (l *Link) RxStats(n Node) DirStats {
	d := l.dirTo(n)
	return DirStats{Delivered: d.rx.Delivered, QueueDrops: d.tx.QueueDrops, LossDrops: d.rx.LossDrops,
		GrayDrops: d.rx.GrayDrops, DownDrops: d.tx.DownDrops + d.rx.DownDrops}
}

// RxWireErrs returns the cumulative wire-error count (loss + gray
// drops) of the direction delivering to n. These counters are owned
// by n's own shard — they are exactly what n's NIC CRC check counts —
// so unlike RxStats this is safe for n's protocol code to sample
// mid-run on a cross-shard link.
func (l *Link) RxWireErrs(n Node) int64 {
	d := l.dirTo(n)
	return d.rx.LossDrops + d.rx.GrayDrops
}

// Delivered returns frames handed to a receiver, both directions.
func (l *Link) Delivered() int64 { return l.ab.rx.Delivered + l.ba.rx.Delivered }

// QueueDrops returns drop-tail losses at either egress queue.
func (l *Link) QueueDrops() int64 { return l.ab.tx.QueueDrops + l.ba.tx.QueueDrops }

// LossDrops returns frames discarded by the random LossRate coin.
func (l *Link) LossDrops() int64 { return l.ab.rx.LossDrops + l.ba.rx.LossDrops }

// GrayDrops returns frames discarded by a gray-loss rate (SetGrayLoss)
// while the link stayed administratively up — the failure mode LDP
// keepalives cannot see.
func (l *Link) GrayDrops() int64 { return l.ab.rx.GrayDrops + l.ba.rx.GrayDrops }

// DownDrops returns frames discarded because the link was down, either
// at send time or while in flight.
func (l *Link) DownDrops() int64 {
	return l.ab.tx.DownDrops + l.ab.rx.DownDrops + l.ba.tx.DownDrops + l.ba.rx.DownDrops
}

// Drops returns every lost frame — the sum of the per-cause counters.
func (l *Link) Drops() int64 {
	return l.QueueDrops() + l.LossDrops() + l.GrayDrops() + l.DownDrops()
}

// Peer returns the node and port on the far side from n.
func (l *Link) Peer(n Node) (Node, int) {
	if l.a.node == n {
		return l.b.node, l.b.port
	}
	return l.a.node, l.a.port
}

// LocalPort returns n's own port number on this link.
func (l *Link) LocalPort(n Node) int {
	if l.a.node == n {
		return l.a.port
	}
	return l.b.port
}

// Config returns the link's physical configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Send transmits f from node "from" toward the peer. It models
// store-and-forward serialization and propagation; the frame is either
// queued for transmission or dropped (full queue / link down). Queue
// occupancy comes from the transmitter's own serialization-end ring,
// wire-loss coins wait for delivery, and the delivery key is issued
// from the direction's stream so the receiving shard orders it
// identically in serial and sharded runs. Same-shard deliveries enqueue
// directly; cross-shard ones ride the domain mailbox to the next epoch
// barrier.
func (l *Link) Send(from Node, f *ether.Frame) {
	var dir *direction
	switch from {
	case l.a.node:
		dir = &l.ab
	case l.b.node:
		dir = &l.ba
	default:
		panic(fmt.Sprintf("sim: node %s not on link %s<->%s", from.Name(), l.a.node.Name(), l.b.node.Name()))
	}
	e := dir.txEng
	if !l.up {
		dir.tx.DownDrops++
		e.pool.Put(f)
		return
	}
	now := e.now
	dir.reapSer(now)
	// LDP keepalives ride a strict-priority control class that is never
	// tail-dropped: real switches schedule control traffic above the
	// data class, so congestion must not masquerade as a dead neighbor.
	// (Detector probes deliberately stay in the data class — they exist
	// to experience what data experiences.)
	if int(dir.serLen) >= l.cfg.QueueFrames && f.Type != ether.TypeLDP {
		dir.tx.QueueDrops++
		e.pool.Put(f)
		return
	}
	ser := l.cfg.SerializationDelay(f.WireSize())
	start := now
	if dir.busyUntil > start {
		start = dir.busyUntil
	}
	dir.busyUntil = start + ser
	dir.pushSer(dir.busyUntil)
	at := dir.busyUntil + l.cfg.Delay
	seq := dir.proc.key()
	if dir.proc.eng == e {
		dir.inflight.Push(f)
		e.enqueue(event{at: at, seq: seq, dir: dir})
		return
	}
	e.dom.sendFrame(e, dir, at, seq, f)
}

// deliver completes the oldest in-flight frame on dir: it runs from
// the receiving engine's event loop as a value-typed delivery event
// (no per-frame closure; see sim.event).
func (l *Link) deliver(dir *direction) {
	f := dir.inflight.Pop()
	dst := l.a
	if dir == &l.ab {
		dst = l.b
	}
	e := dir.proc.eng
	if !l.up { // failed while in flight
		dir.rx.DownDrops++
		e.pool.Put(f)
		return
	}
	// Wire-corruption coins at the receiver, from the direction's own
	// stream — draw order equals delivery order, which is the same in
	// serial and sharded runs.
	if l.cfg.LossRate > 0 && dir.proc.Rand().Float64() < l.cfg.LossRate {
		dir.rx.LossDrops++
		e.pool.Put(f)
		return
	}
	if dir.grayRate > 0 && f.Type != ether.TypeLDP && dir.proc.Rand().Float64() < dir.grayRate {
		dir.rx.GrayDrops++
		e.pool.Put(f)
		return
	}
	dir.rx.Delivered++
	if l.Tap != nil {
		l.Tap(f)
	}
	dst.node.HandleFrame(dst.port, f)
}

// String identifies the link by its endpoints.
func (l *Link) String() string {
	return fmt.Sprintf("%s[%d]<->%s[%d]", l.a.node.Name(), l.a.port, l.b.node.Name(), l.b.port)
}
