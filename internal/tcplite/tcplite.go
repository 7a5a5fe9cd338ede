// Package tcplite is a miniature TCP used by the end hosts in the
// PortLand experiments: three-way handshake, cumulative ACKs,
// slow-start/congestion-avoidance, triple-duplicate-ACK fast
// retransmit, and an RFC 6298-style retransmission timer with the
// classic 200 ms minimum RTO.
//
// It exists because two of the paper's headline figures are TCP
// artifacts: convergence after a failure is hidden under the minimum
// RTO (Fig. 10), and a migrated VM's connection stalls until
// retransmission meets the new gratuitous-ARP mapping (Fig. 12). The
// implementation models exactly those mechanisms; it does not attempt
// urgent data, window scaling, SACK, or connection teardown edge
// cases.
package tcplite

import (
	"fmt"
	"net/netip"
	"time"

	"portland/internal/ether"
	"portland/internal/ippkt"
	"portland/internal/sim"
)

// Endpoint is the host-side surface a connection sends through.
type Endpoint interface {
	// Sim returns the endpoint's scheduling identity (clock and timers).
	Sim() *sim.Proc
	// LocalIP returns the endpoint's IP address.
	LocalIP() netip.Addr
	// SendIP transmits an IP packet with the given protocol and
	// payload toward dst (resolving ARP as needed).
	SendIP(dst netip.Addr, proto uint8, payload ether.Payload)
}

// Segment size and retransmission timer bounds. MinRTO is the
// paper's 200 ms minimum, the floor under which Fig. 10's recovery
// hides; a fresh connection starts at initialRTO with a congestion
// window of initCwnd.
const (
	mss        = 1460
	MinRTO     = 200 * time.Millisecond
	maxRTO     = 60 * time.Second
	initialRTO = time.Second
	initCwnd   = 2 * mss
)

// Config tunes a connection. Zero values take defaults.
type Config struct {
	Window int // receive window bytes (default 1 MiB)

	// TraceSend, if set, observes every data transmission
	// (including retransmissions) with the starting sequence offset.
	TraceSend func(at time.Duration, seq uint32, length int, retransmit bool)
	// TraceDeliver, if set, observes in-order delivery progress at
	// the receiver.
	TraceDeliver func(at time.Duration, totalBytes int64)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 1 << 20
	}
	return c
}

// State is the connection state.
type State int

// Connection states (the subset the experiments exercise).
const (
	StateClosed State = iota
	StateSynSent
	StateSynReceived
	StateEstablished
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateSynSent:
		return "syn-sent"
	case StateSynReceived:
		return "syn-received"
	case StateEstablished:
		return "established"
	default:
		return fmt.Sprintf("state%d", int(s))
	}
}

// Stats summarizes a connection's activity.
type Stats struct {
	SegsSent       int64
	SegsRcvd       int64
	Retransmits    int64
	FastRetrans    int64
	Timeouts       int64
	BytesSent      int64 // first transmissions only
	BytesDelivered int64
}

// Conn is one half-connection pair endpoint. Single-threaded: all
// calls must come from the simulation event loop.
type Conn struct {
	ep  Endpoint
	cfg Config

	localPort, remotePort uint16
	remoteIP              netip.Addr
	state                 State

	// Sender.
	sndUna, sndNxt uint32
	streamLen      uint32 // app bytes queued (absolute stream offset)
	cwnd, ssthresh int
	dupAcks        int
	inRecovery     bool
	recover        uint32 // sndNxt at loss detection (NewReno)
	rto            time.Duration
	srtt, rttvar   time.Duration
	rtSeq          uint32        // seq being timed
	rtAt           time.Duration // when it was sent
	rtValid        bool
	timer          *sim.Timer

	// Receiver.
	rcvNxt uint32
	// ooo holds out-of-order byte ranges awaiting the hole at rcvNxt.
	// Intervals, not exact segments: retransmissions need not align
	// with the original segmentation (window edges produce odd-sized
	// segments), so reassembly must work on byte ranges.
	ooo []interval

	// OnEstablished, if set, fires when the handshake completes.
	OnEstablished func()

	// Stats is the connection's counter block.
	Stats Stats
}

// NewConn builds an unconnected conn bound to ep.
func newConn(ep Endpoint, cfg Config, lport, rport uint16, rip netip.Addr) *Conn {
	c := &Conn{
		ep:         ep,
		cfg:        cfg.withDefaults(),
		localPort:  lport,
		remotePort: rport,
		remoteIP:   rip,
	}
	c.cwnd = initCwnd
	c.ssthresh = c.cfg.Window
	c.rto = initialRTO
	c.timer = ep.Sim().NewTimer(c.onTimeout)
	return c
}

// Dial starts an active open toward (rip, rport) from local port
// lport.
func Dial(ep Endpoint, rip netip.Addr, lport, rport uint16, cfg Config) *Conn {
	c := newConn(ep, cfg, lport, rport, rip)
	c.state = StateSynSent
	c.sendSeg(ippkt.TCPSegment{Flags: ippkt.FlagSYN, Seq: 0})
	c.sndNxt = 1
	c.sndUna = 0
	c.armTimer()
	return c
}

// Accept builds the passive side for an inbound SYN; the host demux
// calls this, then delivers the SYN via HandleSegment.
func Accept(ep Endpoint, rip netip.Addr, lport, rport uint16, cfg Config) *Conn {
	c := newConn(ep, cfg, lport, rport, rip)
	c.state = StateClosed // transitions on the SYN
	return c
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Delivered returns in-order bytes received.
func (c *Conn) Delivered() int64 { return c.Stats.BytesDelivered }

// Outstanding returns unacknowledged bytes in flight.
func (c *Conn) Outstanding() int { return int(c.sndNxt - c.sndUna) }

// Queue appends n application bytes to the send stream and pushes
// whatever the windows allow.
func (c *Conn) Queue(n int) {
	c.streamLen += uint32(n)
	c.push()
}

// packet is an IPv4 header and the TCP segment it carries, allocated
// together.
type packet struct {
	ip  ippkt.IPv4
	seg ippkt.TCPSegment
}

// sendSeg transmits s as one heap object — the floor for a TCP sender:
// every segment differs (seq, ack), and nothing tells a sender when an
// in-flight packet has been consumed, so none can be reused.
func (c *Conn) sendSeg(s ippkt.TCPSegment) {
	s.SrcPort, s.DstPort = c.localPort, c.remotePort
	s.Window = uint16(min(c.cfg.Window, 0xffff))
	c.Stats.SegsSent++
	p := &packet{
		ip: ippkt.IPv4{
			TTL: 64, Protocol: ippkt.ProtoTCP,
			Src: c.ep.LocalIP(), Dst: c.remoteIP,
		},
		seg: s,
	}
	p.ip.Payload = &p.seg
	c.ep.SendIP(c.remoteIP, ippkt.ProtoTCP, &p.ip)
}

// push transmits new data permitted by min(cwnd, rwnd).
func (c *Conn) push() {
	if c.state != StateEstablished {
		return
	}
	wnd := min(c.cwnd, c.cfg.Window)
	for int(c.sndNxt-c.sndUna) < wnd && c.sndNxt <= c.streamLen {
		n := min(mss, int(c.streamLen-c.sndNxt+1))
		room := wnd - int(c.sndNxt-c.sndUna)
		if n > room {
			// Sender-side silly-window avoidance: never chop a
			// full-sized chunk down to fit a sliver of window —
			// wait for more acknowledgements instead. Sub-MSS
			// transmissions are allowed only for the stream's tail.
			if room < mss {
				break
			}
			n = room
		}
		if n <= 0 {
			break
		}
		c.transmit(c.sndNxt, n, false)
		c.sndNxt += uint32(n)
		c.Stats.BytesSent += int64(n)
	}
	c.armTimer()
}

func (c *Conn) transmit(seq uint32, n int, retx bool) {
	if c.cfg.TraceSend != nil {
		c.cfg.TraceSend(c.ep.Sim().Now(), seq, n, retx)
	}
	if retx {
		c.Stats.Retransmits++
	} else if !c.rtValid {
		// Time one un-retransmitted segment (Karn's algorithm).
		c.rtValid = true
		c.rtSeq = seq + uint32(n)
		c.rtAt = c.ep.Sim().Now()
	}
	c.sendSeg(ippkt.TCPSegment{
		Flags: ippkt.FlagACK, Seq: seq, Ack: c.rcvNxt,
		Payload: ether.Zeros(n),
	})
}

func (c *Conn) armTimer() {
	if c.sndNxt != c.sndUna {
		c.timer.Reset(c.rto)
	} else {
		c.timer.Stop()
	}
}

// onTimeout is the retransmission timeout: multiplicative backoff,
// window collapse, go-back to the first unacknowledged byte.
func (c *Conn) onTimeout() {
	switch c.state {
	case StateSynSent:
		c.Stats.Timeouts++
		c.sendSeg(ippkt.TCPSegment{Flags: ippkt.FlagSYN, Seq: 0})
		c.rto = min(c.rto*2, maxRTO)
		c.timer.Reset(c.rto)
		return
	case StateSynReceived:
		c.Stats.Timeouts++
		c.sendSeg(ippkt.TCPSegment{Flags: ippkt.FlagSYN | ippkt.FlagACK, Seq: 0, Ack: c.rcvNxt})
		c.rto = min(c.rto*2, maxRTO)
		c.timer.Reset(c.rto)
		return
	}
	if c.sndNxt == c.sndUna {
		return
	}
	c.Stats.Timeouts++
	c.ssthresh = max(c.Outstanding()/2, 2*mss)
	c.cwnd = mss
	c.dupAcks = 0
	c.rtValid = false
	c.inRecovery = true
	c.recover = c.sndNxt
	n := min(mss, int(c.sndNxt-c.sndUna))
	c.transmit(c.sndUna, n, true)
	c.rto = min(c.rto*2, maxRTO)
	c.timer.Reset(c.rto)
}

// HandleSegment processes one inbound segment (called by the host
// demux).
func (c *Conn) HandleSegment(s *ippkt.TCPSegment) {
	c.Stats.SegsRcvd++
	switch c.state {
	case StateClosed:
		if s.HasFlag(ippkt.FlagSYN) && !s.HasFlag(ippkt.FlagACK) {
			c.state = StateSynReceived
			c.rcvNxt = s.Seq + 1
			c.sendSeg(ippkt.TCPSegment{Flags: ippkt.FlagSYN | ippkt.FlagACK, Seq: 0, Ack: c.rcvNxt})
			c.sndNxt = 1
			c.sndUna = 0
			c.timer.Reset(c.rto)
		}
	case StateSynSent:
		if s.HasFlag(ippkt.FlagSYN) && s.HasFlag(ippkt.FlagACK) && s.Ack == 1 {
			c.rcvNxt = s.Seq + 1
			c.sndUna = 1
			// ACK the SYN-ACK before establish() pushes queued data,
			// so the handshake completes in order on the wire.
			c.sendSeg(ippkt.TCPSegment{Flags: ippkt.FlagACK, Seq: 1, Ack: c.rcvNxt})
			c.establish()
		}
	case StateSynReceived:
		if s.HasFlag(ippkt.FlagACK) && s.Ack == 1 {
			c.sndUna = 1
			c.establish()
			// The peer may start pushing data the instant it
			// establishes; that first segment can overtake or ride
			// with the handshake ACK, so feed it through the normal
			// path rather than dropping it (dropping costs an RTO).
			if s.Payload != nil && s.Payload.WireSize() > 0 {
				c.handleEstablished(s)
			}
		}
	case StateEstablished:
		c.handleEstablished(s)
	}
}

func (c *Conn) establish() {
	c.state = StateEstablished
	c.timer.Stop()
	// Sequence space: stream offset 0 is seq 1 (the SYN consumed
	// seq 0). Data queued before the handshake finished is preserved.
	c.sndUna, c.sndNxt = 1, 1
	if c.rcvNxt == 0 {
		c.rcvNxt = 1
	}
	if c.OnEstablished != nil {
		c.OnEstablished()
	}
	c.push()
}

func (c *Conn) handleEstablished(s *ippkt.TCPSegment) {
	// --- receiver side ---
	dataLen := 0
	if s.Payload != nil {
		dataLen = s.Payload.WireSize()
	}
	if dataLen > 0 {
		if seqLEQ(s.Seq, c.rcvNxt) && seqLT(c.rcvNxt, s.Seq+uint32(dataLen)) {
			c.rcvNxt = s.Seq + uint32(dataLen)
			c.drainOOO()
			c.Stats.BytesDelivered = int64(c.rcvNxt - 1)
			if c.cfg.TraceDeliver != nil {
				c.cfg.TraceDeliver(c.ep.Sim().Now(), c.Stats.BytesDelivered)
			}
		} else if seqLT(c.rcvNxt, s.Seq) {
			c.insertOOO(s.Seq, s.Seq+uint32(dataLen))
		}
		// ACK everything we have (immediate ACKs; no delayed-ACK
		// timer — the paper's Linux hosts ACK at least every other
		// segment and delayed ACKs only blur the traces).
		c.sendSeg(ippkt.TCPSegment{Flags: ippkt.FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt})
	}

	// --- sender side ---
	if !s.HasFlag(ippkt.FlagACK) {
		return
	}
	switch {
	case seqLT(c.sndUna, s.Ack) && seqLEQ(s.Ack, c.sndNxt):
		acked := int(s.Ack - c.sndUna)
		c.sndUna = s.Ack
		c.dupAcks = 0
		// RTT sample.
		if c.rtValid && seqLEQ(c.rtSeq, s.Ack) {
			c.rtValid = false
			c.updateRTT(c.ep.Sim().Now() - c.rtAt)
		} else {
			// New data acknowledged: collapse any exponential
			// backoff back to the smoothed estimate (RFC 6298 §5.7;
			// without this, one bad burst leaves the timer at tens
			// of seconds and loss recovery crawls).
			c.rto = c.baseRTO()
		}
		if c.inRecovery {
			if seqLT(s.Ack, c.recover) {
				// NewReno partial ACK (RFC 6582): the next hole is
				// at the new sndUna — retransmit it immediately, and
				// deflate the window by the amount acknowledged so
				// the retransmission replaces (not adds to) the
				// ACK-clocked outflow. Without deflation the sender
				// emits at twice the bottleneck rate and congests
				// itself into a permanent recovery regime.
				n := min(mss, int(c.sndNxt-c.sndUna))
				if n > 0 {
					c.transmit(c.sndUna, n, true)
				}
				c.cwnd = max(c.cwnd-acked+mss, mss)
			} else {
				// Full acknowledgement: leave recovery at ssthresh.
				c.inRecovery = false
				c.cwnd = max(c.ssthresh, mss)
			}
		} else {
			// Congestion window growth.
			if c.cwnd < c.ssthresh {
				c.cwnd += min(acked, mss) // slow start
			} else {
				c.cwnd += max(mss*mss/c.cwnd, 1) // CA
			}
		}
		c.armTimer()
		c.push()
	case s.Ack == c.sndUna && c.sndNxt != c.sndUna && dataLen == 0:
		c.dupAcks++
		if c.dupAcks == 3 && !c.inRecovery {
			// Fast retransmit + NewReno recovery.
			c.Stats.FastRetrans++
			c.ssthresh = max(c.Outstanding()/2, 2*mss)
			c.cwnd = c.ssthresh
			c.inRecovery = true
			c.recover = c.sndNxt
			n := min(mss, int(c.sndNxt-c.sndUna))
			c.transmit(c.sndUna, n, true)
			c.armTimer()
		}
	}
}

func (c *Conn) updateRTT(sample time.Duration) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.baseRTO()
}

// baseRTO is the un-backed-off timeout from the current estimators.
func (c *Conn) baseRTO() time.Duration {
	if c.srtt == 0 {
		return initialRTO
	}
	rto := c.srtt + 4*c.rttvar
	if rto < MinRTO {
		rto = MinRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() time.Duration { return c.srtt }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration { return c.rto }

// Cwnd returns the congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cwnd }

// interval is a half-open out-of-order byte range [start, end).
type interval struct{ start, end uint32 }

// insertOOO adds [start, end) to the reassembly buffer, coalescing
// overlaps. The buffer is kept sorted by start; it is bounded by the
// peer's window, so linear scans are fine.
func (c *Conn) insertOOO(start, end uint32) {
	out := c.ooo[:0:0]
	placed := false
	for _, iv := range c.ooo {
		switch {
		case seqLT(end, iv.start): // strictly before, no touch
			if !placed {
				out = append(out, interval{start, end})
				placed = true
			}
			out = append(out, iv)
		case seqLT(iv.end, start): // strictly after, no touch
			out = append(out, iv)
		default: // overlap or adjacency: merge into the candidate
			if seqLT(iv.start, start) {
				start = iv.start
			}
			if seqLT(end, iv.end) {
				end = iv.end
			}
		}
	}
	if !placed {
		out = append(out, interval{start, end})
	}
	c.ooo = out
}

// drainOOO advances rcvNxt through any buffered ranges it now
// reaches and discards ranges that fell behind.
func (c *Conn) drainOOO() {
	for {
		advanced := false
		out := c.ooo[:0]
		for _, iv := range c.ooo {
			if seqLEQ(iv.end, c.rcvNxt) {
				continue // fully delivered already
			}
			if seqLEQ(iv.start, c.rcvNxt) {
				c.rcvNxt = iv.end
				advanced = true
				continue
			}
			out = append(out, iv)
		}
		c.ooo = out
		if !advanced {
			return
		}
	}
}

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
