package ctrlnet

import (
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/sim"
)

// Retransmission timing of a Reliable end: the initial timeout, the
// cap on its exponential backoff, and the fractional random spread
// applied to each timeout (0.2 → ±20%), which desynchronizes
// retransmits across many switches that lost frames to the same
// congested control link.
const (
	defaultRTO    = 20 * time.Millisecond
	defaultMaxRTO = 500 * time.Millisecond
	defaultJitter = 0.2
)

// Reliable wraps an unreliable Conn with go-back-N delivery: every
// payload travels in a SeqData envelope, the receiver cumulatively
// acks with SeqAck, and unacked messages are retransmitted on timeout
// with exponential backoff plus jitter. Both ends of a channel must
// be wrapped. The default (lossless) control plane does NOT use this
// wrapper — the envelope would inflate the Figure 13 byte counts —
// it is engaged only when a control-loss rate is configured.
//
// The receive side delivers strictly in order: an out-of-order frame
// (a gap created by loss) is dropped and re-acked, and the sender's
// timeout recovers the gap. Duplicate frames are acked but not
// re-delivered, so handlers see each message exactly once.
type Reliable struct {
	eng     sim.Sched
	under   Conn
	handler Handler

	sendNext uint64 // next sequence number to assign
	sendBase uint64 // oldest unacked sequence number
	queue    []ctrlmsg.SeqData
	timer    *sim.Timer
	backoff  int // consecutive timeouts without progress

	recvNext uint64 // next sequence number expected

	// Retransmits counts timeout-driven resends (frames, not
	// timeouts; one timeout resends the whole window).
	Retransmits int64
	// Duplicates counts received frames at or below the cumulative
	// ack point, discarded without redelivery.
	Duplicates int64
}

// NewReliable wraps under. Call Attach on the wrapped end(s) after
// both are constructed, then route the underlying conn's inbound
// messages into Receive (Attach does this for SimConn ends).
func NewReliable(eng sim.Sched, under Conn) *Reliable {
	r := &Reliable{eng: eng, under: under}
	r.timer = eng.NewTimer(r.onTimeout)
	if sc, ok := under.(*SimConn); ok {
		sc.SetHandler(r.Receive)
	}
	return r
}

// SetHandler installs the consumer of in-order delivered payloads.
func (r *Reliable) SetHandler(h Handler) { r.handler = h }

// Send implements Conn: enqueue, transmit, arm the timer.
func (r *Reliable) Send(m ctrlmsg.Msg) error {
	env := ctrlmsg.SeqData{Seq: r.sendNext, Payload: m}
	r.sendNext++
	r.queue = append(r.queue, env)
	if err := r.under.Send(env); err != nil {
		return err
	}
	r.armTimer()
	return nil
}

// Receive feeds one frame arriving from the underlying channel into
// the reliability machinery. SimConn ends are wired automatically by
// NewReliable; other transports call this from their handler.
func (r *Reliable) Receive(m ctrlmsg.Msg) {
	switch v := m.(type) {
	case ctrlmsg.SeqData:
		if v.Seq == r.recvNext {
			r.recvNext++
			if r.handler != nil {
				r.handler(v.Payload)
			}
		} else if v.Seq < r.recvNext {
			r.Duplicates++
		}
		// An out-of-order future frame is dropped (go-back-N keeps no
		// reassembly buffer); either way re-ack the cumulative point.
		r.under.Send(ctrlmsg.SeqAck{NextSeq: r.recvNext})
	case ctrlmsg.SeqAck:
		r.onAck(v.NextSeq)
	default:
		// A peer that is not wrapping (mixed deployment during
		// rollout) — deliver as-is rather than wedge.
		if r.handler != nil {
			r.handler(m)
		}
	}
}

func (r *Reliable) onAck(next uint64) {
	if next <= r.sendBase {
		return // stale ack
	}
	if next > r.sendNext {
		next = r.sendNext
	}
	r.queue = r.queue[next-r.sendBase:]
	r.sendBase = next
	r.backoff = 0
	if len(r.queue) == 0 {
		r.timer.Stop()
	} else {
		r.armTimer()
	}
}

func (r *Reliable) onTimeout() {
	if len(r.queue) == 0 {
		return
	}
	r.backoff++
	for _, env := range r.queue {
		r.under.Send(env)
		r.Retransmits++
	}
	r.armTimer()
}

// armTimer (re)schedules the retransmission timeout with exponential
// backoff and jitter.
func (r *Reliable) armTimer() {
	shift := r.backoff
	if shift > 16 {
		shift = 16
	}
	rto := defaultRTO << shift
	if rto > defaultMaxRTO {
		rto = defaultMaxRTO
	}
	spread := 1 + defaultJitter*(2*r.eng.Rand().Float64()-1)
	r.timer.Reset(time.Duration(float64(rto) * spread))
}

// Pending reports the number of unacked buffered messages.
func (r *Reliable) Pending() int { return len(r.queue) }
