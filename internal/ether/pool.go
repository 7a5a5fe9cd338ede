package ether

// FramePool is a free-list of Frame structs for the data path's clone
// sites (ingress/egress PMAC rewriting, multicast replication). The
// simulator's steady-state frame path clones at every rewrite point;
// without a pool each clone is a heap allocation that the garbage
// collector pays for at experiment scale.
//
// Ownership rules (enforced by the aliasing tests in internal/core):
//
//   - A pool is engine-local: one pool per simulation engine, used
//     only from that engine's event loop. Pools are never shared
//     across engines, so parallel experiment cells stay isolated and
//     deterministic.
//   - Clone transfers ownership of the returned frame to whoever the
//     caller hands it to (normally a Link). Whoever *consumes* a frame
//     — delivers it to a host stack, rewrites it into a fresh clone,
//     or drops it — releases it with Put at the point of consumption,
//     strictly after every observer (Link.Tap, Switch.Tap, trace
//     capture, parked-ARP bookkeeping) has run.
//   - Taps and receive hooks may read a frame only for the duration of
//     the call; retaining the pointer is a bug the tests catch.
//   - Put ignores frames that did not come from a pool (composite
//     literals all over the protocol stacks), so consumption sites can
//     release unconditionally. Double Put is a no-op.
//   - Payloads are never pooled: a payload is shared by every clone of
//     a frame along its path and may outlive the frame, so only the
//     Frame headers recycle.
//   - Hence the sender rule: a sent packet costs at most one heap
//     object — its headers as one struct on a pooled frame, a zero body
//     from Zeros — and none when the sender repeats itself (it builds
//     the packet once and sends the same pointer again). One object per
//     distinct packet is the floor: nothing tells a sender when an
//     in-flight payload has been consumed.
//
// The zero value is ready to use.
type FramePool struct {
	free []*Frame
}

// Pool lifecycle states (Frame.pstate).
const (
	unpooled  uint8 = iota // composite literal or Decode result; never recycled
	poolLive               // obtained from a FramePool, currently owned by the data path
	poolFreed              // sitting in a free list; observing one is an aliasing bug
)

// Get returns a blank pool-owned frame.
func (p *FramePool) Get() *Frame {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		f.pstate = poolLive
		f.gen++
		return f
	}
	return &Frame{pstate: poolLive}
}

// Clone returns a pool-owned shallow copy of f (same payload). Switches
// clone before rewriting headers, and once per replica of a flooded
// frame, so the other replicas are unaffected.
func (p *FramePool) Clone(f *Frame) *Frame {
	g := p.Get()
	g.Dst, g.Src, g.Type, g.Payload = f.Dst, f.Src, f.Type, f.Payload
	return g
}

// Put releases a consumed frame back to the free list. Frames that are
// not pool-owned (and frames already released) are ignored, so every
// consumption site can call Put unconditionally. A frame still in a
// FrameQueue has not been consumed: releasing one panics.
func (p *FramePool) Put(f *Frame) {
	if f != nil && f.queued {
		panic("ether: FramePool.Put of a frame still in a FrameQueue")
	}
	if f == nil || f.pstate != poolLive {
		return
	}
	f.pstate = poolFreed
	f.Payload = nil // do not pin payloads while parked
	p.free = append(p.free, f)
}

// Len returns the number of parked frames (tests, metrics).
func (p *FramePool) Len() int { return len(p.free) }

// Recycled reports whether the frame is currently parked in a free
// list. Observing a recycled frame from a tap or hook is an ownership
// violation; the aliasing tests assert this never happens.
func (f *Frame) Recycled() bool { return f.pstate == poolFreed }

// Generation distinguishes successive frames that reuse one pooled
// struct: it increments each time a pool hands the struct out again.
// Tests that track per-frame identity across hops key on the
// (pointer, Generation) pair instead of the bare pointer.
func (f *Frame) Generation() uint32 { return f.gen }
