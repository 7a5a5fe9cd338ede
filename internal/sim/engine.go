// Package sim is a deterministic discrete-event network simulator.
//
// All protocol code in this repository runs on virtual time: an Engine
// owns a monotone clock and an event queue, and every link, timer and
// timeout is an event. Runs are reproducible — every PRNG stream is
// seeded explicitly and ties between simultaneous events are broken by
// a key that depends only on construction and issue order (proc.go).
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"time"

	"portland/internal/ether"
)

// event is a scheduled callback or, when dir is non-nil, a value-typed
// frame-delivery record. Frame deliveries are by far the most common
// event in a packet-rate-bound run; representing them in the queue
// entry means a frame in flight costs no per-frame closure allocation
// (previously Link.Send captured link state in a fresh closure for
// every frame). The frame itself is NOT stored here: deliveries for a
// link direction fire in FIFO order, so the direction keeps its own
// in-flight queue and the event carries only the direction pointer.
// Keeping the event at four words matters — the due heap swaps events
// by value, and a fatter struct measurably slows every Schedule/Run.
type event struct {
	at  time.Duration
	seq uint64 // tie-break key (see proc.go), breaks ties deterministically
	fn  func()
	dir *direction // frame-delivery variant (fn is nil)
}

// fire executes the event.
func (ev *event) fire() {
	if ev.dir != nil {
		ev.dir.link.deliver(ev.dir)
		return
	}
	ev.fn()
}

// eventHeap is a binary min-heap ordered by (at, seq), stored by value
// with index-based swaps: push and pop allocate nothing beyond
// amortized slice growth. It is the wheel's "due" stage (events whose
// tick has been reached, ordered exactly) and, in wheel_test.go, the
// reference order the wheel is checked against.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		kid := 2*i + 1
		if kid >= n {
			return
		}
		if r := kid + 1; r < n && h.less(r, kid) {
			kid = r
		}
		if !h.less(kid, i) {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the spare capacity does not keep the callback closure (and
// everything it captures) reachable after execution.
func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	(*h).siftDown(0)
	return top
}

// The hierarchical timer wheel's geometry. Virtual time is quantized
// into ticks of 2^tickShift nanoseconds (1.024 µs — below one link
// serialization+delay hop, so co-bucketed events are genuinely near
// each other). Each of the wheelLevels levels holds wheelSlots buckets;
// a level-l bucket spans wheelSlots^l ticks, so the wheels cover
// deltas up to wheelSlots^wheelLevels = 2^56 ticks. Every instant a
// time.Duration can hold is below 2^63 ns, a tick below 2^53, so every
// event lands in a wheel bucket.
const (
	tickShift   = 10
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelMask   = wheelSlots - 1
	wheelLevels = 7
	wheelWords  = wheelSlots / 64
)

// wheelNode is one wheel-resident event plus its intrusive list link.
// Bucket membership is a singly linked list of indices into a single
// grow-only arena: buckets never own slice capacity of their own, so
// slot churn (the same 256 slots are reused forever as time advances)
// costs no allocation once the arena has reached the workload's
// high-water mark.
type wheelNode struct {
	ev   event
	next int32 // arena index of the next node in the bucket, -1 at the tail
}

// The arena grows in fixed chunks of arenaChunk nodes and never copies:
// node i lives at nodes[i>>arenaShift][i&arenaMask]. What an engine
// allocates for it is its high-water mark rounded up to one chunk —
// not, as with a doubling slice, whichever power of two the mark
// happens to cross, plus every smaller one it outgrew.
const (
	arenaShift = 12
	arenaChunk = 1 << arenaShift
	arenaMask  = arenaChunk - 1
)

// Engine is a discrete-event executor with a virtual clock.
// The zero value is not usable; construct with New.
//
// The queue is a hierarchical timer wheel in front of a small binary
// heap. Events whose tick is <= base sit in the "due" heap, ordered
// exactly by (at, seq); later events hash into the wheel bucket that
// spans their tick, and advance() moves base forward bucket by bucket,
// cascading coarse buckets into finer ones, so that every event passes
// through the due heap before it fires. Pop order is therefore
// identical to a single global (at, seq) heap — the property every
// golden replay in this repository depends on — while Schedule stays
// O(1) instead of O(log pending). See DESIGN.md §8.
type Engine struct {
	now     time.Duration
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// due holds events already orderable for execution: exactly those
	// with tick(at) <= base. Sub-tick ordering comes from the heap.
	due    eventHeap
	queued int // total events across due and wheels

	base  uint64                          // wheel position, in ticks
	heads [wheelLevels][wheelSlots]int32  // bucket list heads (arena indices)
	occ   [wheelLevels][wheelWords]uint64 // bucket occupancy bitmaps
	nodes []*[arenaChunk]wheelNode        // arena backing every bucket list
	used  int32                           // arena nodes ever handed out
	free  int32                           // arena free-list head, -1 when empty

	// pool is the engine-local frame free-list; everything wired to
	// this engine shares it, and nothing outside this engine ever
	// touches it (the determinism-under-parallelism contract).
	pool ether.FramePool

	// ranks allocates entity tie-break ranks (see proc.go). Private to
	// this engine when standalone; shared across all shards of a Domain.
	ranks *rankSpace

	// dom/shard identify this engine's place in a Domain, when it is a
	// shard of one (dom nil otherwise). Link.Send uses them to route
	// cross-shard deliveries through the Domain's mailboxes.
	dom   *Domain
	shard int
}

// New returns an engine whose PRNG is seeded with seed.
func New(seed uint64) *Engine {
	return &Engine{
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		free:  -1,
		ranks: &rankSpace{seed: seed, next: 1},
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic PRNG.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after delay d of virtual time. A negative d is
// treated as zero (run at the current instant, after already-queued
// events for this instant).
func (e *Engine) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now+d, fn)
}

// ScheduleAt runs fn at absolute virtual time t (clamped to now).
func (e *Engine) ScheduleAt(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.enqueue(event{at: t, seq: e.seq, fn: fn})
}

// enqueue files an event into the stage its tick belongs to.
func (e *Engine) enqueue(ev event) {
	e.queued++
	if t := uint64(ev.at) >> tickShift; t > e.base {
		e.wheelPush(ev, t)
	} else {
		e.due.push(ev)
	}
}

// wheelPush files an event with tick t > base into the bucket spanning
// t: level l covers deltas in [wheelSlots^l, wheelSlots^(l+1)), and the
// slot within a level is the tick's l-th base-wheelSlots digit.
func (e *Engine) wheelPush(ev event, t uint64) {
	l := uint(bits.Len64(t-e.base)-1) / wheelBits
	i := e.free
	if i >= 0 {
		e.free = e.node(i).next
	} else {
		if int(e.used) == len(e.nodes)*arenaChunk {
			e.nodes = append(e.nodes, new([arenaChunk]wheelNode))
		}
		i = e.used
		e.used++
	}
	s := int(t>>(l*wheelBits)) & wheelMask
	n := e.node(i)
	n.ev = ev
	w, b := s>>6, uint64(1)<<(s&63)
	if e.occ[l][w]&b != 0 {
		n.next = e.heads[l][s]
	} else {
		n.next = -1
		e.occ[l][w] |= b
	}
	e.heads[l][s] = i
}

// node returns arena node i.
func (e *Engine) node(i int32) *wheelNode { return &e.nodes[i>>arenaShift][i&arenaMask] }

// nextSet returns the first occupied slot >= from at level l, or -1.
func (e *Engine) nextSet(l uint, from int) int {
	w := from >> 6
	m := ^uint64(0) << uint(from&63)
	for ; w < wheelWords; w++ {
		if v := e.occ[l][w] & m; v != 0 {
			return w<<6 + bits.TrailingZeros64(v)
		}
		m = ^uint64(0)
	}
	return -1
}

// drain empties bucket (l, s), re-filing each event: ticks that base
// has reached go to the due heap, later ones re-hash into a finer
// bucket. Nodes return to the arena free list with their event slot
// zeroed so spare arena capacity never pins an executed closure.
func (e *Engine) drain(l uint, s int) {
	e.occ[l][s>>6] &^= 1 << uint(s&63)
	i := e.heads[l][s]
	for i >= 0 {
		n := e.node(i)
		ev, next := n.ev, n.next
		n.ev = event{}
		n.next = e.free
		e.free = i
		if t := uint64(ev.at) >> tickShift; t > e.base {
			e.wheelPush(ev, t)
		} else {
			e.due.push(ev)
		}
		i = next
	}
}

// advance moves base forward to the next occupied tick and drains it
// into the due heap. Correctness rests on two invariants maintained
// everywhere base moves: (1) events with tick <= base are always in
// due, so the heap alone orders everything ready to fire; (2) a bucket
// whose span strictly contains base is empty (its events were drained
// when base entered the span), so the earliest span start over all
// occupied buckets is a lower bound on every wheel event — jumping
// base there can never skip an event.
func (e *Engine) advance() {
	for len(e.due) == 0 {
		// Fast path: the nearest occupied level-0 bucket in the current
		// 256-tick block, if any, is globally earliest — higher-level
		// buckets start at block boundaries at or beyond this block's
		// end.
		p0 := int(e.base) & wheelMask
		if j := e.nextSet(0, p0); j >= 0 {
			e.base = e.base&^uint64(wheelMask) | uint64(j)
			e.drain(0, j)
			continue
		}
		// Slow path: earliest occupied bucket span across all levels,
		// considering both the rest of each level's current window and
		// its wrapped (next-window) slots. Some bucket is occupied: the
		// due heap is empty and every other event is in a wheel.
		best := uint64(math.MaxUint64)
		for l := uint(0); l < wheelLevels; l++ {
			p := int(e.base>>(l*wheelBits)) & wheelMask
			winSize := uint64(1) << ((l + 1) * wheelBits)
			winStart := e.base &^ (winSize - 1)
			j, w := e.nextSet(l, p), winStart
			if j < 0 {
				j, w = e.nextSet(l, 0), winStart+winSize
			}
			if j < 0 {
				continue
			}
			best = min(best, w|uint64(j)<<(l*wheelBits))
		}
		e.base = best
		// Cascade every bucket whose span begins exactly at the new
		// base, coarsest first; their events re-file strictly below
		// their level, so the loop terminates. Level 0 is included: the
		// slot at base&wheelMask can hold events whose tick equals the
		// new base (filed via a short delta before the jump), and they
		// must reach the due heap in the same batch as any co-tick
		// events a coarser cascade deposits there — leaving them behind
		// would pop the cascaded events first regardless of (at, seq).
		// Empty buckets cost one bit test.
		for l := wheelLevels - 1; l >= 0; l-- {
			if l > 0 && e.base&(uint64(1)<<(uint(l)*wheelBits)-1) != 0 {
				continue
			}
			if s := int(e.base>>(uint(l)*wheelBits)) & wheelMask; e.occ[l][s>>6]&(1<<uint(s&63)) != 0 {
				e.drain(uint(l), s)
			}
		}
	}
}

// step fires the globally earliest event by (at, seq) if it is stamped
// at or before limit, moving the clock to it, and reports whether it
// did. It is the one place an event leaves the queue: Run, RunUntil,
// runSpan and the Domain's same-instant interleave differ only in the
// limit they pass and in what they do with the clock afterwards. The
// peek is spelled out rather than a call to head, which is past the
// inliner's budget: this is the per-event path.
func (e *Engine) step(limit time.Duration) bool {
	if e.queued == 0 {
		return false
	}
	if len(e.due) == 0 {
		e.advance()
	}
	if e.due[0].at > limit {
		return false
	}
	ev := e.due.pop()
	e.queued--
	e.now = ev.at
	ev.fire()
	return true
}

// forever is the limit no event is stamped beyond.
const forever = time.Duration(math.MaxInt64)

// FramePool returns the engine-local frame free-list shared by every
// node and link wired to this engine (see ether.FramePool for the
// ownership rules).
func (e *Engine) FramePool() *ether.FramePool { return &e.pool }

// Stop makes Run and RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called,
// leaving the clock at the last executed event. It returns the number
// of events executed.
func (e *Engine) Run() int {
	e.stopped = false
	n := 0
	for !e.stopped && e.step(forever) {
		n++
	}
	return n
}

// RunUntil executes events with timestamps <= deadline and leaves the
// clock exactly at the deadline (idle time passes even when no events
// are due).
func (e *Engine) RunUntil(deadline time.Duration) int {
	e.stopped = false
	n := 0
	for !e.stopped && e.step(deadline) {
		n++
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return n
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queued }

// head returns the exact (at, seq) key of the earliest queued event
// without removing it. It may advance the wheel base to stage that
// event into the due heap — safe at any point between events, because
// enqueue files ticks <= base into the exactly-ordered due heap — but
// executes nothing and never moves the clock. The Domain's window
// planner sizes each lockstep epoch from it: the true global minimum,
// not a bucket lower bound (which would crawl across sparse gaps one
// window at a time).
func (e *Engine) head() (time.Duration, uint64, bool) {
	if e.queued == 0 {
		return 0, 0, false
	}
	if len(e.due) == 0 {
		e.advance()
	}
	return e.due[0].at, e.due[0].seq, true
}

// runSpan executes every event with timestamp < limit and then moves
// the clock to clockTo (no-op if the clock is already past it). It is
// the per-shard body of one Domain epoch: the strict bound is what lets
// events *at* the next barrier wait for mailbox handoff, while clockTo
// lets the caller park the clock at the barrier (or at an inclusive
// run deadline) without firing anything there.
func (e *Engine) runSpan(limit, clockTo time.Duration) int {
	n := 0
	for e.step(limit - 1) { // timestamps are whole nanoseconds: < limit is <= limit-1
		n++
	}
	if e.now < clockTo {
		e.now = clockTo
	}
	return n
}

// Timer is a cancellable, reschedulable one-shot timer. Its expiries
// ride whichever Sched built it: Engine (root-stream keys), Proc
// (entity keys) or Domain (exclusive keys).
type Timer struct {
	s        Sched
	deadline time.Duration
	armed    bool
	fn       func()
	fire     func() // allocated once; Reset schedules it without a new closure
}

// NewTimer returns an unarmed timer that will call fn when it fires.
// Its expiry events ride the engine's root stream; Domain-backed code
// should use Proc.NewTimer instead.
func (e *Engine) NewTimer(fn func()) *Timer { return newTimer(e, fn) }

func newTimer(s Sched, fn func()) *Timer {
	t := &Timer{s: s, fn: fn}
	// A stale scheduled fire (superseded by a later Reset, or
	// disarmed by Stop) identifies itself by its instant not matching
	// the current deadline; only the live one passes both checks.
	t.fire = func() {
		if !t.armed || t.s.Now() != t.deadline {
			return
		}
		t.armed = false
		t.fn()
	}
	return t
}

// Reset (re)arms the timer to fire after d.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.deadline = t.s.Now() + d
	t.armed = true
	t.s.ScheduleAt(t.deadline, t.fire)
}

// Stop disarms the timer; a pending expiry will not fire.
func (t *Timer) Stop() {
	t.armed = false
}

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.armed }

// Ticker invokes fn every interval until stopped. Like Timer's fire,
// the tick callback is bound once, in newTicker, and every tick
// reschedules that one func value: evaluating the method value t.tick
// per tick would allocate a closure per tick.
type Ticker struct {
	s        Sched
	interval time.Duration
	stopped  bool
	fn       func()
	bound    func() // t.tick
}

// NewTicker starts a ticker with the given interval. The first tick is
// after one full interval unless jitter > 0, in which case the first
// tick is after a uniform random fraction of jitter (used to de-phase
// periodic protocols such as LDP keepalives). Tick events ride the
// engine's root stream and the jitter draws from the root PRNG;
// Domain-backed code should use Proc.NewTicker instead.
func (e *Engine) NewTicker(interval, jitter time.Duration, fn func()) *Ticker {
	return newTicker(e, interval, jitter, fn)
}

func newTicker(s Sched, interval, jitter time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	t.bound = t.tick
	first := interval
	if jitter > 0 {
		first = time.Duration(s.Rand().Int64N(int64(jitter))) + 1
	}
	s.ScheduleAt(s.Now()+first, t.bound)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if t.stopped { // fn may stop the ticker
		return
	}
	t.s.ScheduleAt(t.s.Now()+t.interval, t.bound)
}

// Stop halts the ticker.
func (t *Ticker) Stop() { t.stopped = true }
