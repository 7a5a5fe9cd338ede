package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"portland/internal/ether"
)

// Event keys. Ties between simultaneous events are broken by a 64-bit
// key whose high bits are the scheduling entity's rank (allocated once
// at construction time, identically for every shard layout) and whose
// low bits are a per-entity counter. Two events of the same entity
// therefore order by issue order, and events of different entities
// order by construction order — never by global insertion order, which
// would differ between a serial and a sharded run. The engine root
// stream (Engine.ScheduleAt and the timers built on it) is rank 0 with
// a bare counter: root events order among themselves by insertion and
// ahead of every entity's events at the same instant.
const (
	ctrBits = 36
	ctrMask = (uint64(1) << ctrBits) - 1
	maxRank = (uint64(1) << (64 - ctrBits)) - 1
)

// rankSpace allocates entity ranks. A standalone engine owns a private
// space; every engine of a Domain shares the Domain's, so an entity's
// rank depends only on construction order — not on which shard it
// landed on.
type rankSpace struct {
	seed uint64
	next uint64
}

func (r *rankSpace) alloc() uint64 {
	rank := r.next
	if rank > maxRank {
		panic(fmt.Sprintf("sim: rank space exhausted (%d entities)", rank))
	}
	r.next++
	return rank
}

// procRNG derives the deterministic per-entity PRNG for rank. The
// stream depends only on (space seed, rank): a fabric built serial and
// a fabric built sharded hand every entity the same stream.
func procRNG(seed, rank uint64) *rand.Rand {
	s := seed + rank*0x9e3779b97f4a7c15
	return rand.New(rand.NewPCG(s, s^0x6a09e667f3bcc909))
}

// Sched is the scheduling surface shared by Engine (root stream),
// Proc (one entity's stream on one shard) and Domain (the exclusive,
// all-shard stream). Protocol code programs against whichever it is
// handed; the choice decides which RNG stream the code draws from and
// which tie-break rank its events carry.
type Sched interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Rand returns this scheduler's deterministic PRNG stream.
	Rand() *rand.Rand
	// Schedule runs fn after delay d of virtual time.
	Schedule(d time.Duration, fn func())
	// ScheduleAt runs fn at absolute virtual time t (clamped to now).
	ScheduleAt(t time.Duration, fn func())
	// NewTimer returns an unarmed timer that will call fn when it fires.
	NewTimer(fn func()) *Timer
	// NewTicker starts a ticker with the given interval and first-tick
	// jitter.
	NewTicker(interval, jitter time.Duration, fn func()) *Ticker
}

// Proc is one simulated entity's scheduling identity: a tie-break rank,
// an event counter, and a private PRNG stream, bound to the engine
// (shard) the entity lives on. Everything a node schedules or draws
// through its Proc is independent of every other entity, which is what
// makes a sharded run byte-identical to a serial one — the interleaving
// of *other* entities' work can no longer perturb this entity's timers,
// coins, or tie-breaks.
//
// A Proc is single-owner: only code running on its engine's shard may
// call its methods (the one exception is the link-direction Proc, whose
// counter is advanced by the transmitting shard while its RNG is built
// and drawn by the receiving shard — disjoint fields, disjoint phases).
type Proc struct {
	eng  *Engine
	rank uint64
	ctr  uint64
	rng  *rand.Rand // nil until the first Rand
}

// NewProc allocates the next entity rank in this engine's rank space
// (the Domain's space, for a Domain engine) and binds it to the engine.
func (e *Engine) NewProc() *Proc { p := e.proc(); return &p }

// proc is NewProc by value, for owners that embed their Proc (a link
// direction).
func (e *Engine) proc() Proc { return Proc{eng: e, rank: e.ranks.alloc()} }

// Engine returns the engine (shard) this Proc schedules on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time of the Proc's engine.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Rand returns the entity's private deterministic PRNG. It is built on
// the first call, from the same (space seed, rank) an eager build would
// use, so the stream is the same whenever it starts; an entity that
// never draws (a loss-free link) never pays for one. Only code on the
// Proc's own shard may call it.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = procRNG(p.eng.ranks.seed, p.rank)
	}
	return p.rng
}

// FramePool returns the frame free-list of the Proc's engine.
func (p *Proc) FramePool() *ether.FramePool { return &p.eng.pool }

// key issues the next tie-break key: rank in the high bits, issue
// counter in the low bits.
func (p *Proc) key() uint64 {
	p.ctr++
	if p.ctr > ctrMask {
		panic("sim: per-entity event counter overflow")
	}
	return p.rank<<ctrBits | p.ctr
}

// Schedule implements Sched.
func (p *Proc) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	p.ScheduleAt(p.eng.now+d, fn)
}

// ScheduleAt implements Sched.
func (p *Proc) ScheduleAt(t time.Duration, fn func()) {
	if t < p.eng.now {
		t = p.eng.now
	}
	p.eng.enqueue(event{at: t, seq: p.key(), fn: fn})
}

// NewTimer implements Sched: the timer's expiries carry this entity's
// rank.
func (p *Proc) NewTimer(fn func()) *Timer { return newTimer(p, fn) }

// NewTicker implements Sched: tick events carry this entity's rank and
// the first-tick jitter draws from the entity's own stream.
func (p *Proc) NewTicker(interval, jitter time.Duration, fn func()) *Ticker {
	return newTicker(p, interval, jitter, fn)
}
