package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"portland/internal/ether"
)

// Domain is a set of engine shards advancing under a conservative
// pairwise-lookahead epoch planner.
//
// The fabric's parallelism comes from classic conservative-lookahead
// discrete-event simulation: shards only influence each other through
// links (and control pipes) with a positive propagation delay. The
// planner keeps the minimum registered delay per *directed shard pair*
// (look[src→dst]) and, each epoch, derives for every shard i a safe
// window limit
//
//	limit(i) = min over senders j≠i of (E(j) + look[j→i])
//
// where E(j) is a lower bound on the earliest instant shard j can
// possibly execute anything: the fixed point of
//
//	E(j) = min(nextAt(j), min over k≠j of (E(k) + look[k→j]))
//
// solved by Dijkstra-style relaxation over the shard graph (all
// couplings have positive delay, so the fixed point is reached in one
// pass of settling shards in increasing E order). The transitive
// closure matters: a shard whose wheel is empty is not harmless — it
// can receive a cross-shard event and relay it onward — so its E is
// "infinity" only as a starting value and is pulled down by incoming
// coupling chains. Any event shard i receives is sent by some j
// executing at t ≥ E(j) and arrives at t + delay ≥ E(j) + look[j→i] ≥
// limit(i), so running i through [clock, limit(i)) can never execute
// out of causal order — that is the safety argument DESIGN.md §9
// spells out, and the barrier-violation panic in drainMail enforces.
//
// Pairs with no registered coupling fall back to the global minimum
// delay: ScheduleOn's contract only promises "at least one cross-shard
// delay in the future", and synthetic harnesses exercise exactly that.
// On a fat tree the registered matrix is sparse and hierarchical (pods
// couple only to the core bank), and per-shard windows routinely extend
// past the old global bound. Shards with no event before their limit
// are not woken at all — their clock is parked by the planner thread
// ("quiescent-shard skip") — which is where most of the barrier savings
// come from: the old planner woke every shard at every global-min-wide
// epoch. Per-shard barrier/skip and domain epoch counters (SyncStats)
// make the savings observable.
//
// Cross-shard handoffs are buffered in per-(src,dst) mailboxes and
// drained at the barrier, in deterministic (dst shard, src shard, send
// order) order; the events they enqueue then interleave with
// shard-local work purely by the mode-independent (at, key) order,
// which is what makes a sharded run byte-identical to the serial one
// (see proc.go). Window planning only decides *when* shards
// synchronize, never the (at, key) execution order, so the pairwise
// planner and the global-minimum reference planner the differential
// tests run (planGlobalRef in domain_test.go) produce identical traces.
//
// Events that must observe or mutate several shards at one instant
// (fault injection, scenario brackets, driver tickers) ride the
// Domain's exclusive stream: the window planner never runs a shard
// past the next exclusive timestamp, and at that instant every shard
// is parked at the same virtual time while exclusive and shard-local
// events merge-execute single-threaded in global (at, key) order.
//
// A Domain with one shard degenerates to exactly the serial engine:
// exclusive events inline into the single engine's queue and RunUntil
// delegates, so "serial" in the identity gates is Domain(1), running
// the very same code protocol-side.
type Domain struct {
	seed    uint64
	engines []*Engine
	ranks   *rankSpace
	drv     Proc      // the exclusive stream's identity (rank 1)
	excl    eventHeap // pending exclusive events (multi-shard mode only)

	// look is the global conservative lookahead: the minimum registered
	// cross-shard delay over all pairs. Zero means no cross-shard
	// coupling has been wired, in which case windows are unbounded. It
	// is the fallback bound for directed pairs with no entry in lookM.
	look time.Duration
	// lookM is the pairwise lookahead matrix, indexed [src*shards+dst]:
	// the minimum registered delay for events sent from shard src to
	// shard dst. Zero means no registered coupling for that pair.
	lookM []time.Duration

	out     []xmailbox // cross-shard mailboxes, indexed [src*shards+dst]
	workers int
	counts  []int // per-shard event counts for one parallel window

	// Planner scratch, allocated once in NewDomain (the epoch loop is
	// allocation-free).
	nextAt  []time.Duration // per-shard earliest local timestamp
	nextOk  []bool          // per-shard: nextAt valid (wheel non-empty)
	eot     []time.Duration // per-shard earliest-execution bound E
	settled []bool          // Dijkstra settle flags
	limit   []time.Duration // per-shard window limit (exclusive)
	clockTo []time.Duration // per-shard clock parking point
	runIdx  []int           // shards woken this epoch

	// Synchronization counters (see SyncStats).
	epochs   int64
	instants int64
	barriers []int64
	skips    []int64
	mailRecv []int64
	mailHW   []int64
}

// farFuture is the planner's "no bound" sentinel: later than any
// virtual timestamp a run can reach.
const farFuture = time.Duration(math.MaxInt64)

// xrec is one cross-shard handoff: a frame delivery for a link
// direction, or (dir == nil) a plain callback such as a control-pipe
// delivery. The tie-break key was issued on the sending shard from the
// target entity's stream, so it is the same key the serial run uses.
type xrec struct {
	at  time.Duration
	seq uint64
	dir *direction
	f   *ether.Frame
	fn  func()
}

type xmailbox struct {
	recs []xrec
}

// mailboxCap is the initial per-mailbox capacity. Boxes are reused
// every epoch; a burst beyond the initial capacity grows the box once
// and the larger capacity sticks for the run (amortized fixed size —
// see DESIGN.md §9 for why a hard cap with drop-or-stall semantics
// would break both determinism and the lossless-link contract).
const mailboxCap = 256

// NewDomain returns a Domain of `shards` engine shards sharing one
// rank space, with shard 0's root PRNG seeded exactly as New(seed)
// would (so driver code drawing from Engine(0) behaves identically to
// a standalone engine run). The worker pool defaults to
// min(GOMAXPROCS, shards): a worker beyond the shard count can never
// hold work.
func NewDomain(seed uint64, shards int) *Domain {
	if shards < 1 {
		shards = 1
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > shards {
		workers = shards
	}
	d := &Domain{
		seed:    seed,
		ranks:   &rankSpace{seed: seed, next: 1},
		workers: workers,
		counts:  make([]int, shards),
		lookM:   make([]time.Duration, shards*shards),

		nextAt:   make([]time.Duration, shards),
		nextOk:   make([]bool, shards),
		eot:      make([]time.Duration, shards),
		settled:  make([]bool, shards),
		limit:    make([]time.Duration, shards),
		clockTo:  make([]time.Duration, shards),
		runIdx:   make([]int, 0, shards),
		barriers: make([]int64, shards),
		skips:    make([]int64, shards),
		mailRecv: make([]int64, shards),
		mailHW:   make([]int64, shards),
	}
	d.engines = make([]*Engine, shards)
	for i := range d.engines {
		s := seed
		if i > 0 {
			s = seed ^ (uint64(i) * 0x9e3779b97f4a7c15)
		}
		e := New(s)
		e.ranks = d.ranks
		e.dom = d
		e.shard = i
		d.engines[i] = e
	}
	d.out = make([]xmailbox, shards*shards)
	d.drv = d.engines[0].proc()
	return d
}

// Shards returns the number of engine shards.
func (d *Domain) Shards() int { return len(d.engines) }

// Engine returns shard i's engine.
func (d *Domain) Engine(i int) *Engine { return d.engines[i] }

// SetWorkers bounds how many OS threads advance shards concurrently
// within one epoch, capped at the shard count (a worker beyond that
// can never hold work). Results are identical for every worker count —
// shards share nothing inside a window — so this is purely a
// performance knob (default: min(GOMAXPROCS, shards)).
func (d *Domain) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(d.engines) {
		n = len(d.engines)
	}
	d.workers = n
}

// EffectiveWorkers reports how many workers an epoch can actually use:
// the configured worker bound, which SetWorkers/NewDomain already cap
// at the shard count. Epochs that wake fewer shards than this use
// fewer still.
func (d *Domain) EffectiveWorkers() int { return d.workers }

// Lookahead returns the global conservative lookahead (minimum
// registered cross-shard delay over all pairs), or 0 if no cross-shard
// coupling is wired.
func (d *Domain) Lookahead() time.Duration { return d.look }

// PairLookahead returns the planner's effective bound for events sent
// from shard src to shard dst: the minimum registered delay for that
// directed pair, falling back to the global lookahead when the pair
// has no registered coupling (0 if the domain has no couplings at
// all, meaning "unbounded").
func (d *Domain) PairLookahead(src, dst int) time.Duration {
	return d.pairLook(src, dst)
}

func (d *Domain) pairLook(src, dst int) time.Duration {
	if v := d.lookM[src*len(d.engines)+dst]; v > 0 {
		return v
	}
	return d.look
}

// RegisterLatency declares a coupling between two shards with the
// given one-way delay in both directions, shrinking the pairwise and
// global lookaheads. Same-shard couplings are free and ignored; a
// zero-delay cross-shard coupling is rejected because it would force
// zero-width epochs.
func (d *Domain) RegisterLatency(a, b *Engine, delay time.Duration) {
	d.RegisterLatencyDir(a, b, delay)
	d.RegisterLatencyDir(b, a, delay)
}

// RegisterLatencyDir declares a directed coupling: events sent from
// src's shard to dst's shard arrive at least delay after their send
// instant. Asymmetric media (or a pipe whose two directions were wired
// with different delays) register each direction separately;
// RegisterLatency is the symmetric convenience wrapper.
func (d *Domain) RegisterLatencyDir(src, dst *Engine, delay time.Duration) {
	if src == dst {
		return
	}
	if src.dom != d || dst.dom != d {
		panic("sim: RegisterLatency across domains")
	}
	if delay <= 0 {
		panic(fmt.Sprintf("sim: cross-shard coupling needs positive delay, got %v", delay))
	}
	if src.shard == dst.shard {
		return
	}
	i := src.shard*len(d.engines) + dst.shard
	if cur := d.lookM[i]; cur == 0 || delay < cur {
		d.lookM[i] = delay
	}
	if d.look == 0 || delay < d.look {
		d.look = delay
	}
}

// ShardSync is one shard's synchronization counters.
type ShardSync struct {
	// Barriers counts windows this shard was actually woken into (one
	// runSpan call each).
	Barriers int64
	// Skips counts epochs where the planner parked this shard's clock
	// without waking it (no local event before its window limit).
	Skips int64
	// MailRecv counts cross-shard records drained into this shard.
	MailRecv int64
	// MailHighWater is the largest number of records drained into this
	// shard at a single barrier.
	MailHighWater int64
}

// SyncStats is a snapshot of the domain's synchronization cost: how
// many planning epochs and exclusive instants ran, and per shard how
// many windows it was woken into versus skipped, plus mailbox traffic.
// A serial Domain(1) never plans epochs, so all counters stay zero.
type SyncStats struct {
	// Epochs counts planning rounds (each ends at one barrier).
	Epochs int64
	// Instants counts exclusive merge-execute instants.
	Instants int64
	// Shards holds per-shard counters.
	Shards []ShardSync
}

// SyncStats returns a snapshot of the synchronization counters. Call
// between RunUntil invocations; the snapshot allocates, the counters
// themselves are updated allocation-free inside the epoch loop.
func (d *Domain) SyncStats() SyncStats {
	s := SyncStats{
		Epochs:   d.epochs,
		Instants: d.instants,
		Shards:   make([]ShardSync, len(d.engines)),
	}
	for i := range s.Shards {
		s.Shards[i] = ShardSync{
			Barriers:      d.barriers[i],
			Skips:         d.skips[i],
			MailRecv:      d.mailRecv[i],
			MailHighWater: d.mailHW[i],
		}
	}
	return s
}

// Now returns the domain's virtual time (shard clocks agree whenever
// the domain is at rest between RunUntil calls).
func (d *Domain) Now() time.Duration { return d.engines[0].now }

// Rand returns the exclusive stream's deterministic PRNG.
func (d *Domain) Rand() *rand.Rand { return d.drv.Rand() }

// Schedule runs fn after delay dl on the exclusive stream: at fn's
// instant every shard is parked at the same virtual time and fn may
// touch any of them.
func (d *Domain) Schedule(dl time.Duration, fn func()) {
	if dl < 0 {
		dl = 0
	}
	d.ScheduleAt(d.Now()+dl, fn)
}

// ScheduleAt is Schedule with an absolute timestamp (clamped to now).
func (d *Domain) ScheduleAt(t time.Duration, fn func()) {
	if t < d.Now() {
		t = d.Now()
	}
	ev := event{at: t, seq: d.drv.key(), fn: fn}
	if len(d.engines) == 1 {
		// Single shard: every instant is exclusive; inline into the
		// engine's queue, where the key yields the same global order
		// the multi-shard merge would.
		d.engines[0].enqueue(ev)
		return
	}
	d.excl.push(ev)
}

// NewTimer returns a timer whose expiries run exclusively.
func (d *Domain) NewTimer(fn func()) *Timer { return newTimer(d, fn) }

// NewTicker returns a ticker whose ticks run exclusively; jitter draws
// from the exclusive stream's PRNG.
func (d *Domain) NewTicker(interval, jitter time.Duration, fn func()) *Ticker {
	return newTicker(d, interval, jitter, fn)
}

// Pending returns the number of queued events across all shards, the
// exclusive stream, and undrained mailboxes.
func (d *Domain) Pending() int {
	n := len(d.excl)
	for _, e := range d.engines {
		n += e.queued
	}
	for i := range d.out {
		n += len(d.out[i].recs)
	}
	return n
}

// sendFrame buffers a cross-shard frame delivery in the (src, dst)
// mailbox. Called on the transmitting shard inside a window; the
// record is drained into the receiving shard at the next barrier.
func (d *Domain) sendFrame(src *Engine, dir *direction, at time.Duration, seq uint64, f *ether.Frame) {
	box := &d.out[src.shard*len(d.engines)+dir.proc.eng.shard]
	if box.recs == nil {
		box.recs = make([]xrec, 0, mailboxCap)
	}
	box.recs = append(box.recs, xrec{at: at, seq: seq, dir: dir, f: f})
}

// sendFn buffers a cross-shard callback (control-pipe delivery) in the
// (src, dst) mailbox.
func (d *Domain) sendFn(src, dst *Engine, at time.Duration, seq uint64, fn func()) {
	box := &d.out[src.shard*len(d.engines)+dst.shard]
	if box.recs == nil {
		box.recs = make([]xrec, 0, mailboxCap)
	}
	box.recs = append(box.recs, xrec{at: at, seq: seq, fn: fn})
}

// drainMail moves every buffered cross-shard record into its receiving
// shard's queue, receiver by receiver in (src shard, send order)
// order. The enqueue itself re-establishes global (at, key) order, so
// drain order affects nothing observable; it is fixed anyway so the
// loop (and the per-shard mail counters it maintains) is
// deterministic. A record timestamped before its receiver's clock
// means the epoch that produced it was wider than the lookahead allows
// — the barrier invariant FuzzShardBarrier pins — and is a hard bug,
// not a condition to tolerate.
func (d *Domain) drainMail() {
	n := len(d.engines)
	for di := 0; di < n; di++ {
		rx := d.engines[di]
		got := int64(0)
		for si := 0; si < n; si++ {
			box := &d.out[si*n+di]
			if len(box.recs) == 0 {
				continue
			}
			got += int64(len(box.recs))
			for k := range box.recs {
				rec := &box.recs[k]
				if rec.at < rx.now {
					panic(fmt.Sprintf("sim: barrier violation: shard %d received an event for t=%v with clock at %v (pair look %v, global %v)",
						di, rec.at, rx.now, d.pairLook(si, di), d.look))
				}
				if rec.dir != nil {
					rec.dir.inflight.Push(rec.f)
					rx.enqueue(event{at: rec.at, seq: rec.seq, dir: rec.dir})
				} else {
					rx.enqueue(event{at: rec.at, seq: rec.seq, fn: rec.fn})
				}
			}
			clear(box.recs)
			box.recs = box.recs[:0]
		}
		if got > 0 {
			d.mailRecv[di] += got
			if got > d.mailHW[di] {
				d.mailHW[di] = got
			}
		}
	}
}

// RunUntil executes events with timestamps <= deadline across all
// shards and leaves every shard clock exactly at the deadline. It is
// the domain analogue of Engine.RunUntil and returns the number of
// events executed.
func (d *Domain) RunUntil(deadline time.Duration) int {
	return d.runUntil(deadline, (*Domain).planEpoch)
}

// runUntil is RunUntil with the epoch planner as an argument, so the
// differential tests can run the same loop under a reference planner.
// plan reads nextAt/nextOk, receives the deadline and the hard clip
// (just past the deadline, or the next exclusive instant if sooner)
// and must fill limit, clockTo and runIdx.
func (d *Domain) runUntil(deadline time.Duration, plan func(d *Domain, deadline, hardClip time.Duration)) int {
	if len(d.engines) == 1 {
		return d.engines[0].RunUntil(deadline)
	}
	n := 0
	for {
		d.drainMail()
		// Per-shard earliest timestamps and their exact global minimum.
		m := time.Duration(0)
		found := false
		for i, e := range d.engines {
			t, _, ok := e.head()
			d.nextAt[i], d.nextOk[i] = t, ok
			if ok && (!found || t < m) {
				m, found = t, true
			}
		}
		exclAt := time.Duration(0)
		haveExcl := len(d.excl) > 0
		if haveExcl {
			exclAt = d.excl[0].at
			if !found || exclAt < m {
				m, found = exclAt, true
			}
		}
		if !found || m > deadline {
			for _, e := range d.engines {
				if e.now < deadline {
					e.now = deadline
				}
			}
			return n
		}
		if haveExcl && exclAt == m {
			// Exclusive instant: m is the global minimum, so every
			// shard has already executed everything before m — park
			// every clock at m and merge-execute in global (at, key)
			// order.
			for _, e := range d.engines {
				if e.now < m {
					e.now = m
				}
			}
			d.instants++
			n += d.runInstant(m)
			continue
		}
		// One planned epoch: per-shard windows, then one barrier. Windows
		// are clipped just past the deadline (so deadline-stamped events
		// fire, per RunUntil's inclusive contract) and at the next
		// exclusive instant — the exclusive stream is domain-wide, so its
		// next timestamp is relevant to every shard's window.
		d.epochs++
		hardClip := deadline + 1
		if haveExcl && exclAt < hardClip {
			hardClip = exclAt
		}
		plan(d, deadline, hardClip)
		n += d.runWindows()
	}
}

// planEpoch computes each shard's window limit and clock parking point
// and partitions shards into woken (runIdx) and skipped. The limit is
// hardClip or, if sooner, min over senders j of E(j)+look[j→i], with E
// the Dijkstra-relaxed earliest-execution bound (see the type
// comment for the safety argument). Progress is guaranteed: for the
// shard holding the global minimum m, every other shard's E is ≥ m and
// every coupling delay is positive, so its limit is > m and it always
// wakes with at least one event to run.
//
// Skipped shards have no local event before their limit; the planner
// parks their clock at the window end without waking them. The parking
// point never passes the shard's own next event, the deadline, or the
// window limit, so no event is ever jumped.
func (d *Domain) planEpoch(deadline, hardClip time.Duration) {
	// Earliest-execution bounds E: start from each shard's own next
	// event (farFuture for empty wheels) and relax through coupling
	// chains, settling the smallest unsettled bound each round
	// (Dijkstra over at most `shards` nodes; the matrix is tiny, so
	// the O(shards²) scan beats a heap).
	ns := len(d.engines)
	for i := 0; i < ns; i++ {
		if d.nextOk[i] {
			d.eot[i] = d.nextAt[i]
		} else {
			d.eot[i] = farFuture
		}
		d.settled[i] = false
	}
	for {
		u, best := -1, farFuture
		for i := 0; i < ns; i++ {
			if !d.settled[i] && d.eot[i] < best {
				u, best = i, d.eot[i]
			}
		}
		if u < 0 {
			break
		}
		d.settled[u] = true
		for v := 0; v < ns; v++ {
			if d.settled[v] || v == u {
				continue
			}
			l := d.pairLook(u, v)
			if l <= 0 {
				continue
			}
			if t := best + l; t < d.eot[v] {
				d.eot[v] = t
			}
		}
	}
	d.runIdx = d.runIdx[:0]
	for i := 0; i < ns; i++ {
		arrive := farFuture
		for j := 0; j < ns; j++ {
			if j == i || d.eot[j] == farFuture {
				continue
			}
			l := d.pairLook(j, i)
			if l <= 0 {
				continue
			}
			if t := d.eot[j] + l; t < arrive {
				arrive = t
			}
		}
		limit := hardClip
		if arrive < limit {
			limit = arrive
		}
		clockTo := limit
		if clockTo > deadline {
			clockTo = deadline
		}
		d.limit[i], d.clockTo[i] = limit, clockTo
		if d.nextOk[i] && d.nextAt[i] < limit {
			d.runIdx = append(d.runIdx, i)
			d.barriers[i]++
		} else {
			// Quiescent-shard skip: nothing to run before the limit;
			// park the clock here instead of waking the shard.
			d.skips[i]++
			if e := d.engines[i]; e.now < clockTo {
				e.now = clockTo
			}
		}
	}
}

// runInstant merge-executes every event stamped exactly m — exclusive
// events and all shards' local events — single-threaded in global
// (at, key) order. Fired events may schedule more work at m (on any
// shard: with every clock parked at m, cross-shard scheduling is safe
// here and only here); the loop re-scans until the instant is clean.
func (d *Domain) runInstant(m time.Duration) int {
	n := 0
	for {
		var bestEng *Engine
		bestSeq := uint64(0)
		fromExcl := false
		found := false
		if len(d.excl) > 0 && d.excl[0].at == m {
			bestSeq, fromExcl, found = d.excl[0].seq, true, true
		}
		for _, e := range d.engines {
			if at, seq, ok := e.head(); ok && at == m && (!found || seq < bestSeq) {
				bestEng, bestSeq, fromExcl, found = e, seq, false, true
			}
		}
		if !found {
			return n
		}
		if fromExcl {
			ev := d.excl.pop()
			ev.fire()
		} else {
			bestEng.step(m) // its head is stamped exactly m
		}
		n++
	}
}

// runWindows advances every woken shard through its planned window:
// events < limit[i] fire shard-locally, then clocks park at
// clockTo[i]. With more than one worker, shards advance on separate
// goroutines; they share nothing inside a window, so the result is
// identical for any worker count.
func (d *Domain) runWindows() int {
	rn := len(d.runIdx)
	if rn == 0 {
		return 0
	}
	w := min(d.workers, rn) // never reassigned: the goroutines below capture it by value
	if w <= 1 {
		n := 0
		for _, i := range d.runIdx {
			n += d.engines[i].runSpan(d.limit[i], d.clockTo[i])
		}
		return n
	}
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := worker; j < rn; j += w {
				i := d.runIdx[j]
				d.counts[i] = d.engines[i].runSpan(d.limit[i], d.clockTo[i])
			}
		}(wi)
	}
	wg.Wait()
	n := 0
	for _, i := range d.runIdx {
		n += d.counts[i]
		d.counts[i] = 0
	}
	return n
}

// ScheduleOn schedules fn at absolute time t on the target engine,
// keyed by this Proc's stream. Same-engine targets enqueue directly;
// cross-shard targets ride the domain mailbox and must respect the
// lookahead (t at least the registered pair delay in the future, or
// the global minimum for unregistered pairs), which holds by
// construction for control-pipe deliveries — the only caller.
func (p *Proc) ScheduleOn(target *Engine, t time.Duration, fn func()) {
	if target == p.eng {
		p.ScheduleAt(t, fn)
		return
	}
	d := p.eng.dom
	if d == nil || target.dom != d {
		panic("sim: ScheduleOn across unrelated engines")
	}
	p.eng.dom.sendFn(p.eng, target, t, p.key(), fn)
}
