// Package flowtable is the OpenFlow-style flow cache inside each
// PortLand switch. The paper's switches forward by exact-match flow
// entries installed reactively with soft timeouts (OpenFlow 0.8.9);
// this package reproduces those dynamics: the first packet of a flow
// takes the slow path (PMAC routing logic), installs an entry, and
// subsequent packets hit the cache until it expires or the control
// plane invalidates it after a fault. Table 1's "switch state" is the
// live entry count.
//
// Real switch ASICs do not have unbounded flow memory: a generation's
// exact-match table holds a fixed number of entries (see HARDWARE.md).
// A Table can therefore carry a hard capacity with a pluggable
// eviction policy (LRU or random replacement). Eviction is fully
// deterministic — LRU order is an intrusive list maintained on every
// touch, and random replacement draws from a table-owned splitmix64
// stream seeded at construction — so the same workload evicts the same
// entries run after run, on a serial or sharded engine alike.
package flowtable

import (
	"time"

	"portland/internal/ether"
)

// Key identifies a flow: destination PMAC plus the ECMP flow hash
// (so two flows to the same host can ride different uplinks, exactly
// like per-flow OpenFlow matches).
type Key struct {
	Dst  ether.Addr
	Hash uint32
}

// Policy selects which live entry a full table sacrifices to make room
// for a new install.
type Policy uint8

const (
	// EvictLRU evicts the least-recently-used entry (hit or install
	// both refresh recency). This is the default: it matches how flow
	// caches with idle timeouts age in practice.
	EvictLRU Policy = iota
	// EvictRandom evicts a uniformly random live entry, drawn from the
	// table's own deterministic PRNG — the cheap policy real ASICs fall
	// back to when they keep no recency metadata.
	EvictRandom
)

// String names the policy for reports and tabulated output.
func (p Policy) String() string {
	switch p {
	case EvictLRU:
		return "lru"
	case EvictRandom:
		return "random"
	}
	return "policy?"
}

// Limit is a hard resource bound on a Table. The zero value means
// unbounded (the pre-hardware-model behavior).
type Limit struct {
	// Capacity is the maximum number of live entries; 0 = unbounded.
	Capacity int
	// Policy picks the eviction victim when a new install finds the
	// table full.
	Policy Policy
	// Seed initializes the table-owned PRNG used by EvictRandom. The
	// stream deliberately does NOT come from the engine's per-entity
	// RNG: eviction choices must be a pure function of the table's own
	// history, so engine shard layout cannot change who gets evicted.
	Seed uint64
}

// Stats counts table activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Installs      int64
	Expired       int64
	Evictions     int64 // capacity-pressure evictions (bounded tables only)
	Invalidations int64 // whole-table flushes
}

type entry struct {
	key     Key
	port    int
	expires time.Duration
	hits    int64

	// Intrusive LRU list links and dense-slice index, maintained only
	// when the table is bounded. The list orders entries by recency
	// (head = most recent); the dense slice gives O(1) deterministic
	// uniform victim selection for EvictRandom.
	prev, next *entry
	idx        int
}

// Table is a soft-state flow cache. Not safe for concurrent use (the
// simulator is single-threaded per switch).
type Table struct {
	now     func() time.Duration
	ttl     time.Duration
	entries map[Key]*entry

	lim        Limit
	rng        uint64 // splitmix64 state for EvictRandom
	head, tail *entry // LRU list (nil when unbounded)
	dense      []*entry
	free       *entry // single-slot reuse cache for evicted entries

	// Stats is the table's counter block.
	Stats Stats
}

// DefaultTTL matches the soft timeout the paper's reactive OpenFlow
// entries used (tens of seconds would also be faithful; shorter keeps
// Table 1 counting *active* flows).
const DefaultTTL = 5 * time.Second

// New builds an unbounded table on the given clock. ttl <= 0 takes
// DefaultTTL. Use SetLimit before the first install to bound it.
func New(now func() time.Duration, ttl time.Duration) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Table{now: now, ttl: ttl, entries: make(map[Key]*entry)}
}

// SetLimit bounds the table. It must be called before any entry is
// installed (switch bring-up / recovery), because retrofitting an
// eviction order onto a populated map would depend on map iteration
// order and break determinism.
func (t *Table) SetLimit(lim Limit) {
	if len(t.entries) != 0 {
		panic("flowtable: SetLimit on a non-empty table")
	}
	t.lim = lim
	t.rng = lim.Seed
	t.head, t.tail, t.free = nil, nil, nil
	if lim.Capacity > 0 {
		t.dense = make([]*entry, 0, lim.Capacity)
	} else {
		t.dense = nil
	}
}

// bounded reports whether eviction bookkeeping is active.
func (t *Table) bounded() bool { return t.lim.Capacity > 0 }

// Lookup returns the cached output port for k, refreshing the entry's
// timeout on hit (OpenFlow idle-timeout semantics).
func (t *Table) Lookup(k Key) (int, bool) {
	e, ok := t.entries[k]
	if !ok {
		t.Stats.Misses++
		return 0, false
	}
	now := t.now()
	if now > e.expires {
		t.remove(e)
		t.Stats.Expired++
		t.Stats.Misses++
		return 0, false
	}
	e.expires = now + t.ttl
	e.hits++
	t.Stats.Hits++
	if t.bounded() {
		t.moveFront(e)
	}
	return e.port, true
}

// Install caches the routing decision for k, evicting a victim first
// if the table is at capacity (the new entry always wins — a switch
// that refused the install would punt every packet of the new flow).
func (t *Table) Install(k Key, port int) {
	t.Stats.Installs++
	if e, ok := t.entries[k]; ok {
		e.port = port
		e.expires = t.now() + t.ttl
		if t.bounded() {
			t.moveFront(e)
		}
		return
	}
	if t.bounded() && len(t.entries) >= t.lim.Capacity {
		t.evict()
	}
	e := t.free
	if e != nil {
		t.free = nil
		*e = entry{key: k, port: port, expires: t.now() + t.ttl}
	} else {
		e = &entry{key: k, port: port, expires: t.now() + t.ttl}
	}
	t.entries[k] = e
	if t.bounded() {
		e.idx = len(t.dense)
		t.dense = append(t.dense, e)
		t.pushFront(e)
	}
}

// evict removes one live entry per the configured policy and caches
// the freed object for immediate reuse by the caller's install.
func (t *Table) evict() {
	var victim *entry
	switch t.lim.Policy {
	case EvictRandom:
		victim = t.dense[int(t.nextRand()%uint64(len(t.dense)))]
	default: // EvictLRU
		victim = t.tail
	}
	t.remove(victim)
	t.Stats.Evictions++
	t.free = victim
}

// nextRand advances the table-owned splitmix64 stream.
func (t *Table) nextRand() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// remove deletes e from the map and, when bounded, unlinks it from the
// LRU list and swap-removes it from the dense slice.
func (t *Table) remove(e *entry) {
	delete(t.entries, e.key)
	if !t.bounded() {
		return
	}
	t.unlink(e)
	last := len(t.dense) - 1
	moved := t.dense[last]
	t.dense[e.idx] = moved
	moved.idx = e.idx
	t.dense[last] = nil
	t.dense = t.dense[:last]
}

// pushFront makes e the most-recently-used entry.
func (t *Table) pushFront(e *entry) {
	e.prev = nil
	e.next = t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

// unlink removes e from the LRU list.
func (t *Table) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveFront refreshes e's recency.
func (t *Table) moveFront(e *entry) {
	if t.head == e {
		return
	}
	t.unlink(e)
	t.pushFront(e)
}

// InvalidateAll flushes every entry — the switch's reaction to any
// event that could change routing (port liveness, route exclusions,
// migrations). Coarse but safe; the next packet of each flow re-runs
// the slow path. Returns the number of entries flushed (0 when the
// table was already empty) so callers can journal meaningful flushes.
func (t *Table) InvalidateAll() int {
	n := len(t.entries)
	if n == 0 {
		return 0
	}
	t.entries = make(map[Key]*entry)
	t.head, t.tail, t.free = nil, nil, nil
	if t.bounded() {
		t.dense = t.dense[:0]
	}
	t.Stats.Invalidations++
	return n
}

// Len returns the number of live (unexpired) entries, pruning dead
// ones as a side effect.
func (t *Table) Len() int {
	now := t.now()
	if t.bounded() {
		// Walk the recency list oldest-first so pruning order (and
		// therefore the dense slice's post-prune layout, which seeds
		// EvictRandom's victim choice) never depends on map iteration
		// order.
		for e := t.tail; e != nil; {
			prev := e.prev
			if now > e.expires {
				t.remove(e)
				t.Stats.Expired++
			}
			e = prev
		}
		return len(t.entries)
	}
	for k, e := range t.entries {
		if now > e.expires {
			delete(t.entries, k)
			t.Stats.Expired++
		}
	}
	return len(t.entries)
}

// Occupancy reports live entries over capacity in [0,1]; an unbounded
// table always reports 0 (no pressure by definition).
func (t *Table) Occupancy() float64 {
	if !t.bounded() {
		return 0
	}
	return float64(t.Len()) / float64(t.lim.Capacity)
}
