// Package flowtable is the OpenFlow-style flow cache inside each
// PortLand switch. The paper's switches forward by exact-match flow
// entries installed reactively with soft timeouts (OpenFlow 0.8.9);
// this package reproduces those dynamics: the first packet of a flow
// takes the slow path (PMAC routing logic), installs an entry, and
// subsequent packets hit the cache until it expires or the control
// plane invalidates it after a fault. Table 1's "switch state" is the
// live entry count.
//
// A Table is flat: entries live inline in one slab, recycled through
// an int32 free list, and an open-addressed index (linear probing,
// backward-shift deletion, no tombstones) maps a key to its slab
// slot. The index slot comes from the ECMP flow hash the switch has
// already computed, mixed with the destination by one multiply, so a
// lookup never hashes the key's bytes. There is no per-entry heap object, and a flush clears both
// arrays in place, keeping their capacity for the refill.
//
// Real switch ASICs do not have unbounded flow memory: a generation's
// exact-match table holds a fixed number of entries (see HARDWARE.md).
// A Table can therefore carry a hard capacity with a pluggable
// eviction policy (LRU or random replacement). Eviction is fully
// deterministic — LRU order is an intrusive list over slab slots
// maintained on every touch, and random replacement draws from a
// table-owned splitmix64 stream seeded at construction — so the same
// workload evicts the same entries run after run, on a serial or
// sharded engine alike.
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

// nilRef ends a chain of slab slots: the LRU list, the free list.
const nilRef int32 = -1

// entry is one flow entry, inline in the slab. A free slot's port
// holds the next free slot.
type entry struct {
	key     Key
	port    int32
	expires time.Duration
}

// link is a bounded table's per-slot eviction bookkeeping, parallel to
// the slab: the intrusive LRU list (head = most recent) and the slot's
// position in the dense slice, which gives O(1) deterministic uniform
// victim selection for EvictRandom.
type link struct {
	prev, next int32
	dense      int32
}

// Table is a soft-state flow cache: a slab of entries and an
// open-addressed index over it. An index slot holds 0 (empty) or a
// key's 32-bit tag above its slab slot + 1; the tag's top bits are the
// key's home slot, so probing, growing and backward-shift deletion
// read the index alone, and the slab is read only to confirm a tag
// match. Not safe for concurrent use (the simulator is single-threaded
// per switch).
type Table struct {
	now func() time.Duration
	ttl time.Duration

	slab  []entry
	index []uint64
	n     int   // entries in the slab, expired or not
	free  int32 // free-list head (nilRef: take the slab's next slot)
	shift uint8 // home slot = tag >> shift

	// Eviction state, kept only when capacity > 0. (The fields are
	// ordered to pack: a fabric holds one table per switch.)
	policy     Policy
	head, tail int32 // LRU list
	capacity   int
	rng        uint64 // splitmix64 state for EvictRandom
	links      []link // parallel to slab
	dense      []int32

	// Stats is the table's counter block.
	Stats Stats
}

// DefaultTTL matches the soft timeout the paper's reactive OpenFlow
// entries used (tens of seconds would also be faithful; shorter keeps
// Table 1 counting *active* flows).
const DefaultTTL = 5 * time.Second

// Sizes of a table's first slab and index allocations; each doubles
// when full (the index at three-quarters load).
const (
	minSlab      = 8
	minIndexBits = 4
)

// New builds an unbounded table on the given clock. ttl <= 0 takes
// DefaultTTL. Use SetLimit before the first install to bound it.
func New(now func() time.Duration, ttl time.Duration) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Table{now: now, ttl: ttl, free: nilRef}
}

// SetLimit bounds the table. It must be called before any entry is
// installed (switch bring-up / recovery), because an eviction order
// retrofitted onto a populated table would not follow its history.
func (t *Table) SetLimit(lim Limit) {
	if t.n != 0 {
		panic("flowtable: SetLimit on a non-empty table")
	}
	t.capacity, t.policy, t.rng = lim.Capacity, lim.Policy, lim.Seed
	t.slab, t.free = t.slab[:0], nilRef
	t.head, t.tail = nilRef, nilRef
	t.links, t.dense = nil, nil
	if lim.Capacity > 0 {
		t.links = make([]link, 0, cap(t.slab))
		t.dense = make([]int32, 0, lim.Capacity)
	}
}

// bounded reports whether eviction bookkeeping is active.
func (t *Table) bounded() bool { return t.capacity > 0 }

// tag hashes k to the 32 bits its index slot keeps: the flow hash
// XORed with the destination shifted up 16 bits, through one Fibonacci
// multiply whose high half every input bit reaches.
func (k Key) tag() uint32 {
	d := k.Dst
	dst := uint64(d[0]) | uint64(d[1])<<8 | uint64(d[2])<<16 | uint64(d[3])<<24 | uint64(d[4])<<32 | uint64(d[5])<<40
	return uint32((uint64(k.Hash) ^ dst<<16) * 0x9e3779b97f4a7c15 >> 32)
}

// find returns k's slab slot, or nilRef.
func (t *Table) find(k Key) int32 {
	if t.n == 0 {
		return nilRef
	}
	tag := k.tag()
	mask := len(t.index) - 1
	for i := int(tag >> t.shift); ; i = (i + 1) & mask {
		s := t.index[i]
		if s == 0 {
			return nilRef
		}
		if uint32(s>>32) == tag {
			if ref := int32(uint32(s)) - 1; t.slab[ref].key == k {
				return ref
			}
		}
	}
}

// Lookup returns the cached output port for k, refreshing the entry's
// timeout on hit (OpenFlow idle-timeout semantics).
func (t *Table) Lookup(k Key) (int, bool) {
	ref := t.find(k)
	if ref == nilRef {
		t.Stats.Misses++
		return 0, false
	}
	e := &t.slab[ref]
	now := t.now()
	if now > e.expires {
		t.remove(ref)
		t.Stats.Expired++
		t.Stats.Misses++
		return 0, false
	}
	e.expires = now + t.ttl
	t.Stats.Hits++
	if t.bounded() {
		t.moveFront(ref)
	}
	return int(e.port), true
}

// Install caches the routing decision for k, evicting a victim first
// if the table is at capacity (the new entry always wins — a switch
// that refused the install would punt every packet of the new flow).
func (t *Table) Install(k Key, port int) {
	t.Stats.Installs++
	if ref := t.find(k); ref != nilRef {
		e := &t.slab[ref]
		e.port = int32(port)
		e.expires = t.now() + t.ttl
		if t.bounded() {
			t.moveFront(ref)
		}
		return
	}
	if t.bounded() && t.n >= t.capacity {
		t.evict()
	}
	ref := t.alloc()
	t.slab[ref] = entry{key: k, port: int32(port), expires: t.now() + t.ttl}
	t.insert(k.tag(), ref)
	if t.bounded() {
		t.links[ref].dense = int32(len(t.dense))
		t.dense = append(t.dense, ref)
		t.pushFront(ref)
	}
}

// alloc returns a slab slot for a new entry: the most recently freed
// one, else the next unused one, doubling the slab (never past a
// bounded table's capacity) when it is full.
func (t *Table) alloc() int32 {
	t.n++
	if ref := t.free; ref != nilRef {
		t.free = t.slab[ref].port
		return ref
	}
	n := len(t.slab)
	if n == cap(t.slab) {
		c := max(minSlab, 2*n)
		if t.bounded() {
			c = min(c, t.capacity)
			t.links = append(make([]link, 0, c), t.links...)
		}
		t.slab = append(make([]entry, 0, c), t.slab...)
	}
	t.slab = t.slab[:n+1]
	if t.bounded() {
		t.links = t.links[:n+1]
	}
	return int32(n)
}

// insert indexes slab slot ref under tag, doubling the index first if
// the new entry would load it past three quarters. (t.n already counts
// the entry.)
func (t *Table) insert(tag uint32, ref int32) {
	if 4*t.n > 3*len(t.index) {
		// The tags carry every home slot: rehashing reads no entry.
		bits := uint8(minIndexBits)
		if t.index != nil {
			bits = 33 - t.shift
		}
		old := t.index
		t.index, t.shift = make([]uint64, 1<<bits), 32-bits
		for _, s := range old {
			if s != 0 {
				t.place(s)
			}
		}
	}
	t.place(uint64(tag)<<32 | uint64(ref+1))
}

// place stores index slot value s in the first empty slot from its
// home on.
func (t *Table) place(s uint64) {
	mask := len(t.index) - 1
	i := int(uint32(s>>32) >> t.shift)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = s
}

// evict removes one live entry per the configured policy; the caller's
// install takes its slab slot from the free list.
func (t *Table) evict() {
	var victim int32
	switch t.policy {
	case EvictRandom:
		victim = t.dense[int(t.nextRand()%uint64(len(t.dense)))]
	default: // EvictLRU
		victim = t.tail
	}
	t.remove(victim)
	t.Stats.Evictions++
}

// nextRand advances the table-owned splitmix64 stream.
func (t *Table) nextRand() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// remove deletes the entry in slab slot ref.
func (t *Table) remove(ref int32) {
	mask := len(t.index) - 1
	i := int(t.slab[ref].key.tag() >> t.shift)
	for uint32(t.index[i]) != uint32(ref+1) {
		i = (i + 1) & mask
	}
	t.removeAt(i)
}

// removeAt deletes the entry index slot hole points at: it closes the
// hole by backward shift, when bounded unlinks the entry from the LRU
// list and swap-removes it from the dense slice, and frees its slab
// slot.
func (t *Table) removeAt(hole int) {
	ref := int32(uint32(t.index[hole])) - 1
	// Pull each later member of the probe cluster back into the hole
	// unless that would put it before its home slot.
	mask := len(t.index) - 1
	for i := (hole + 1) & mask; t.index[i] != 0; i = (i + 1) & mask {
		home := int(uint32(t.index[i]>>32) >> t.shift)
		if (i-home)&mask >= (i-hole)&mask {
			t.index[hole] = t.index[i]
			hole = i
		}
	}
	t.index[hole] = 0

	if t.bounded() {
		t.unlink(ref)
		d := t.links[ref].dense
		last := len(t.dense) - 1
		moved := t.dense[last]
		t.dense[d] = moved
		t.links[moved].dense = d
		t.dense = t.dense[:last]
	}
	t.slab[ref].port = t.free
	t.free = ref
	t.n--
}

// pushFront makes ref the most-recently-used entry.
func (t *Table) pushFront(ref int32) {
	l := &t.links[ref]
	l.prev = nilRef
	l.next = t.head
	if t.head != nilRef {
		t.links[t.head].prev = ref
	}
	t.head = ref
	if t.tail == nilRef {
		t.tail = ref
	}
}

// unlink removes ref from the LRU list.
func (t *Table) unlink(ref int32) {
	l := &t.links[ref]
	if l.prev != nilRef {
		t.links[l.prev].next = l.next
	} else {
		t.head = l.next
	}
	if l.next != nilRef {
		t.links[l.next].prev = l.prev
	} else {
		t.tail = l.prev
	}
}

// moveFront refreshes ref's recency.
func (t *Table) moveFront(ref int32) {
	if t.head == ref {
		return
	}
	t.unlink(ref)
	t.pushFront(ref)
}

// InvalidateAll flushes every entry — the switch's reaction to any
// event that could change routing (port liveness, route exclusions,
// migrations). Coarse but safe; the next packet of each flow re-runs
// the slow path. The slab and index are cleared in place and keep
// their capacity for the refill. Returns the number of entries flushed
// (0 when the table was already empty) so callers can journal
// meaningful flushes.
func (t *Table) InvalidateAll() int {
	n := t.n
	if n == 0 {
		return 0
	}
	clear(t.index)
	t.slab, t.free, t.n = t.slab[:0], nilRef, 0
	if t.bounded() {
		t.links, t.dense = t.links[:0], t.dense[:0]
		t.head, t.tail = nilRef, nilRef
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
		// EvictRandom's victim choice) is a function of the table's
		// history alone.
		for ref := t.tail; ref != nilRef; {
			prev := t.links[ref].prev
			if now > t.slab[ref].expires {
				t.remove(ref)
				t.Stats.Expired++
			}
			ref = prev
		}
		return t.n
	}
	// A removal shifts later cluster members back into slot i, so i
	// advances only past a live entry; an entry shifted from past the
	// wrap to behind i was already seen live.
	for i := 0; i < len(t.index); {
		if s := t.index[i]; s != 0 && now > t.slab[uint32(s)-1].expires {
			t.removeAt(i)
			t.Stats.Expired++
			continue
		}
		i++
	}
	return t.n
}

// Occupancy reports live entries over capacity in [0,1]; an unbounded
// table always reports 0 (no pressure by definition).
func (t *Table) Occupancy() float64 {
	if !t.bounded() {
		return 0
	}
	return float64(t.Len()) / float64(t.capacity)
}
