package flowtable

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"portland/internal/ether"
)

type clock struct{ t time.Duration }

func (c *clock) now() time.Duration { return c.t }

func TestLookupInstallExpiry(t *testing.T) {
	c := &clock{}
	tb := New(c.now, time.Second)
	k := Key{Dst: ether.Addr{1}, Hash: 42}
	if _, ok := tb.Lookup(k); ok {
		t.Fatal("hit on empty table")
	}
	tb.Install(k, 3)
	if p, ok := tb.Lookup(k); !ok || p != 3 {
		t.Fatalf("lookup %d %v", p, ok)
	}
	// Idle timeout refresh: repeated hits keep the entry alive past
	// the original TTL.
	for i := 0; i < 5; i++ {
		c.t += 800 * time.Millisecond
		if _, ok := tb.Lookup(k); !ok {
			t.Fatal("entry expired despite activity")
		}
	}
	// Idle past TTL: gone.
	c.t += 1100 * time.Millisecond
	if _, ok := tb.Lookup(k); ok {
		t.Fatal("idle entry survived")
	}
	if tb.Stats.Expired != 1 || tb.Stats.Installs != 1 {
		t.Fatalf("stats %+v", tb.Stats)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := &clock{}
	tb := New(c.now, 0)
	for i := 0; i < 10; i++ {
		tb.Install(Key{Dst: ether.Addr{byte(i)}}, i)
	}
	if tb.Len() != 10 {
		t.Fatal("len")
	}
	tb.InvalidateAll()
	if tb.Len() != 0 || tb.Stats.Invalidations != 1 {
		t.Fatalf("after invalidate: len=%d stats=%+v", tb.Len(), tb.Stats)
	}
	tb.InvalidateAll() // empty: not counted
	if tb.Stats.Invalidations != 1 {
		t.Fatal("empty invalidation counted")
	}
}

func TestLenPrunes(t *testing.T) {
	c := &clock{}
	tb := New(c.now, time.Second)
	tb.Install(Key{Dst: ether.Addr{1}}, 1)
	tb.Install(Key{Dst: ether.Addr{2}}, 2)
	c.t = 2 * time.Second
	if tb.Len() != 0 {
		t.Fatal("expired entries counted")
	}
	if tb.Stats.Expired != 2 {
		t.Fatalf("stats %+v", tb.Stats)
	}
}

func TestFlowKeysIndependent(t *testing.T) {
	c := &clock{}
	tb := New(c.now, 0)
	dst := ether.Addr{9}
	tb.Install(Key{Dst: dst, Hash: 1}, 2)
	tb.Install(Key{Dst: dst, Hash: 7}, 3)
	if p, _ := tb.Lookup(Key{Dst: dst, Hash: 1}); p != 2 {
		t.Fatal("hash 1")
	}
	if p, _ := tb.Lookup(Key{Dst: dst, Hash: 7}); p != 3 {
		t.Fatal("hash 7")
	}
}

func TestLRUEviction(t *testing.T) {
	c := &clock{}
	tb := New(c.now, time.Minute)
	tb.SetLimit(Limit{Capacity: 3, Policy: EvictLRU})
	k := func(i int) Key { return Key{Dst: ether.Addr{byte(i)}} }
	tb.Install(k(1), 1)
	tb.Install(k(2), 2)
	tb.Install(k(3), 3)
	// Touch 1 so 2 becomes the LRU victim.
	c.t += time.Millisecond
	if _, ok := tb.Lookup(k(1)); !ok {
		t.Fatal("warm entry missing")
	}
	tb.Install(k(4), 4)
	if _, ok := tb.Lookup(k(2)); ok {
		t.Fatal("LRU victim survived")
	}
	for _, i := range []int{1, 3, 4} {
		if _, ok := tb.Lookup(k(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if tb.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", tb.Stats.Evictions)
	}
	if tb.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", tb.Len())
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	for _, pol := range []Policy{EvictLRU, EvictRandom} {
		c := &clock{}
		tb := New(c.now, time.Minute)
		tb.SetLimit(Limit{Capacity: 16, Policy: pol, Seed: 7})
		for i := 0; i < 500; i++ {
			tb.Install(Key{Dst: ether.Addr{byte(i), byte(i >> 8)}}, i)
			if tb.Len() > 16 {
				t.Fatalf("%v: len %d exceeds capacity", pol, tb.Len())
			}
		}
		if tb.Stats.Evictions != 500-16 {
			t.Fatalf("%v: evictions = %d, want %d", pol, tb.Stats.Evictions, 500-16)
		}
		if tb.Occupancy() != 1 {
			t.Fatalf("%v: occupancy = %v, want 1", pol, tb.Occupancy())
		}
	}
}

// TestRandomEvictionDeterministic pins the eviction-determinism
// contract at the unit level: two tables fed the identical install
// sequence from the same seed must evict the identical victims — the
// PRNG is table-owned, so nothing about engine scheduling or shard
// layout can perturb it. (The fabric-level version of this contract is
// TestEvictionShardIdentity in internal/core.)
func TestRandomEvictionDeterministic(t *testing.T) {
	run := func() []Key {
		c := &clock{}
		tb := New(c.now, time.Minute)
		tb.SetLimit(Limit{Capacity: 8, Policy: EvictRandom, Seed: 99})
		for i := 0; i < 100; i++ {
			c.t += time.Microsecond
			tb.Install(Key{Dst: ether.Addr{byte(i)}, Hash: uint32(i)}, i)
		}
		var live []Key
		for ref := tb.tail; ref != nilRef; ref = tb.links[ref].prev {
			live = append(live, tb.slab[ref].key)
		}
		return live
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 8 {
		t.Fatalf("live sets differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("survivor %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestBoundedPruneAndReuse exercises the remove/reinstall machinery:
// expiry pruning under a bound must keep the LRU list, dense slice,
// and map consistent.
func TestBoundedPruneAndReuse(t *testing.T) {
	c := &clock{}
	tb := New(c.now, time.Second)
	tb.SetLimit(Limit{Capacity: 4, Policy: EvictLRU})
	for i := 0; i < 4; i++ {
		tb.Install(Key{Dst: ether.Addr{byte(i)}}, i)
	}
	c.t = 2 * time.Second // everything expires
	if tb.Len() != 0 {
		t.Fatalf("len after expiry = %d", tb.Len())
	}
	if tb.Stats.Expired != 4 {
		t.Fatalf("expired = %d", tb.Stats.Expired)
	}
	for i := 10; i < 14; i++ {
		tb.Install(Key{Dst: ether.Addr{byte(i)}}, i)
	}
	if tb.Len() != 4 || tb.Stats.Evictions != 0 {
		t.Fatalf("reinstall after prune: len=%d stats=%+v", tb.Len(), tb.Stats)
	}
	tb.InvalidateAll()
	if tb.Len() != 0 || tb.Occupancy() != 0 {
		t.Fatal("invalidate left residue")
	}
	tb.Install(Key{Dst: ether.Addr{42}}, 1)
	if tb.Len() != 1 {
		t.Fatal("install after invalidate")
	}
}

// refTable is the obvious flow table the flat Table must behave as: a
// map of entries, recency as a slice of keys (most recent first) and
// the random-eviction slice as another, each updated the slow way.
type refTable struct {
	now     func() time.Duration
	ttl     time.Duration
	lim     Limit
	rng     uint64
	entries map[Key]*refEntry
	lru     []Key
	dense   []Key
	stats   Stats
}

type refEntry struct {
	port    int
	expires time.Duration
}

func newRefTable(now func() time.Duration, ttl time.Duration, lim Limit) *refTable {
	return &refTable{now: now, ttl: ttl, lim: lim, rng: lim.Seed, entries: map[Key]*refEntry{}}
}

func (r *refTable) bounded() bool { return r.lim.Capacity > 0 }

func (r *refTable) touch(k Key) {
	r.lru = slices.Insert(slices.DeleteFunc(r.lru, func(x Key) bool { return x == k }), 0, k)
}

func (r *refTable) remove(k Key) {
	delete(r.entries, k)
	if !r.bounded() {
		return
	}
	r.lru = slices.DeleteFunc(r.lru, func(x Key) bool { return x == k })
	i := slices.Index(r.dense, k)
	r.dense[i] = r.dense[len(r.dense)-1]
	r.dense = r.dense[:len(r.dense)-1]
}

func (r *refTable) Lookup(k Key) (int, bool) {
	e, ok := r.entries[k]
	if !ok {
		r.stats.Misses++
		return 0, false
	}
	if r.now() > e.expires {
		r.remove(k)
		r.stats.Expired++
		r.stats.Misses++
		return 0, false
	}
	e.expires = r.now() + r.ttl
	r.stats.Hits++
	if r.bounded() {
		r.touch(k)
	}
	return e.port, true
}

// Install returns the key it evicted, if any.
func (r *refTable) Install(k Key, port int) (victim Key, evicted bool) {
	r.stats.Installs++
	if e, ok := r.entries[k]; ok {
		e.port, e.expires = port, r.now()+r.ttl
		if r.bounded() {
			r.touch(k)
		}
		return
	}
	if r.bounded() && len(r.entries) >= r.lim.Capacity {
		if r.lim.Policy == EvictRandom {
			r.rng += 0x9e3779b97f4a7c15
			z := r.rng
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			victim = r.dense[(z^(z>>31))%uint64(len(r.dense))]
		} else {
			victim = r.lru[len(r.lru)-1]
		}
		r.remove(victim)
		r.stats.Evictions++
		evicted = true
	}
	r.entries[k] = &refEntry{port: port, expires: r.now() + r.ttl}
	if r.bounded() {
		r.dense = append(r.dense, k)
		r.touch(k)
	}
	return
}

func (r *refTable) InvalidateAll() int {
	n := len(r.entries)
	if n == 0 {
		return 0
	}
	r.entries = map[Key]*refEntry{}
	r.lru, r.dense = nil, nil
	r.stats.Invalidations++
	return n
}

func (r *refTable) Len() int {
	if r.bounded() {
		oldest := slices.Clone(r.lru)
		slices.Reverse(oldest)
		for _, k := range oldest {
			if r.now() > r.entries[k].expires {
				r.remove(k)
				r.stats.Expired++
			}
		}
		return len(r.entries)
	}
	for k, e := range r.entries {
		if r.now() > e.expires {
			r.remove(k)
			r.stats.Expired++
		}
	}
	return len(r.entries)
}

func (r *refTable) Occupancy() float64 {
	if !r.bounded() {
		return 0
	}
	return float64(r.Len()) / float64(r.lim.Capacity)
}

// modelKeys is the reference test's key pool: six destinations that
// share eight flow hashes (equal Hash, different Dst), and 24 keys
// whose tags all home in the index's last sixteenth at every size, so
// their probe clusters run off the end and wrap to slot 0.
func modelKeys() []Key {
	var keys []Key
	for d := 0; d < 6; d++ {
		for h := uint32(0); h < 8; h++ {
			keys = append(keys, Key{Dst: ether.Addr{2, 0, 0, 0, byte(d >> 1), byte(d)}, Hash: h * 0x01000193})
		}
	}
	for h := uint32(1); len(keys) < 48+24; h++ {
		if k := (Key{Dst: ether.Addr{2, 0, 0, 1}, Hash: h}); k.tag()>>28 == 0xf {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkAgainst compares everything t holds with the reference: the
// live entries (key, port, expiry), each findable through the index,
// the recency list and the dense slice in order, and the counters. It
// returns how many index slots hold a key that wrapped past the end.
func checkAgainst(t *testing.T, step int, tb *Table, ref *refTable) (wrapped int) {
	t.Helper()
	if tb.Stats != ref.stats {
		t.Fatalf("step %d: stats %+v, reference %+v", step, tb.Stats, ref.stats)
	}
	seen := map[int32]bool{}
	for i, s := range tb.index {
		if s == 0 {
			continue
		}
		slot := int32(uint32(s)) - 1
		e := tb.slab[slot]
		want, ok := ref.entries[e.key]
		if !ok || int(e.port) != want.port || e.expires != want.expires || seen[slot] {
			t.Fatalf("step %d: entry %+v, reference %+v (present %v, indexed twice %v)", step, e, want, ok, seen[slot])
		}
		seen[slot] = true
		if got := tb.find(e.key); got != slot {
			t.Fatalf("step %d: key %+v in slab slot %d, index finds %d", step, e.key, slot, got)
		}
		if int(uint32(s>>32)>>tb.shift) > i {
			wrapped++
		}
	}
	if len(seen) != tb.n || tb.n != len(ref.entries) {
		t.Fatalf("step %d: %d indexed entries (n=%d), reference %d", step, len(seen), tb.n, len(ref.entries))
	}
	if tb.bounded() {
		var lru, dense []Key
		for r := tb.head; r != nilRef; r = tb.links[r].next {
			lru = append(lru, tb.slab[r].key)
		}
		for _, r := range tb.dense {
			dense = append(dense, tb.slab[r].key)
		}
		if !slices.Equal(lru, ref.lru) || !slices.Equal(dense, ref.dense) {
			t.Fatalf("step %d: recency %v dense %v\nreference recency %v dense %v", step, lru, dense, ref.lru, ref.dense)
		}
	}
	return wrapped
}

// TestTableMatchesReference drives the flat table and refTable with
// the same seeded operation sequences — installs, lookups, clock steps
// within and past the TTL, flushes, Len and Occupancy — unbounded and
// under both eviction policies, and compares every return value, each
// eviction's victim and the whole state after every operation. An
// off-by-one in backward-shift deletion (`>` for `>=` in remove's
// shift test, which leaves behind an entry whose home is the hole)
// strands a key past an empty slot, and this fails at step 107 of the
// first run.
func TestTableMatchesReference(t *testing.T) {
	const ttl = 100 * time.Millisecond
	keys := modelKeys()
	limits := []Limit{{}, {Capacity: 20}, {Capacity: 20, Policy: EvictRandom, Seed: 5}, {Capacity: 3}, {Capacity: 3, Policy: EvictRandom, Seed: 6}}
	for _, lim := range limits {
		for seed := int64(1); seed <= 4; seed++ {
			c := &clock{}
			tb := New(c.now, ttl)
			tb.SetLimit(lim)
			ref := newRefTable(c.now, ttl, lim)
			rng := rand.New(rand.NewSource(seed))
			wrapped := 0
			for step := 0; step < 4000; step++ {
				k := keys[rng.Intn(len(keys))]
				switch op := rng.Intn(100); {
				case op < 40:
					p, ok := tb.Lookup(k)
					if wp, wok := ref.Lookup(k); p != wp || ok != wok {
						t.Fatalf("%+v seed %d step %d: Lookup(%v) = %d %v, reference %d %v", lim, seed, step, k, p, ok, wp, wok)
					}
				case op < 78:
					port := rng.Intn(48)
					victim, evicted := ref.Install(k, port)
					tb.Install(k, port)
					if evicted && tb.find(victim) != nilRef {
						t.Fatalf("%+v seed %d step %d: victim %v survived", lim, seed, step, victim)
					}
				case op < 88:
					c.t += time.Duration(rng.Int63n(int64(ttl / 4)))
				case op < 91:
					c.t += ttl + time.Duration(rng.Int63n(int64(ttl)))
				case op < 95:
					if n, want := tb.Len(), ref.Len(); n != want {
						t.Fatalf("%+v seed %d step %d: Len %d, reference %d", lim, seed, step, n, want)
					}
				case op < 98:
					if o, want := tb.Occupancy(), ref.Occupancy(); o != want {
						t.Fatalf("%+v seed %d step %d: Occupancy %v, reference %v", lim, seed, step, o, want)
					}
				default:
					if n, want := tb.InvalidateAll(), ref.InvalidateAll(); n != want {
						t.Fatalf("%+v seed %d step %d: InvalidateAll %d, reference %d", lim, seed, step, n, want)
					}
				}
				wrapped += checkAgainst(t, step, tb, ref)
			}
			if wrapped == 0 {
				t.Errorf("%+v seed %d: no probe cluster wrapped past the index's end", lim, seed)
			}
		}
	}
}
