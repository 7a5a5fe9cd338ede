package flowtable

import (
	"testing"
	"time"

	"portland/internal/ether"
)

// pressureCap is the bounded table's capacity in the pressure rig.
const pressureCap = 1024

// pressureRig returns a table bounded at pressureCap under the given
// policy (capacity 0 = the unbounded control) and a cyclic working set
// four times larger — the worst case for LRU (every lookup misses once
// the cycle wraps) and a uniform victim stream for random eviction.
func pressureRig(capacity int, policy Policy) (*Table, []Key) {
	c := &clock{}
	tb := New(c.now, time.Minute)
	tb.SetLimit(Limit{Capacity: capacity, Policy: policy, Seed: 99})
	keys := make([]Key, 4*pressureCap)
	for i := range keys {
		keys[i] = Key{Dst: ether.Addr{2, byte(i >> 16), byte(i >> 8), byte(i)}, Hash: uint32(i)}
	}
	return tb, keys
}

// touch is the rig's unit of work: step i of the cycle looks its key
// up and installs it on a miss.
func touch(tb *Table, keys []Key, i int) {
	k := keys[i%len(keys)]
	if _, ok := tb.Lookup(k); !ok {
		tb.Install(k, i&15)
	}
}

// TestTablePressureSteadyState pins what is exact about a bounded
// table under pressure, for both eviction policies: once the cycle has
// wrapped the table sits at exactly its capacity (Occupancy 1 — a
// bounded table that isn't full isn't under pressure, one that is
// over-full isn't bounded), it got there by evicting, and a
// lookup+install step reuses the victim's slab slot, so it allocates
// nothing.
func TestTablePressureSteadyState(t *testing.T) {
	for _, policy := range []Policy{EvictLRU, EvictRandom} {
		tb, keys := pressureRig(pressureCap, policy)
		i := 0
		for ; i < 2*len(keys); i++ {
			touch(tb, keys, i)
		}
		allocs := testing.AllocsPerRun(len(keys), func() {
			touch(tb, keys, i)
			i++
		})
		if occ := tb.Occupancy(); occ != 1 {
			t.Errorf("%v: occupancy %v (%d entries), want exactly 1", policy, occ, tb.Len())
		}
		if tb.Stats.Evictions == 0 {
			t.Errorf("%v: no evictions with a working set of 4x capacity", policy)
		}
		if allocs != 0 {
			t.Errorf("%v: %.2f allocs per steady-state lookup+install, want 0", policy, allocs)
		}
	}
}

// TestTableFlushRefillAllocFree pins the fault path's cache cycle on
// an unbounded table: a flush keeps the slab's and the index's
// capacity, so installing the same working set again, flushing, and
// installing it again allocates nothing.
func TestTableFlushRefillAllocFree(t *testing.T) {
	tb, keys := pressureRig(0, EvictLRU)
	cycle := func() {
		for i, k := range keys {
			tb.Install(k, i&15)
		}
		if n := tb.InvalidateAll(); n != len(keys) {
			t.Fatalf("flushed %d entries, want %d", n, len(keys))
		}
	}
	cycle() // grows the slab and index to the working set
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("%.2f allocs per install/flush cycle of %d keys, want 0", allocs, len(keys))
	}
}

// benchTablePressure times the pressure rig's unit of work; `evict/op`
// is the eviction rate the policy sustains.
func benchTablePressure(b *testing.B, policy Policy) {
	tb, keys := pressureRig(pressureCap, policy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touch(tb, keys, i)
	}
	b.StopTimer()
	b.ReportMetric(tb.Occupancy(), "occupancy")
	b.ReportMetric(float64(tb.Stats.Evictions)/float64(b.N), "evict/op")
}

func BenchmarkTablePressureLRU(b *testing.B)    { benchTablePressure(b, EvictLRU) }
func BenchmarkTablePressureRandom(b *testing.B) { benchTablePressure(b, EvictRandom) }

// BenchmarkTableUnbounded is the control: the same access pattern
// against an unbounded table, isolating what the capacity bookkeeping
// (recency list, dense slice, eviction) costs per operation.
func BenchmarkTableUnbounded(b *testing.B) {
	tb, keys := pressureRig(0, EvictLRU)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touch(tb, keys, i)
	}
}
