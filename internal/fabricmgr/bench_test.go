package fabricmgr

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	"portland/internal/ctrlmsg"
	"portland/internal/ether"
)

// benchConn swallows manager replies; the benchmarks measure service
// cost, not transport.
type benchConn struct{}

func (benchConn) Send(ctrlmsg.Msg) error { return nil }

// benchIP is the i-th synthetic host address, matching the Figure 14
// convention.
func benchIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

// shardedRegistry builds n shard managers holding a registry of the
// given total size, striped by ctrlmsg.ShardOfIP exactly as the edge
// switches stripe their punts, and returns each shard's session plus
// the IP list it owns.
func shardedRegistry(n, registry int) ([]*Session, [][]netip.Addr) {
	sess := make([]*Session, n)
	ips := make([][]netip.Addr, n)
	for s := 0; s < n; s++ {
		m := New()
		m.SetShard(s, n)
		sess[s] = m.NewSession(benchConn{})
		sess[s].Handle(ctrlmsg.Hello{Switch: 1})
	}
	for i := 0; i < registry; i++ {
		ip := benchIP(i)
		s := ctrlmsg.ShardOfIP(ip, n)
		sess[s].Handle(ctrlmsg.PMACRegister{Switch: 1, IP: ip, AMAC: ether.Addr{2, 0, 0, 0, 0, 1}, PMAC: ether.Addr{0, 1, 0, 0, 0, 1}})
		ips[s] = append(ips[s], ip)
	}
	return sess, ips
}

// BenchmarkMgrARPThroughput measures wall-clock ARP resolutions per
// second against a prefix-sharded registry: each shard serves its own
// query stream on its own goroutine (shards share nothing, so this is
// the managers' true concurrent service rate). ns/op is the aggregate
// per-query cost. The per-row `shards` and `workers` metrics record
// how much parallelism the run actually had — on a single-core host
// the sharded rows measure partition overhead, not speedup; on a
// multi-core host workers = min(GOMAXPROCS, shards). The hosts axis
// is the registry size: the paper's 27,648-host deployment target and
// a quarter-million-host scale point.
func BenchmarkMgrARPThroughput(b *testing.B) {
	for _, hosts := range []int{27648, 262144} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("hosts=%d/shards=%d", hosts, shards), func(b *testing.B) {
				sess, ips := shardedRegistry(shards, hosts)
				per := (b.N + shards - 1) / shards
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for s := 0; s < shards; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						own := ips[s]
						for j := 0; j < per; j++ {
							sess[s].Handle(ctrlmsg.ARPQuery{Switch: 1, QueryID: uint64(j), TargetIP: own[j%len(own)]})
						}
					}(s)
				}
				wg.Wait()
				b.StopTimer()
				served := float64(per) * float64(shards)
				b.ReportMetric(float64(shards), "shards")
				b.ReportMetric(float64(min(runtime.GOMAXPROCS(0), shards)), "workers")
				b.ReportMetric(served/b.Elapsed().Seconds(), "resolutions/s")
			})
		}
	}
}

// BenchmarkFaultFanout measures the route authority's exclusion
// fan-out: eight links of a k-ary fat tree, edge-agg and agg-core,
// fail and then recover, one FaultNotify at a time, each timed end to
// end (fault merge, tier update within the link's cone, exclusion
// diff, push to every affected switch). Only one end of each link
// reports, so the merge of a second end's view is not timed here.
// ns/notify against k is the scaling claim of DESIGN.md §7: the cone
// of a link is O(k²) switches, so k=48 should cost about nine times
// k=16, not the fabric's growth. The shard axis pins the design claim
// that prefix-sharding the registry leaves fault convergence untaxed:
// shard 0 alone carries the fault matrix, so the cost must stay flat
// as shards grow.
func BenchmarkFaultFanout(b *testing.B) {
	for _, k := range []int{4, 16, 32, 48} {
		feed := newFatTreeFeed(b, k)
		// Eight links strided over the blueprint's list, which holds
		// the edge-agg links first and the agg-core links after.
		var flaps []ctrlmsg.FaultNotify
		links := len(feed.adjacency) / 2
		for j := 0; j < 8; j++ {
			flaps = append(flaps, feed.adjacency[2*(j*(links/8+k/2+1)%links)])
		}
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("k=%d/shards=%d", k, shards), func(b *testing.B) {
				m, sess := feed.boot(benchConn{})
				m.SetShard(0, shards)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, down := range []bool{true, false} {
						for _, fn := range flaps {
							fn.Down = down
							sess[fn.Switch].Handle(fn)
						}
					}
				}
				b.StopTimer()
				notifies := float64(b.N * 2 * len(flaps))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/notifies, "ns/notify")
				b.ReportMetric(float64(m.Stats.ExclusionsSet)/float64(b.N), "excl/op")
			})
		}
	}
}

// TestFaultFlapAllocs pins the steady state of fault churn on a k=16
// fabric: once the manager's buffers are warm, taking an agg-core and
// an edge-agg link down and up allocates exactly the RouteExclude
// messages it sends (one boxed value each) and nothing else, however
// often it repeats.
func TestFaultFlapAllocs(t *testing.T) {
	feed := newFatTreeFeed(t, 16)
	sent := 0
	m, sess := feed.boot(countConn{&sent})
	links := [][2]ctrlmsg.FaultNotify{
		feed.link(ctrlmsg.LevelAggregation, ctrlmsg.LevelCore),
		feed.link(ctrlmsg.LevelEdge, ctrlmsg.LevelAggregation),
	}
	flap := func() {
		for _, l := range links {
			for _, down := range []bool{true, false} {
				for _, fn := range l {
					fn.Down = down
					sess[fn.Switch].Handle(fn)
				}
			}
		}
	}
	flap() // warm the buffers
	sent = 0
	flap()
	perFlap := sent
	if perFlap == 0 || m.installed != 0 {
		t.Fatalf("a flap sent %d messages and left %d exclusions installed", perFlap, m.installed)
	}
	for _, runs := range []int{10, 100} {
		if allocs := testing.AllocsPerRun(runs, flap); allocs != float64(perFlap) {
			t.Errorf("%d flaps: %.1f allocs each, want the %d messages sent and nothing else", runs, allocs, perFlap)
		}
	}
}

// countConn counts the messages sent through it.
type countConn struct{ n *int }

func (c countConn) Send(ctrlmsg.Msg) error { *c.n++; return nil }
