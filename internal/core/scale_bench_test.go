package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkK48Discovery measures the wall-clock cost of booting the
// paper's full target scale — a k=48 fat tree (2880 switches, 27,648
// hosts) — from cold start through verified location discovery. This
// is the headline number for scheduler throughput: discovery is pure
// control-plane churn (LDM fan-out on every port of every switch)
// and stresses the timer wheel far harder than steady state.
func BenchmarkK48Discovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewFatTree(48, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		f.Start()
		if err := f.AwaitDiscovery(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := f.CheckDiscovery(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkShardedBoot measures cold boot through verified location
// discovery across engine-shard counts, up to the beyond-target k=64
// fabric (5120 switches, 65,536 hosts). Every configuration produces
// the byte-identical discovery outcome (the shard identity gates pin
// that); what varies is wall time, and only with cores to spend —
// each op reports the honest parallelism actually used: `shards`
// (configured partition), `workers` (effective worker bound, i.e.
// min(GOMAXPROCS, shards)), and `maxprocs`. On a single-core host
// workers stays 1 and the sharded rows measure pure partition
// overhead; the speedup headroom is shards × cores on wider hosts.
//
// Synchronization-cost metrics come from Domain.SyncStats: `epochs` is
// the number of planning rounds the boot took and `barriers` / `skips`
// are per-shard averages of windows actually run versus wakeups the
// pairwise planner skipped.
func BenchmarkShardedBoot(b *testing.B) {
	for _, c := range []struct{ k, shards int }{
		{48, 1}, {48, 4}, {48, 8},
		{64, 1}, {64, 8},
	} {
		b.Run(fmt.Sprintf("k%d/shards%d", c.k, c.shards), func(b *testing.B) {
			workers := 1
			var epochs, barriers, skips float64
			for i := 0; i < b.N; i++ {
				f, err := NewFatTree(c.k, Options{Seed: 1, Shards: c.shards})
				if err != nil {
					b.Fatal(err)
				}
				f.Start()
				if err := f.AwaitDiscovery(10 * time.Second); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := f.CheckDiscovery(); err != nil {
					b.Fatal(err)
				}
				workers = f.Dom.EffectiveWorkers()
				ss := f.Dom.SyncStats()
				epochs = float64(ss.Epochs)
				var bar, sk int64
				for _, sh := range ss.Shards {
					bar += sh.Barriers
					sk += sh.Skips
				}
				if n := len(ss.Shards); n > 0 {
					barriers = float64(bar) / float64(n)
					skips = float64(sk) / float64(n)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(c.shards), "shards")
			b.ReportMetric(float64(workers), "workers")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
			b.ReportMetric(epochs, "epochs")
			b.ReportMetric(barriers, "barriers")
			b.ReportMetric(skips, "skips")
		})
	}
}

// BenchmarkK16SteadyState boots a k=16 fabric (320 switches, 1024
// hosts) once, then times advancing the converged fabric by 1ms of
// virtual time per op — LDM announcements, liveness sweeps and
// fabric-manager keepalives with no external traffic. This is the
// scheduler's sustained-rate number, free of boot-phase effects.
func BenchmarkK16SteadyState(b *testing.B) {
	f, err := NewFatTree(16, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RunFor(time.Millisecond)
	}
}
