package experiments

import (
	"runtime"
	"testing"
	"time"

	"portland/internal/core"
	"portland/internal/runner"
	"portland/internal/sim"
)

// Parallel cells must not share any mutable state: each owns a private
// engine, RNG, and link set. Run with -race (the Makefile's race target
// covers this package) to catch sharing the assertions below can't see.

func forceMultiCore(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		old := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// TestParallelFig9Isolation runs Fig9 with four trials per point on a
// multi-core scheduler. Under -race, any cross-trial sharing of
// rand.Rand or Link counters would be flagged.
func TestParallelFig9Isolation(t *testing.T) {
	forceMultiCore(t)
	runner.SetWorkers(4)
	t.Cleanup(func() { runner.SetWorkers(0) })

	cfg := DefaultFig9()
	cfg.MaxFaults = 2
	cfg.Trials = 4
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != cfg.MaxFaults {
		t.Fatalf("got %d rows, want %d", len(res.Rows), cfg.MaxFaults)
	}
}

// TestParallelFabricsDisjoint builds fabrics concurrently and asserts
// the isolation invariant directly: no two cells see the same engine,
// RNG, or link objects.
func TestParallelFabricsDisjoint(t *testing.T) {
	forceMultiCore(t)
	runner.SetWorkers(4)
	t.Cleanup(func() { runner.SetWorkers(0) })

	fabs, err := runner.Map(4, func(i int) (*core.Fabric, error) {
		rig := DefaultRig()
		rig.Seed = uint64(i) + 1
		f, err := rig.build()
		if err != nil {
			return nil, err
		}
		f.RunFor(50 * time.Millisecond) // drive traffic so counters move
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	engines := map[*sim.Engine]int{}
	links := map[*sim.Link]int{}
	for i, f := range fabs {
		if prev, dup := engines[f.Eng]; dup {
			t.Fatalf("fabrics %d and %d share an engine", prev, i)
		}
		engines[f.Eng] = i
		for j, l := range fabs {
			if j != i && f.Rand() == l.Rand() {
				t.Fatalf("fabrics %d and %d share a rand.Rand", i, j)
			}
		}
		for _, l := range f.Links {
			if prev, dup := links[l]; dup {
				t.Fatalf("fabrics %d and %d share a link", prev, i)
			}
			links[l] = i
		}
	}
}
