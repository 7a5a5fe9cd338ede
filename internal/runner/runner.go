// Package runner fans independent experiment cells out over a bounded
// worker pool while keeping every result — and therefore every
// printed table — byte-identical to a serial run.
//
// The determinism contract (DESIGN.md §6, "Parallel experiments"):
//
//   - A cell is a pure function of its index. Each cell builds and
//     owns a private sim.Engine whose seed derives only from the
//     experiment's base seed and the cell's (point, trial) coordinate,
//     so concurrent cells share no PRNG, clock, or link state.
//   - Cells are dispatched in canonical (index) order and their
//     results are merged in that same order after all cells finish.
//     Ties and sample ordering inside a cell are resolved by the
//     cell's own deterministic engine, so the merged result cannot
//     depend on scheduling.
//   - On error the pool reports the lowest-index error — exactly the
//     error a serial sweep would have surfaced first.
//
// Parallelism therefore changes wall-clock time and nothing else; the
// golden tests in internal/experiments compare serial and parallel
// printed output byte-for-byte to enforce it.
//
// Observability rides the same contract: each cell's private engine
// owns a private obs.Registry, journal record sites are passive
// (no RNG draws, no map iteration, no sends), and cells snapshot
// their journals/counters into obs.CellReport values that the sweep
// drivers merge in canonical cell order — so an experiment's JSON run
// report, like its printed table, is byte-identical between serial
// and parallel runs.
package runner

import (
	"runtime"
	"sync"
)

var (
	mu      sync.Mutex
	workers int // 0 = default (GOMAXPROCS)
)

// SetWorkers bounds the pool. n == 1 forces serial execution
// (portland-bench -parallel 1); n == 0 restores the default, GOMAXPROCS.
func SetWorkers(n int) {
	mu.Lock()
	defer mu.Unlock()
	if n < 0 {
		n = 0
	}
	workers = n
}

// Workers reports the effective pool bound.
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Map runs fn(i) for every i in [0, n) on the worker pool and returns
// the results in index order. Dispatch is in index order too: after
// the first error no cell with an index above the lowest erroring one
// starts, in-flight cells finish, and the lowest-index error is
// returned — the same one a serial loop would have stopped at.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	var (
		emu    sync.Mutex
		minErr = n // lowest index observed to fail so far
		wg     sync.WaitGroup
	)
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			emu.Lock()
			stop := i > minErr
			emu.Unlock()
			// Every index below the failing one has already been
			// dispatched (dispatch is in order), so the true lowest
			// error is guaranteed to be among the completed cells.
			if stop {
				return
			}
			idx <- i
		}
	}()
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					emu.Lock()
					if i < minErr {
						minErr = i
					}
					emu.Unlock()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}

// Grid runs fn(point, trial) for every cell of a points×trials sweep
// and returns the results indexed [point][trial]. Cells are flattened
// point-major — the canonical serial sweep order.
func Grid[T any](points, trials int, fn func(point, trial int) (T, error)) ([][]T, error) {
	flat, err := Map(points*trials, func(i int) (T, error) {
		return fn(i/trials, i%trials)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, points)
	for p := range out {
		out[p] = flat[p*trials : (p+1)*trials]
	}
	return out, nil
}
