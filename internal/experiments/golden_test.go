package experiments

import (
	"bytes"
	"io"
	"testing"
	"time"

	"portland/internal/runner"
)

// The determinism contract: for every experiment driver, a parallel
// run's printed output is byte-identical to a serial run at the same
// seed. TestCatalogIdentity holds every catalog entry to it at its
// -quick configuration; the tests here do the same at configurations
// the catalog does not run (f10, sc, mgr and a1 have none: their
// -quick configuration is the one that was tested here). Each runs the
// same config with the pool forced to one worker and then to eight,
// and compares the Print bytes.

type printer interface{ Print(io.Writer) }

func goldenEquivalent[T printer](t *testing.T, run func() (T, error)) {
	t.Helper()
	t.Cleanup(func() { runner.SetWorkers(0) })

	render := func(workers int) []byte {
		t.Helper()
		runner.SetWorkers(workers)
		res, err := run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		res.Print(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Error("experiment printed nothing")
	}
}

func TestGoldenFig9Links(t *testing.T) {
	cfg := DefaultFig9()
	cfg.MaxFaults = 2
	cfg.Trials = 2
	goldenEquivalent(t, func() (*Fig9Result, error) { return RunFig9(cfg) })
}

// TestGoldenFig9FaultChurn leans on the failure/recovery cycle —
// every RouteExclude bumps the switches' exclusion epoch and every
// Recover resets the cached ECMP candidate sets, so this golden
// catches any candidate-cache state that leaks across trials or
// differs between serial and parallel scheduling.
func TestGoldenFig9FaultChurn(t *testing.T) {
	cfg := DefaultFig9()
	cfg.MaxFaults = 4
	cfg.Trials = 3
	goldenEquivalent(t, func() (*Fig9Result, error) { return RunFig9(cfg) })
}

func TestGoldenFig9Switches(t *testing.T) {
	cfg := DefaultFig9()
	cfg.Mode = FailSwitches
	cfg.MaxFaults = 2
	cfg.Trials = 2
	goldenEquivalent(t, func() (*Fig9Result, error) { return RunFig9(cfg) })
}

func TestGoldenFig11(t *testing.T) {
	cfg := DefaultFig11()
	cfg.Trials = 2
	goldenEquivalent(t, func() (*Fig11Result, error) { return RunFig11(cfg) })
}

func TestGoldenTable1(t *testing.T) {
	cfg := Table1Config{Ks: []int{4}}
	goldenEquivalent(t, func() (*Table1Result, error) { return RunTable1(cfg) })
}

func TestGoldenFMF(t *testing.T) {
	cfg := DefaultFMF()
	cfg.Outages = []time.Duration{100 * time.Millisecond}
	goldenEquivalent(t, func() (*FMFResult, error) { return RunFMF(cfg) })
}

func TestGoldenA2(t *testing.T) {
	goldenEquivalent(t, func() (*A2Result, error) { return RunA2([]int{4, 6}) })
}

func TestGoldenA3(t *testing.T) {
	goldenEquivalent(t, func() (*A3Result, error) { return RunA3(4, 4) })
}

func TestGoldenA4(t *testing.T) {
	ivs := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	goldenEquivalent(t, func() (*A4Result, error) { return RunA4(ivs, 2) })
}

func TestGoldenA5(t *testing.T) {
	goldenEquivalent(t, func() (*A5Result, error) { return RunA5(4, 32) })
}

func TestGoldenA6(t *testing.T) {
	goldenEquivalent(t, func() (*A6Result, error) { return RunA6(4, 5) })
}

// TestGoldenFT leans on the hardware-resource model — bounded flow
// tables evicting under thrash, ECMP group admission degrading
// destination classes — so this golden catches any eviction-victim or
// admission-order state that differs between serial and parallel
// sweep scheduling.
func TestGoldenFT(t *testing.T) {
	cfg := DefaultFT()
	cfg.Ks = []int{4}
	cfg.Flows = 200
	goldenEquivalent(t, func() (*FTResult, error) { return RunFT(cfg) })
}
