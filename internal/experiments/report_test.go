package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"portland/internal/metrics"
	"portland/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden report files")

// fig9TestConfig is the smallest interesting Fig. 9 cell: one link
// failure, one trial, with recovery measured.
func fig9TestConfig() Fig9Config {
	cfg := DefaultFig9()
	cfg.MaxFaults = 1
	cfg.Trials = 1
	return cfg
}

// TestReplayMatchesFig9Cell pins the acceptance criterion that a
// replayed cell's report describes exactly what the sweep measured:
// the report's failure summary must equal metrics.Summarize over the
// same cell's raw samples, because both paths run the identical
// deterministic cell.
func TestReplayMatchesFig9Cell(t *testing.T) {
	cfg := fig9TestConfig()
	tr, _, err := fig9Cell(cfg, 1, 3)
	if err != nil {
		t.Fatalf("fig9Cell: %v", err)
	}
	if !tr.feasible {
		t.Fatalf("cell (1,3) infeasible; pick another coordinate")
	}
	rep, err := ReplayFig9(cfg, 1, 3)
	if err != nil {
		t.Fatalf("ReplayFig9: %v", err)
	}
	if rep.Convergence == nil {
		t.Fatalf("replay report has no convergence view")
	}
	want := metrics.Summarize(tr.fail.ms)
	if got := rep.Convergence.Failure; got != want {
		t.Errorf("replay failure summary = %+v, sweep cell = %+v", got, want)
	}
	if want := metrics.Summarize(tr.rec.ms); rep.Convergence.Recovery != want {
		t.Errorf("replay recovery summary = %+v, sweep cell = %+v", rep.Convergence.Recovery, want)
	}
	if rep.Convergence.FaultAtNs == 0 {
		t.Errorf("fault time missing from replay report")
	}
	if len(rep.Timeline) == 0 {
		t.Errorf("replay report has an empty timeline")
	}
	if len(rep.Cells) != 1 || rep.Cells[0].Seed != cfg.Rig.Seed+1003 {
		t.Errorf("replay cell seed = %+v, want single cell with seed %d", rep.Cells, cfg.Rig.Seed+1003)
	}
}

// TestFig9ReportGolden pins the versioned report schema: a checked-in
// Fig. 9 report must round-trip decode → re-encode byte-identically,
// and a fresh replay must reproduce it. Regenerate with
// `go test ./internal/experiments -run Golden -update` after an
// intentional schema or behavior change.
func TestFig9ReportGolden(t *testing.T) {
	rep, err := ReplayFig9(fig9TestConfig(), 1, 3)
	if err != nil {
		t.Fatalf("ReplayFig9: %v", err)
	}
	got, err := rep.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	golden := filepath.Join("testdata", "fig9-report.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fresh replay report differs from golden %s (len %d vs %d); run with -update if the change is intentional", golden, len(got), len(want))
	}

	// Round-trip: decode the golden bytes and re-encode; any field the
	// schema silently drops or reorders would break byte identity.
	dec, err := obs.Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("Decode golden: %v", err)
	}
	again, err := dec.EncodeBytes()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("golden report does not round-trip byte-identically (len %d vs %d)", len(again), len(want))
	}
}

// TestSCReportGolden pins the scenario-replay determinism acceptance
// criterion: the same seed must yield a byte-identical `-exp sc` cell
// report, run after run, serial or parallel — the report is a pure
// function of (config, coordinate). Regenerate with
// `go test ./internal/experiments -run Golden -update` after an
// intentional schema or behavior change.
func TestSCReportGolden(t *testing.T) {
	cfg := DefaultSC()
	rep, err := ReplaySC(cfg, "gray-det", 0)
	if err != nil {
		t.Fatalf("ReplaySC: %v", err)
	}
	got, err := rep.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	golden := filepath.Join("testdata", "sc-report.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fresh scenario replay differs from golden %s (len %d vs %d); run with -update if the change is intentional", golden, len(got), len(want))
	}
	// Replay again in-process: two runs of the same cell must agree
	// byte-for-byte without touching the golden at all.
	rep2, err := ReplaySC(cfg, "gray-det", 0)
	if err != nil {
		t.Fatalf("ReplaySC (second run): %v", err)
	}
	again, err := rep2.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes (second run): %v", err)
	}
	if !bytes.Equal(again, got) {
		t.Fatal("two in-process replays of the same scenario cell differ")
	}
}

// TestMgrReportGolden pins the manager-sweep determinism acceptance
// criterion: the same seed must yield a byte-identical `-exp mgr` cell
// report, run after run — sharded registry, batched punts and all.
// Regenerate with `go test ./internal/experiments -run Golden -update`
// after an intentional schema or behavior change.
func TestMgrReportGolden(t *testing.T) {
	cfg := DefaultMgr()
	rep, err := ReplayMgr(cfg, 2, 200*time.Microsecond, 0)
	if err != nil {
		t.Fatalf("ReplayMgr: %v", err)
	}
	got, err := rep.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	golden := filepath.Join("testdata", "mgr-report.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fresh manager-sweep replay differs from golden %s (len %d vs %d); run with -update if the change is intentional", golden, len(got), len(want))
	}
	rep2, err := ReplayMgr(cfg, 2, 200*time.Microsecond, 0)
	if err != nil {
		t.Fatalf("ReplayMgr (second run): %v", err)
	}
	again, err := rep2.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes (second run): %v", err)
	}
	if !bytes.Equal(again, got) {
		t.Fatal("two in-process replays of the same manager cell differ")
	}
}

// TestMgrReportGoldenSharded re-runs the same manager cell on a
// sharded *engine* (registry shards and engine shards compose) against
// the same golden: byte-identity to the serial report is the contract.
func TestMgrReportGoldenSharded(t *testing.T) {
	cfg := DefaultMgr()
	cfg.Rig.Shards = 5
	rep, err := ReplayMgr(cfg, 2, 200*time.Microsecond, 0)
	if err != nil {
		t.Fatalf("ReplayMgr (sharded): %v", err)
	}
	got, err := rep.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "mgr-report.golden.json"))
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("engine-sharded manager replay differs from the serial golden (len %d vs %d): the shard determinism contract is broken", len(got), len(want))
	}
}

// ftTestConfig is the smallest interesting ft cell grid: one degree,
// the scaled Gen40 envelope plus the unbounded contrast.
func ftTestConfig() FTConfig {
	cfg := DefaultFT()
	cfg.Ks = []int{4}
	cfg.Flows = 200
	return cfg
}

// TestFTReportGolden pins the table-pressure determinism acceptance
// criterion: the same seed must yield a byte-identical `-exp ft` cell
// report, run after run — flow evictions, ECMP degradations and all.
// Regenerate with `go test ./internal/experiments -run Golden -update`
// after an intentional schema or behavior change.
func TestFTReportGolden(t *testing.T) {
	cfg := ftTestConfig()
	rep, err := ReplayFT(cfg, 4, "gen40/64", 0)
	if err != nil {
		t.Fatalf("ReplayFT: %v", err)
	}
	got, err := rep.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	golden := filepath.Join("testdata", "ft-report.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fresh table-pressure replay differs from golden %s (len %d vs %d); run with -update if the change is intentional", golden, len(got), len(want))
	}
	rep2, err := ReplayFT(cfg, 4, "gen40/64", 0)
	if err != nil {
		t.Fatalf("ReplayFT (second run): %v", err)
	}
	again, err := rep2.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes (second run): %v", err)
	}
	if !bytes.Equal(again, got) {
		t.Fatal("two in-process replays of the same table-pressure cell differ")
	}
}

// TestFTReportGoldenSharded re-runs the same table-pressure cell on a
// sharded engine against the same golden. Byte-identity here is the
// eviction-determinism contract at fabric scope: shard layout must not
// change which flow entries get evicted or which destination classes
// degrade (the flow-table PRNG seeds from the switch ID, never an
// engine stream).
func TestFTReportGoldenSharded(t *testing.T) {
	cfg := ftTestConfig()
	cfg.Rig.Shards = 5
	rep, err := ReplayFT(cfg, 4, "gen40/64", 0)
	if err != nil {
		t.Fatalf("ReplayFT (sharded): %v", err)
	}
	got, err := rep.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ft-report.golden.json"))
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("engine-sharded table-pressure replay differs from the serial golden (len %d vs %d): the shard determinism contract is broken", len(got), len(want))
	}
}

// TestFig9ReportGoldenSharded pins the sharded engine's determinism
// contract against the same golden the serial replay is gated on: a
// Fig. 9 replay split across engine shards must produce the identical
// bytes. The golden is deliberately shared — there is no "sharded
// golden"; a sharded run that needs its own golden is a broken one.
func TestFig9ReportGoldenSharded(t *testing.T) {
	cfg := fig9TestConfig()
	cfg.Rig.Shards = 5 // one per pod + the core bank, at k=4
	rep, err := ReplayFig9(cfg, 1, 3)
	if err != nil {
		t.Fatalf("ReplayFig9 (sharded): %v", err)
	}
	got, err := rep.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig9-report.golden.json"))
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded replay differs from the serial golden (len %d vs %d): the shard determinism contract is broken", len(got), len(want))
	}
}

// TestSCReportGoldenSharded is the scenario-replay arm of the same
// contract: the `-exp sc` cell re-run on a sharded engine must match
// the serial golden byte-for-byte.
func TestSCReportGoldenSharded(t *testing.T) {
	cfg := DefaultSC()
	cfg.Rig.Shards = 5
	rep, err := ReplaySC(cfg, "gray-det", 0)
	if err != nil {
		t.Fatalf("ReplaySC (sharded): %v", err)
	}
	got, err := rep.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sc-report.golden.json"))
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded scenario replay differs from the serial golden (len %d vs %d): the shard determinism contract is broken", len(got), len(want))
	}
}
