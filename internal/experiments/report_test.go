package experiments

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"portland/internal/metrics"
	"portland/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// matchGolden fails the test unless got equals testdata/name, which
// -update first rewrites to got. A mismatch names the first line that
// differs.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "(end of output)"
	}
	t.Fatalf("output differs from golden %s at line %d:\n got: %s\nwant: %s\n(run with -update if the change is intentional)", path, i+1, line(g), line(w))
}

// replay replays one cell through the catalog entry with this ID.
func replay(t *testing.T, id string, s Settings, point, trial int) *obs.Report {
	t.Helper()
	sel, err := Select(id)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sel[0].Replay(s, point, trial)
	if err != nil {
		t.Fatalf("%s Replay(%+v, %d, %d): %v", id, s, point, trial, err)
	}
	return rep
}

// TestReplayMatchesFig9Cell pins the acceptance criterion that a
// replayed cell's report describes exactly what the sweep measured:
// the report's failure summary must equal metrics.Summarize over the
// same cell's raw samples, because both paths run the identical
// deterministic cell.
func TestReplayMatchesFig9Cell(t *testing.T) {
	cfg := DefaultFig9() // the f9 entry's full configuration
	tr, _, err := cfg.cell(1, 3)
	if err != nil {
		t.Fatalf("cell (1, 3): %v", err)
	}
	if !tr.feasible {
		t.Fatalf("cell (1,3) infeasible; pick another coordinate")
	}
	rep := replay(t, "f9", Settings{}, 1, 3)
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

// TestReportGolden pins the versioned report schema and the replay
// contract, one row per checked-in cell report. Serial, a fresh replay
// must reproduce the golden bytes, a second in-process replay must
// agree with the first, and the golden must round-trip decode →
// re-encode byte-identically. Each golden's own cells[0] names its
// coordinate.
// Regenerate with `go test ./internal/experiments -run Golden -update`
// after an intentional schema or behavior change.
func TestReportGolden(t *testing.T) {
	for _, g := range []struct {
		id           string
		s            Settings
		point, trial int
		file         string
	}{
		{"f9", Settings{}, 1, 3, "fig9-report.golden.json"},
		{"sc", Settings{}, 1, 0, "sc-report.golden.json"},            // gray-det
		{"mgr", Settings{}, 3, 0, "mgr-report.golden.json"},          // 2 shards, 200µs batch
		{"ft", Settings{Quick: true}, 1, 0, "ft-report.golden.json"}, // k=4, gen40/64
	} {
		encode := func(t *testing.T) []byte {
			t.Helper()
			b, err := replay(t, g.id, g.s, g.point, g.trial).EncodeBytes()
			if err != nil {
				t.Fatalf("EncodeBytes: %v", err)
			}
			return b
		}
		t.Run(g.id+"/serial", func(t *testing.T) {
			want := encode(t)
			matchGolden(t, g.file, want)
			if again := encode(t); !bytes.Equal(again, want) {
				t.Fatal("two in-process replays of the same cell differ")
			}
			// Round-trip: any field the schema silently drops or
			// reorders would break byte identity.
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
		})
	}
}

// TestReplayErrors: an entry without cell replay, and a coordinate
// outside the sweep, are ErrNoCell errors; the first names the entries
// that do replay.
func TestReplayErrors(t *testing.T) {
	sel, err := Select("f10,mgr")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sel[0].Replay(Settings{}, 0, 0)
	if !errors.Is(err, ErrNoCell) || !strings.Contains(err.Error(), "f9, f9s, sc, mgr, ft") {
		t.Errorf("f10 Replay error = %v, want ErrNoCell naming f9, f9s, sc, mgr, ft", err)
	}
	for _, c := range [][2]int{{-1, 0}, {6, 0}, {0, 1}, {0, -1}} {
		if _, err := sel[1].Replay(Settings{Quick: true}, c[0], c[1]); !errors.Is(err, ErrNoCell) {
			t.Errorf("mgr -quick Replay(%d, %d) error = %v, want ErrNoCell", c[0], c[1], err)
		}
	}
}
