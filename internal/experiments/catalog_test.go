package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"portland/internal/obs"
	"portland/internal/runner"
)

// render runs one catalog entry, fails the test unless its printer
// emits a title, the rule under it and at least one row, and returns
// its result, its printed rows followed by a line holding the SHA-256
// of its encoded report (f12–f14 return none), and the report.
func render(t *testing.T, e Experiment, s Settings, workers int) (Result, []byte, *obs.Report) {
	t.Helper()
	runner.SetWorkers(workers)
	res, rep, err := e.Run(s)
	if err != nil {
		t.Fatalf("%s %+v workers=%d: %v", e.ID, s, workers, err)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if title, body, ruled := strings.Cut(buf.String(), "\n-----"); !ruled || strings.TrimSpace(title) == "" || strings.Count(body, "\n") < 2 {
		t.Errorf("%s printed no title/rule/rows:\n%s", e.ID, buf.String())
	}
	if rep != nil {
		b, err := rep.EncodeBytes()
		if err != nil {
			t.Fatalf("%s: encoding its report: %v", e.ID, err)
		}
		fmt.Fprintf(&buf, "report sha256 %x\n", sha256.Sum256(b))
	}
	return res, buf.Bytes(), rep
}

// TestCatalogIdentity runs every catalog entry at its -quick
// configuration and holds the one serial run to these checks:
//   - its printer emits a title, a rule and rows (render);
//   - every ledger row (ledger_test.go) for the entry holds, as
//     subtest <id>/<row name>, and each entry has at least one;
//   - for an entry with cell replay, replaying the sweep report's
//     first and last cells gives back exactly those cells, under the
//     sweep's experiment label;
//   - one fault input: an entry in faultTimelines journals its fault
//     (faults.Schedule's fault-applied record) in every report
//     timeline it gives, run or replayed;
//   - its bytes (rows plus the report's SHA-256) equal the checked-in
//     testdata/quick-<id>.golden.txt, so a refactor that moves any
//     printed value or report byte fails here (regenerate with -update
//     after an intentional change);
//   - the determinism contract: eight sweep workers print the same
//     bytes as one.
//
// f14 prints a wall-clock rate, so it is exempt from all but the
// first two.
func TestCatalogIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	t.Cleanup(func() { runner.SetWorkers(0) })
	for _, e := range Catalog {
		t.Run(e.ID, func(t *testing.T) {
			res, want, rep := render(t, e, Settings{Quick: true}, 1)
			rows := 0
			for _, c := range ledger {
				if c.id == e.ID {
					rows++
					t.Run(c.name, func(t *testing.T) {
						if err := c.holds(res); err != nil {
							t.Errorf("%v\n(paper: %s; band: %s)", err, c.paper, c.band)
						}
					})
				}
			}
			if rows == 0 {
				t.Error("no ledger row checks this entry")
			}
			if e.WallClock {
				return
			}
			reports := []*obs.Report{rep}
			if e.replay != nil {
				for _, c := range []obs.CellReport{rep.Cells[0], rep.Cells[len(rep.Cells)-1]} {
					got, err := e.Replay(Settings{Quick: true}, c.Point, c.Trial)
					if err != nil {
						t.Fatalf("replaying cell (%d, %d): %v", c.Point, c.Trial, err)
					}
					if got.Experiment != rep.Experiment || !reflect.DeepEqual(got.Cells, []obs.CellReport{c}) {
						t.Errorf("replayed cell (%d, %d) = %s %+v, sweep cell = %s %+v",
							c.Point, c.Trial, got.Experiment, got.Cells, rep.Experiment, c)
					}
					reports = append(reports, got)
				}
			}
			if faultTimelines[e.ID] {
				checkFaultJournaled(t, reports)
			}
			matchGolden(t, "quick-"+e.ID+".golden.txt", want)
			if _, got, _ := render(t, e, Settings{Quick: true}, 8); !bytes.Equal(got, want) {
				t.Errorf("output on 8 sweep workers differs from one:\n--- one ---\n%s\n--- eight ---\n%s", want, got)
			}
		})
	}
}

// faultTimelines are the entries whose report timelines open at one
// injected fault: f10's run report, and the replayed cells of the rest.
// (ft's timeline holds only ECMP degradations; it injects no fault.)
var faultTimelines = map[string]bool{"f9": true, "f9s": true, "f10": true, "sc": true, "mgr": true}

// checkFaultJournaled fails unless every report timeline holds a
// fault-applied record at the fault instant: the convergence view's,
// or else the instant the timeline opens at (every driver opens its
// timeline at its fault). A fault injected around faults.Schedule
// leaves no such record.
func checkFaultJournaled(t *testing.T, reports []*obs.Report) {
	t.Helper()
	timelines := 0
	for _, rep := range reports {
		if rep == nil || len(rep.Timeline) == 0 {
			continue
		}
		timelines++
		at := rep.Timeline[0].AtNs
		if rep.Convergence != nil {
			at = rep.Convergence.FaultAtNs
		}
		if !slices.ContainsFunc(rep.Timeline, func(e obs.TimelineEntry) bool {
			return e.Kind == obs.FaultApplied.String() && e.AtNs == at
		}) {
			c := rep.Cells[0]
			t.Errorf("%s cell (%d, %d): no %s record at the fault instant %v in its timeline",
				rep.Experiment, c.Point, c.Trial, obs.FaultApplied, time.Duration(at))
		}
	}
	if timelines == 0 {
		t.Error("no report timeline to find the fault in")
	}
}

// TestCatalogDocumented gates the hand-kept ID list: every catalog
// entry has its `-exp <id>` section in EXPERIMENTS.md.
func TestCatalogDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Catalog {
		if !regexp.MustCompile("(?m)^.*`-exp " + e.ID + "`").Match(doc) {
			t.Errorf("EXPERIMENTS.md has no `-exp %s` section", e.ID)
		}
	}
}

// TestBenchmarkModuleVets builds and vets benchmark/. It is a module of
// its own, so `go test ./...` never compiles it, yet it programs
// against this package's exported API and core's; an API break in
// internal/ must fail here, not first in `make benchmark-test`.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module")
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "vet", ".")
	cmd.Dir = filepath.Join("..", "..", "benchmark")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}

func TestSelect(t *testing.T) {
	all := strings.Split(IDs(), ",")
	for _, c := range []struct {
		name, spec string
		want       []string // selected IDs, in order
		errHas     []string // non-nil: an error naming each of these
	}{
		{name: "all", spec: "all", want: all},
		{name: "subset comes back in catalog order", spec: "a1,f9s,t1", want: []string{"t1", "f9s", "a1"}},
		{name: "whitespace", spec: " f13 ,\tf9 ", want: []string{"f9", "f13"}},
		{name: "duplicate", spec: "mgr,mgr,ft", want: []string{"mgr", "ft"}},
		{name: "one unknown rejects the lot", spec: "f99,a6", errHas: []string{`"f99"`, IDs()}},
		{name: "all unknown", spec: "bogus,f99", errHas: []string{`"bogus", "f99"`}},
		{name: "empty", spec: "", errHas: []string{`""`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sel, err := Select(c.spec)
			if c.errHas != nil {
				if err == nil {
					t.Fatalf("selected %d experiments, want an error", len(sel))
				}
				for _, s := range c.errHas {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("error %q does not mention %s", err, s)
					}
				}
				if strings.Contains(err.Error(), `"a6"`) {
					t.Errorf("error %q names the valid ID a6 as an offender", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range sel {
				got = append(got, e.ID)
			}
			if strings.Join(got, ",") != strings.Join(c.want, ",") {
				t.Errorf("selected %v, want %v", got, c.want)
			}
		})
	}
}
