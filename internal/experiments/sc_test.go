package experiments

import (
	"slices"
	"strconv"
	"testing"

	"portland/internal/obs"
)

// replaySC replays trial 0 of the named scenario family under cfg, a
// configuration no catalog Settings produce.
func replaySC(t *testing.T, cfg SCConfig, family string) *obs.Report {
	t.Helper()
	fam := slices.IndexFunc(scFamilies, func(f scFamily) bool { return f.id == family })
	if fam < 0 {
		t.Fatalf("no scenario family %q", family)
	}
	tr, f, err := cfg.cell(fam, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.report(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestPodPowerPositionSwapHeals replays the pod-power cell at rig seeds
// 1..48, one trial each — the benchmark sweep's shape — and requires
// every flow to recover. A power-cycled pod's edges can come back with
// their positions swapped, so senders' caches hold PMACs that now route
// to an edge with no host there, or with a different host that was
// issued the same address. Only the frame's destination IP tells the
// two apart: the edge must refuse every frame whose PMAC's host does
// not own that IP, and ask the registry on the sender's behalf. Seeds
// 5, 16, 32, 36 and 45 each stranded one flow while corrections were
// keyed on the PMAC alone.
func TestPodPowerPositionSwapHeals(t *testing.T) {
	for seed := uint64(1); seed <= 48; seed++ {
		cfg := DefaultSC()
		cfg.Rig.Seed = seed
		cfg.Trials = 1
		rep := replaySC(t, cfg, "pod-power")
		for _, fl := range rep.Convergence.Flows {
			if !fl.Recovered {
				t.Errorf("seed %d (%s): flow %s never recovered",
					seed, rep.Params["scenario"], fl.Flow)
			}
		}
	}
}

// TestSCDetectorProfiles pins the detector-profile coordinates: the
// gray-fast and gray-patient families must run the same gray scenario
// under their own window/trip/clean knobs (reported per cell), both
// must detect, and the hair-trigger profile must detect strictly
// sooner than the patient one.
func TestSCDetectorProfiles(t *testing.T) {
	cfg := DefaultSC()
	det := func(family, window, trip, clean string) float64 {
		t.Helper()
		rep := replaySC(t, cfg, family)
		for key, want := range map[string]string{
			"det_window": window, "det_trip": trip, "det_clean": clean,
		} {
			if got := rep.Params[key]; got != want {
				t.Errorf("%s: %s = %q, want %q", family, key, got, want)
			}
		}
		ms, err := strconv.ParseFloat(rep.Params["detect_ms"], 64)
		if err != nil {
			t.Fatalf("%s: detect_ms = %q, want a latency (detection never fired?)", family, rep.Params["detect_ms"])
		}
		return ms
	}
	fast := det("gray-fast", "2ms", "2", "3")
	patient := det("gray-patient", "25ms", "5", "8")
	if fast >= patient {
		t.Errorf("gray-fast detected in %.3f ms, gray-patient in %.3f ms; fast profile should be strictly sooner", fast, patient)
	}
}
