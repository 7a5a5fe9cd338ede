package experiments

import (
	"io"
	"time"

	"portland/internal/ether"
	"portland/internal/obs"
	"portland/internal/topo"
)

// Fig11Config parameterizes the multicast-convergence experiment
// (paper Fig. 11: sender + 3 receivers, fail a tree link, measure the
// receive interruption; the paper reports ~110 ms, dominated by
// detection plus fabric-manager recomputation/installation).
type Fig11Config struct {
	Rig    Rig
	Trials int
}

// DefaultFig11 mirrors the paper's setup.
func DefaultFig11() Fig11Config {
	return Fig11Config{Rig: DefaultRig(), Trials: 10}
}

// Fig11Result summarizes per-receiver convergence across trials.
type Fig11Result struct {
	Cfg         Fig11Config
	Convergence obs.Summary // ms, all receivers × trials
	Dead        int
	Reported
}

// fig11Trial is one trial's contribution, merged in trial order.
type fig11Trial struct {
	snap
	rx probeStats
}

func runFig11Cell(cfg Fig11Config, trial int) (fig11Trial, error) {
	var out fig11Trial
	rig := cfg.Rig
	rig.Seed = cfg.Rig.Seed + uint64(trial)
	f, err := rig.build()
	if err != nil {
		return out, err
	}
	const group = 0x3000
	sender := f.HostByName("host-p0-e0-h0")
	receivers := []string{"host-p1-e0-h0", "host-p2-e1-h1", "host-p3-e0-h1"}
	recs := make([]*obs.Recorder, len(receivers))
	for i, name := range receivers {
		rec := &obs.Recorder{}
		recs[i] = rec
		h := f.HostByName(name)
		rxNow := h.Sim().Now // the receiving host's clock
		h.Endpoint().JoinGroup(group, false, func(*ether.Frame) { rec.Record(rxNow()) })
	}
	sender.Endpoint().JoinGroup(group, true, nil)
	f.RunFor(50 * time.Millisecond)
	f.Sched().NewTicker(probeEvery, 0, func() {
		sender.Endpoint().SendGroup(group, 5000, 5000, 256)
	})
	f.RunFor(300 * time.Millisecond)

	link, err := f.BusiestLink(100*time.Millisecond, topo.Aggregation, topo.Core)
	if err != nil {
		// Single-core tree may keep all traffic intra-pod on the
		// agg-edge legs; fail the busiest of those instead.
		link, err = f.BusiestLink(100*time.Millisecond, topo.Edge, topo.Aggregation)
		if err != nil {
			return out, err
		}
	}
	failAt := failLink(f, link)
	f.RunFor(1 * time.Second)

	for i, rec := range recs {
		out.rx.add(receivers[i], rec, failAt)
	}
	out.snap = obsCell(f, 0, trial, rig.Seed)
	return out, nil
}

// RunFig11 reproduces Figure 11, one independent fabric per trial.
func RunFig11(cfg Fig11Config) (*Fig11Result, error) {
	res := &Fig11Result{Cfg: cfg}
	var samples []float64
	err := sweep(&res.Reported, "f11", cfg.Rig.Seed, map[string]string{
		"k":          itoa(cfg.Rig.K),
		"trials":     itoa(cfg.Trials),
		"send_every": probeEvery.String(),
	}, cfg.Trials, 1, func(trial, _ int) (fig11Trial, error) {
		return runFig11Cell(cfg, trial)
	}, func(_ int, tr []fig11Trial) {
		samples = append(samples, tr[0].rx.ms...)
		res.Dead += tr[0].rx.dead
	})
	if err != nil {
		return nil, err
	}
	res.Convergence = obs.Summarize(samples)
	return res, nil
}

// Print emits the figure's summary.
func (r *Fig11Result) Print(w io.Writer) {
	fprintf(w, "Figure 11 — multicast convergence after a tree-link failure\n")
	fprintf(w, "(1 sender, 3 receivers in distinct pods, %d trials)\n", r.Cfg.Trials)
	hr(w)
	s := r.Convergence
	fprintf(w, "affected receivers: %d   never recovered: %d\n", s.N, r.Dead)
	fprintf(w, "convergence ms: median=%.1f mean=%.1f p10=%.1f p90=%.1f max=%.1f\n",
		s.Median, s.Mean, s.P10, s.P90, s.Max)
	fprintf(w, "(paper band: ~110 ms on NetFPGA/OpenFlow; shape = detection + FM recompute + install)\n\n")
}
