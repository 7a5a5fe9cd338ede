package experiments

import (
	"io"
	"time"

	"portland/internal/obs"
	"portland/internal/topo"
	"portland/internal/workload"
)

// A5Result measures ECMP load balance: how evenly flow-hash routing
// spreads many flows across the core layer (the property the paper's
// multipath claims rest on; badly skewed hashing would erase the
// fat tree's bisection bandwidth).
type A5Result struct {
	K         int
	Flows     int
	PerCore   []int64 // frames delivered through each core (sorted desc)
	Imbalance float64 // max/mean
	Spread    obs.Summary
	Reported
}

// RunA5 starts many random inter-pod flows and counts data frames per
// core switch. A single cell: there is nothing to sweep.
func RunA5(k, flows int) (*A5Result, error) {
	rig := DefaultRig()
	rig.K = k
	f, err := rig.build()
	if err != nil {
		return nil, err
	}
	hosts := f.HostList()
	// Random src→dst pairs in different pods, distinct UDP ports so
	// each is an independent flow for the hash.
	started := 0
	for port := uint16(25000); started < flows; port++ {
		i := f.Rand().IntN(len(hosts))
		j := f.Rand().IntN(len(hosts))
		if i == j {
			continue
		}
		workload.StartCBR(hosts[i], hosts[j], port, 5*time.Millisecond, 200)
		started++
	}
	f.RunFor(500 * time.Millisecond)

	base := map[string]int64{}
	for _, id := range f.Spec.Switches() {
		if f.Spec.Nodes[id].Level == topo.Core {
			base[f.Switches[id].Name()] = f.Switches[id].Stats.FramesIn
		}
	}
	f.RunFor(2 * time.Second)
	res := &A5Result{K: k, Flows: flows}
	var samples []float64
	var total int64
	for _, id := range f.Spec.Switches() {
		if f.Spec.Nodes[id].Level != topo.Core {
			continue
		}
		d := f.Switches[id].Stats.FramesIn - base[f.Switches[id].Name()]
		res.PerCore = append(res.PerCore, d)
		samples = append(samples, float64(d))
		total += d
	}
	res.Spread = obs.Summarize(samples)
	if mean := float64(total) / float64(len(res.PerCore)); mean > 0 {
		res.Imbalance = res.Spread.Max / mean
	}
	res.Report = replayReport("a5", f, obsCell(f, 0, 0, rig.Seed).cell, map[string]string{
		"k":     itoa(k),
		"flows": itoa(flows),
	}, views{})
	return res, nil
}

// Print emits the distribution.
func (r *A5Result) Print(w io.Writer) {
	fprintf(w, "Ablation A5 — ECMP flow-hash balance across the core layer (k=%d, %d flows)\n", r.K, r.Flows)
	hr(w)
	fprintf(w, "frames per core: min=%.0f median=%.0f mean=%.0f max=%.0f\n",
		r.Spread.Min, r.Spread.Median, r.Spread.Mean, r.Spread.Max)
	fprintf(w, "imbalance (max/mean): %.2f\n\n", r.Imbalance)
}
