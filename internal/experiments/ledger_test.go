package experiments

import (
	"fmt"
	"slices"
	"time"
)

// The ledger: PortLand's evaluation (§5) as checked claims. Each row
// names its catalog entry, the paper's figure or section and number
// (or the repo document that makes the claim, for entries beyond the
// paper), the mechanism its band comes from, and a predicate over the
// entry's typed result. TestCatalogIdentity evaluates every row on the
// serial -quick run it already makes, as subtest
// TestCatalogIdentity/<id>/<name>, so the ledger costs no driver run.
//
// Bands are literal numbers taken from the mechanism — the 5 × 10 ms
// LDM miss window, the 200 ms minimum RTO, the 300 ms migration pause —
// and never read from ldp or tcplite: a change to a protocol constant
// moves the result and leaves the band where the paper put it.
type claim struct {
	id, name string
	paper    string // the figure or section and its number
	band     string // the mechanism behind the band
	holds    func(Result) error
}

// on adapts a predicate over one driver's typed result.
func on[R Result](p func(R) error) func(Result) error {
	return func(r Result) error { return p(r.(R)) }
}

// within fails unless lo <= v <= hi.
func within(what string, v, lo, hi float64) error {
	if v < lo || v > hi {
		return fmt.Errorf("%s = %.2f, outside [%g, %g]", what, v, lo, hi)
	}
	return nil
}

// flat fails unless the largest of vs is at most ratio times the
// smallest.
func flat(what string, vs []float64, ratio float64) error {
	if len(vs) == 0 {
		return fmt.Errorf("%s: no values", what)
	}
	if lo, hi := slices.Min(vs), slices.Max(vs); hi > ratio*lo {
		return fmt.Errorf("%s span %.1f..%.1f, more than %g× apart: %v", what, lo, hi, ratio, vs)
	}
	return nil
}

// The miss-window band shared by every convergence claim: a port is
// declared down after 5 missed 10 ms LDMs, so detection lands 40–50 ms
// after the fault (the fault falls somewhere inside an LDM interval);
// the manager's redistribution and the switches' ECMP recomputation
// ride 20 µs control hops. The upper edge allows one LDM interval for
// them and for the 1 ms probe granularity.
const (
	missLoMs, missHiMs = 40.0, 60.0
	missBand           = "5 missed 10 ms LDMs = 50 ms, less up to one 10 ms interval of phase; +10 ms for redistribution, install and the 1 ms probe"
)

// fig9Converges is the f9 and f9s claim: every fault count has a row,
// no flow dies, and every median sits in the miss-window band.
func fig9Converges(r *Fig9Result) error {
	if len(r.Rows) != r.Cfg.MaxFaults {
		return fmt.Errorf("%d rows for %d fault counts", len(r.Rows), r.Cfg.MaxFaults)
	}
	for _, row := range r.Rows {
		if row.Dead > 0 {
			return fmt.Errorf("faults=%d: %d flows never recovered", row.Faults, row.Dead)
		}
		if row.Failure.N == 0 {
			continue
		}
		if err := within(fmt.Sprintf("faults=%d median ms", row.Faults), row.Failure.Median, missLoMs, missHiMs); err != nil {
			return err
		}
	}
	return nil
}

// fig9Flat is the "flat in the number of faults" claim: detection is
// per link, so a fault count adds nothing but where in its LDM interval
// each fault lands.
func fig9Flat(r *Fig9Result) error {
	var med []float64
	for _, row := range r.Rows {
		if row.Failure.N > 0 {
			med = append(med, row.Failure.Median)
		}
	}
	return flat("failure medians (ms)", med, 1.25)
}

var ledger = []claim{
	{"t1", "state-ratio-grows-with-k", "Table 1: flat L2 O(#hosts) vs PortLand O(k)",
		"flat L2 learns every host MAC; a PortLand edge holds its k/2 hosts and O(k) protocol entries",
		on(func(r *Table1Result) error {
			for i, row := range r.Rows {
				if row.Measured && float64(row.BLMax) <= row.PLMean {
					return fmt.Errorf("k=%d: flat L2 max %d not above PortLand mean %.1f", row.K, row.BLMax, row.PLMean)
				}
				if i > 0 && row.BLMax*r.Rows[i-1].PLMax <= r.Rows[i-1].BLMax*row.PLMax {
					return fmt.Errorf("flat/PortLand max ratio does not grow from k=%d (%d/%d) to k=%d (%d/%d)",
						r.Rows[i-1].K, r.Rows[i-1].BLMax, r.Rows[i-1].PLMax, row.K, row.BLMax, row.PLMax)
				}
			}
			return nil
		})},
	{"t1", "portland-state-is-k-halves-plus-k", "Table 1: PortLand switch state O(k) + local hosts",
		"k/2 local hosts + k neighbor entries at the busiest switch, the formula the analytic rows use",
		on(func(r *Table1Result) error {
			for _, row := range r.Rows {
				if row.Measured && row.PLMax != 3*row.K/2 {
					return fmt.Errorf("k=%d: PortLand steady max %d, want %d", row.K, row.PLMax, 3*row.K/2)
				}
			}
			return nil
		})},
	{"f9", "median-in-miss-window", "Fig. 9: ~65 ms", missBand, on(fig9Converges)},
	{"f9", "flat-in-fault-count", "Fig. 9: flat in the number of faults", "max/min of the medians ≤ 1.25", on(fig9Flat)},
	{"f9", "restoration-hitless", "Fig. 9 (§5: small recovery transients)",
		"a restored link only adds ECMP capacity: no packet in flight is orphaned, so 0 ms",
		on(func(r *Fig9Result) error {
			for _, row := range r.Rows {
				if row.Recovery.Max != 0 {
					return fmt.Errorf("faults=%d: recovery max %.1f ms", row.Faults, row.Recovery.Max)
				}
			}
			return nil
		})},
	{"f9s", "median-in-miss-window", "Fig. 9 (switch failure = all its links): ~65 ms", missBand, on(fig9Converges)},
	{"f9s", "flat-in-fault-count", "Fig. 9: flat in the number of faults", "max/min of the medians ≤ 1.25", on(fig9Flat)},
	{"f9s", "rejoin-blip", "Fig. 9 (§5: small recovery transients)",
		"a rebooted switch rejoins the ECMP sets within one 10 ms LDM interval",
		on(func(r *Fig9Result) error {
			for _, row := range r.Rows {
				if err := within(fmt.Sprintf("faults=%d recovery median ms", row.Faults), row.Recovery.Median, 0, 10); err != nil {
					return err
				}
			}
			return nil
		})},
	{"f10", "gap-is-one-min-rto", "Fig. 10: recovery hidden under the 200 ms min RTO",
		"exactly one RTO; gap in [200 ms, 200 ms + the 50 ms miss window + 10 ms slack]: detection finishes before the timer fires",
		on(func(r *Fig10Result) error {
			if r.Timeouts != 1 {
				return fmt.Errorf("%d RTO events, want exactly 1", r.Timeouts)
			}
			return within("delivery gap ms", float64(r.Gap)/1e6, 200, 260)
		})},
	{"f11", "median-in-f9-band", "Fig. 11: ~110 ms (ours omits OpenFlow install latency)", missBand + "; the tree recompute rides the same hops",
		on(func(r *Fig11Result) error {
			if r.Dead > 0 || r.Convergence.N == 0 {
				return fmt.Errorf("%d receivers affected, %d never recovered", r.Convergence.N, r.Dead)
			}
			return within("median ms", r.Convergence.Median, missLoMs, missHiMs)
		})},
	{"f12", "connection-survives", "Fig. 12: sub-second pause, TCP survives, throughput recovers",
		"outage in [300 ms pause, pause + 2 s of RTO backoff (200+400+800 ms) and ARP repair]; after ≥ 80% of before",
		on(func(r *Fig12Result) error {
			if r.Reset {
				return fmt.Errorf("connection reset across the migration")
			}
			if err := within("outage ms", float64(r.Outage)/1e6, 300, 2300); err != nil {
				return err
			}
			if r.PostMbps < 0.8*r.PreMbps {
				return fmt.Errorf("throughput %.0f Mbps after, %.0f before", r.PostMbps, r.PreMbps)
			}
			return nil
		})},
	{"f13", "linear-in-hosts-and-rate", "Fig. 13: control traffic linear in hosts × ARP rate",
		"hosts × rate × a fixed per-ARP cost: per-host traffic is constant, and 100/s is 4× 25/s",
		on(func(r *Fig13Result) error {
			perHost := r.Rows[0].Mbps[0] / float64(r.Rows[0].Hosts)
			for _, row := range r.Rows {
				if err := within(fmt.Sprintf("hosts=%d Mbps per host at 25/s", row.Hosts), row.Mbps[0]/float64(row.Hosts), 0.999*perHost, 1.001*perHost); err != nil {
					return err
				}
				if err := within(fmt.Sprintf("hosts=%d 100/s ÷ 25/s", row.Hosts), row.Mbps[2]/row.Mbps[0], 3.9, 4.1); err != nil {
					return err
				}
			}
			return nil
		})},
	{"f13", "cross-check-bounds-analytic", "Fig. 13: ~400 Mbps at 27k hosts, 25 ARPs/s, from a per-ARP cost",
		"a simulated run's control bytes per ARP include the query and answer (the analytic cost) plus registrations and floods: [1×, 6×] the analytic cost",
		on(func(r *Fig13Result) error {
			if r.BytesPerARP <= 0 {
				return fmt.Errorf("per-ARP cost %d bytes", r.BytesPerARP)
			}
			return within("measured bytes/ARP", r.MeasuredPerARP, float64(r.BytesPerARP), 6*float64(r.BytesPerARP))
		})},
	{"f14", "few-cores-at-paper-scale", "Fig. 14: CPU is not the bottleneck (~70 cores at 27k hosts, 100 ARPs/s in 2009)",
		"one core serves ≥ 10k ARPs/s, so 24–32k hosts at 25 ARPs/s need ≤ 16 cores",
		on(func(r *Fig14Result) error {
			if r.ARPsPerSec < 1e4 {
				return fmt.Errorf("%.0f ARPs/s on one core", r.ARPsPerSec)
			}
			for _, row := range r.Rows {
				if row.Hosts >= 24576 && row.Hosts <= 32768 && row.Cores[0] > 16 {
					return fmt.Errorf("hosts=%d needs %.1f cores at 25 ARPs/s", row.Hosts, row.Cores[0])
				}
			}
			return nil
		})},
	{"fmf", "blackout-bounded-by-recovery", "§3.2: manager state is soft; an outage costs only new resolutions",
		"a cold ARP resolves after the outage and within outage + 1.5 s; resync ≤ 500 ms; flows reconverge within 1.5 s; 10% loss drops frames",
		on(func(r *FMFResult) error {
			if len(r.Rows) != len(fmfLoss)*len(r.Cfg.Outages) {
				return fmt.Errorf("%d rows for %d outages × %d loss rates", len(r.Rows), len(r.Cfg.Outages), len(fmfLoss))
			}
			for _, row := range r.Rows {
				cell := fmt.Sprintf("outage=%v loss=%.2f", row.Outage, row.CtrlLoss)
				switch {
				case row.ARPBlackout < row.Outage || row.ARPBlackout > row.Outage+1500*time.Millisecond:
					return fmt.Errorf("%s: ARP blackout %v", cell, row.ARPBlackout)
				case row.ResyncRound < 0 || row.ResyncRound > 500*time.Millisecond:
					return fmt.Errorf("%s: resync round %v", cell, row.ResyncRound)
				case row.Dead > 0 || row.FlowConv <= 0 || row.FlowConv > 1500*time.Millisecond:
					return fmt.Errorf("%s: %d dead flows, convergence %v", cell, row.Dead, row.FlowConv)
				case row.CtrlLoss > 0 && row.CtrlDrops == 0:
					return fmt.Errorf("%s: dropped no control frame", cell)
				}
			}
			return nil
		})},
	{"fmf", "lossless-blackout-is-outage", "§3.2: installed forwarding state never stops",
		"on a lossless control net the restarted manager answers at once: blackout in [outage, outage + 5 ms] (1 ms probes, µs control hops)",
		on(func(r *FMFResult) error {
			for _, row := range r.Rows {
				if row.CtrlLoss == 0 && (row.ARPBlackout < row.Outage || row.ARPBlackout > row.Outage+5*time.Millisecond) {
					return fmt.Errorf("outage %v: lossless blackout %v", row.Outage, row.ARPBlackout)
				}
			}
			return nil
		})},
	{"sc", "gray-loss-needs-the-detector", "EXPERIMENTS.md sc: LDM liveness is blind to gray loss",
		"50% data loss lets LDMs through: gray-ldm is never detected, gray-det (same cell, detector armed) always is",
		on(func(r *SCResult) error {
			det := map[string]SCRow{}
			for _, row := range r.Rows {
				det[row.Family] = row
			}
			if ldm, gd := det["gray-ldm"], det["gray-det"]; ldm.Detected != 0 || gd.Trials == 0 || gd.Detected != gd.Trials {
				return fmt.Errorf("gray-ldm detected %d/%d, gray-det %d/%d", ldm.Detected, ldm.Trials, gd.Detected, gd.Trials)
			}
			return nil
		})},
	{"sc", "no-family-leaves-dead-flows", "§3.2, EXPERIMENTS.md sc: pod-power returns with zero dead",
		"sticky pods and host-registry replay restore every flow within the cell's settle time",
		on(func(r *SCResult) error {
			for _, row := range r.Rows {
				if row.Dead > 0 {
					return fmt.Errorf("%s: %d flows never recovered", row.Family, row.Dead)
				}
			}
			return nil
		})},
	{"mgr", "batching-amortizes-punts", "DESIGN.md §10: batched ARP punts",
		"one message per query unbatched; a 200 µs hold packs several queries into one batch",
		on(func(r *MgrResult) error {
			for _, row := range r.Rows {
				if row.Batch == 0 && row.MsgsPerQ != 1 || row.Batch > 0 && row.MsgsPerQ >= 1 {
					return fmt.Errorf("shards=%d batch=%v: %.3f messages per query", row.Shards, row.Batch, row.MsgsPerQ)
				}
			}
			return nil
		})},
	{"mgr", "fail-to-excl-flat-in-shards", "DESIGN.md §10: shard 0 alone is the route authority",
		missBand + "; max/min across shard counts ≤ 1.25",
		on(func(r *MgrResult) error {
			var conv []float64
			for _, row := range r.Rows {
				if err := within(fmt.Sprintf("shards=%d batch=%v fail->excl ms", row.Shards, row.Batch), row.Conv.Mean, missLoMs, missHiMs); err != nil {
					return err
				}
				conv = append(conv, row.Conv.Mean)
			}
			return flat("fail->excl (ms)", conv, 1.25)
		})},
	{"mgr", "registrations-stripe-evenly", "DESIGN.md §10: prefix-partitioned registry",
		"consecutive /30 blocks stripe the k=4 rig's 16 hosts across shards: 16/shards each",
		on(func(r *MgrResult) error {
			for _, row := range r.Rows {
				if want := int64(16 / row.Shards); row.RegMin != want || row.RegMax != want {
					return fmt.Errorf("shards=%d: registrations %d..%d per shard, want %d", row.Shards, row.RegMin, row.RegMax, want)
				}
			}
			return nil
		})},
	{"ft", "cam-to-pmac-ratio-grows-with-k", "Table 1 under hardware bounds (HARDWARE.md)",
		"the unbounded CAM holds every host (k³/4) while PortLand holds 3k/2 entries",
		on(func(r *FTResult) error {
			var prev *FTRow
			for i, row := range r.Rows {
				if row.FlowCap != 0 {
					continue
				}
				if row.PLMax != 3*row.K/2 {
					return fmt.Errorf("k=%d: PortLand steady max %d, want %d", row.K, row.PLMax, 3*row.K/2)
				}
				if prev != nil && row.BLMax*prev.PLMax <= prev.BLMax*row.PLMax {
					return fmt.Errorf("CAM/PMAC ratio does not grow from k=%d (%d/%d) to k=%d (%d/%d)",
						prev.K, prev.BLMax, prev.PLMax, row.K, row.BLMax, row.PLMax)
				}
				prev = &r.Rows[i]
			}
			if prev == nil {
				return fmt.Errorf("no unbounded row")
			}
			return nil
		})},
	{"ft", "bounded-tables-pin-at-capacity", "HARDWARE.md: flow-table capacity and eviction",
		"the trace's working set exceeds every capped table, so occupancy peaks at 100%",
		on(func(r *FTResult) error {
			for _, row := range r.Rows {
				if row.FlowCap > 0 && row.OccMax != 1 {
					return fmt.Errorf("k=%d %s: peak occupancy %.2f of %d entries", row.K, row.Gen, row.OccMax, row.FlowCap)
				}
			}
			return nil
		})},
	{"a1", "ecmp-beats-spanning-tree", "§1 and §3.4: multipath over every core",
		"ECMP spreads the cross-section over k²/4 cores; the spanning tree funnels it through one root: speedup > 1",
		on(func(r *A1Result) error {
			if r.Speedup <= 1 {
				return fmt.Errorf("ECMP %.0f Mbps vs spanning tree %.0f Mbps: speedup %.2f", r.PortLandMbps, r.BaselineMbps, r.Speedup)
			}
			return nil
		})},
	{"a2", "discovery-within-a-second", "§3.3: LDP locates every switch without configuration",
		"boot silence plus a few 10 ms LDM exchanges per tier: (0, 1 s], never faster at larger k",
		on(func(r *A2Result) error {
			for i, row := range r.Rows {
				if row.Discovery <= 0 || row.Discovery > time.Second {
					return fmt.Errorf("k=%d: discovery %v", row.K, row.Discovery)
				}
				if i > 0 && row.Discovery < r.Rows[i-1].Discovery {
					return fmt.Errorf("k=%d discovers in %v, faster than k=%d's %v", row.K, row.Discovery, r.Rows[i-1].K, r.Rows[i-1].Discovery)
				}
			}
			return nil
		})},
	{"a3", "proxy-arp-beats-broadcast", "§3.5: proxy ARP removes broadcast",
		"a flat-L2 ARP floods every link and host; PortLand's is one punt, one answer, one unicast reply",
		on(func(r *A3Result) error {
			if r.BLDataFrames <= r.PLDataFrames {
				return fmt.Errorf("flood %.1f frames/ARP not above proxy %.1f", r.BLDataFrames, r.PLDataFrames)
			}
			if r.HostsHearing < 2 {
				return fmt.Errorf("a flat-L2 ARP disturbs %.1f host NICs", r.HostsHearing)
			}
			return nil
		})},
	{"a4", "convergence-and-cost-track-the-interval", "§3.3: 10 ms LDMs, 50 ms timeout",
		"detection is 5 missed intervals less phase: median in [4, 6] intervals; LDMs/s × interval = the k=4 rig's 64 link ends / 20 switches = 3.2",
		on(func(r *A4Result) error {
			for _, row := range r.Rows {
				if err := within(fmt.Sprintf("%v: median ÷ interval", row.Interval), row.Convergence.Median/(row.Interval.Seconds()*1e3), 4, 6); err != nil {
					return err
				}
				if err := within(fmt.Sprintf("%v: LDMs/s/switch × interval", row.Interval), row.LDMsPerSec*row.Interval.Seconds(), 3.2*0.99, 3.2*1.01); err != nil {
					return err
				}
			}
			return nil
		})},
	{"a5", "hash-spreads-over-every-core", "§3.4: flow hashing over equal-cost paths",
		"k²/4 = 4 cores each carry traffic; max/mean ≤ 2.5",
		on(func(r *A5Result) error {
			if len(r.PerCore) != 4 || r.Spread.Min == 0 {
				return fmt.Errorf("per-core frames %v", r.PerCore)
			}
			return within("imbalance (max/mean)", r.Imbalance, 1, 2.5)
		})},
	{"a6", "rtt-tracks-hop-count", "§3.1: PMAC hierarchy mirrors the fat tree",
		"1/3/5 switch hops order the classes; every inter-pod pair is equidistant: max ≤ 1.5 × min",
		on(func(r *A6Result) error {
			if len(r.Rows) != 3 {
				return fmt.Errorf("%d locality classes", len(r.Rows))
			}
			same, pod, inter := r.Rows[0].RTT, r.Rows[1].RTT, r.Rows[2].RTT
			if !(same.Median < pod.Median && pod.Median < inter.Median) {
				return fmt.Errorf("medians %.1f / %.1f / %.1f µs not ordered by hops", same.Median, pod.Median, inter.Median)
			}
			return within("inter-pod max ÷ min", inter.Max/inter.Min, 1, 1.5)
		})},
}
