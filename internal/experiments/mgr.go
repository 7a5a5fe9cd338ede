package experiments

import (
	"fmt"
	"io"
	"time"

	"portland/internal/core"
	"portland/internal/fabricmgr"
	"portland/internal/obs"
	"portland/internal/workload"
)

// MgrConfig parameterizes the manager-scaling sweep: one cell per
// (shard count × punt-batch setting, trial), each driving a sampled
// trace workload (heavy-tailed sizes, bursty arrivals, inter-pod-heavy
// locality) through a fabric whose manager registry is prefix-sharded,
// then failing a core link to measure exclusion fan-out.
//
// All reported figures are virtual-time and therefore deterministic:
// the sweep shows what sharding and batching change *semantically* —
// message counts per resolution, registry spread across replicas,
// fan-out latency staying flat because shard 0 alone carries the route
// authority. Wall-clock cost per ARP query and per fault notification
// is measured by benchmark/ (fabricmgr.arp_ns_per_query,
// fabricmgr.fault_ns_per_notify).
type MgrConfig struct {
	Rig Rig
	// Flows sizes the sampled trace each cell replays over mgrWindow.
	Flows  int
	Trials int
}

// DefaultMgr replays 600 flows per cell, two trials per point, on the
// paper-testbed k=4 rig.
func DefaultMgr() MgrConfig {
	return MgrConfig{
		Rig:    DefaultRig(),
		Flows:  600,
		Trials: 2,
	}
}

// The sweep's axes: 1/2/4 registry shards (1 = classic single manager),
// each with edge punt batching off (0: punt each ARP miss immediately)
// and with a 200 µs hold timer.
var (
	mgrShards = []int{1, 2, 4}
	mgrBatch  = []time.Duration{0, 200 * time.Microsecond}
)

// mgrWindow is the span each cell's sampled trace arrives over.
const mgrWindow = 250 * time.Millisecond

// mgrSettle is how long a cell keeps running after the trace window so
// in-flight packets drain, and again after the link failure so the
// exclusion cascade completes.
const mgrSettle = 300 * time.Millisecond

// mgrBatchLabel renders a punt-batch coordinate for tables and params.
func mgrBatchLabel(d time.Duration) string {
	if d == 0 {
		return "off"
	}
	return d.String()
}

// MgrRow is one (shards, batch) point merged across trials.
type MgrRow struct {
	Shards     int
	Batch      time.Duration
	Queries    int64       // ARP queries served by all shards
	PuntMsgs   int64       // control messages those queries rode in
	MsgsPerQ   float64     // PuntMsgs / Queries — the batching amortization
	BatchFill  float64     // queries per batch message (0 with batching off)
	ARPsPerSec float64     // virtual-time service rate over the ARP span
	RegMin     int64       // smallest per-shard registration count
	RegMax     int64       // largest per-shard registration count
	Detect     obs.Summary // link-fail → fault-matrix transition, ms
	Conv       obs.Summary // link-fail → last exclusion install, ms
	Excl       int         // exclusions pushed for the fault, all trials
}

// MgrResult is the full sweep.
type MgrResult struct {
	Cfg  MgrConfig
	Rows []MgrRow
	Reported
}

// mgrTrial is one cell's raw measures.
type mgrTrial struct {
	snap
	queries            int64
	batches, batched   int64
	puntMsgs           int64
	regMin, regMax     int64
	arpsPerSec         float64
	detectMs, fanoutMs float64
	convMs             float64
	excl               int
	failAt             time.Duration
	faultLink          string
}

// mgrPoint decodes a grid point into its (shards, batch) coordinate.
func mgrPoint(point int) (int, time.Duration) {
	return mgrShards[point/len(mgrBatch)], mgrBatch[point%len(mgrBatch)]
}

// mgrARPSpan returns the virtual-time span between the first and last
// ARP service event in the merged journal — the window the service
// rate is computed over.
func mgrARPSpan(merged []obs.SourcedEvent) time.Duration {
	var first, last time.Duration
	seen := false
	for _, e := range merged {
		switch e.Kind {
		case obs.MgrARPHit, obs.MgrARPMiss, obs.MgrARPBatch:
			if !seen {
				first, seen = e.At, true
			}
			last = e.At
		}
	}
	if !seen || last <= first {
		return time.Millisecond
	}
	return last - first
}

// grid and cell declare the sweep (cellGrid): one point per (shards, batch), Trials each.
func (cfg MgrConfig) grid() (int, int, int) { return 0, len(mgrShards) * len(mgrBatch), cfg.Trials }

func (cfg MgrConfig) cell(point, trial int) (mgrTrial, *core.Fabric, error) {
	shards, batch := mgrPoint(point)
	var out mgrTrial
	rig := cfg.Rig
	rig.Seed = cfg.Rig.Seed + uint64((point+1)*1000+trial)
	rig.MgrShards = shards
	rig.PuntBatch = batch
	f, err := rig.build()
	if err != nil {
		return out, nil, err
	}

	// Phase 1: the ARP-heavy trace. Tight bursts cluster the misses so
	// the hold timer has something to coalesce.
	wl := workload.TraceConfig{
		Seed:         rig.Seed,
		Flows:        cfg.Flows,
		Arrivals:     workload.Arrivals{Window: mgrWindow, Bursts: 16, Spread: 500 * time.Microsecond},
		Size:         workload.Pareto{Alpha: 1.2, Min: 1, Max: 3},
		Locality:     workload.LocalityMix{IntraRack: 0.05, IntraPod: 0.15},
		PacketGap:    200 * time.Microsecond,
		PayloadBytes: 64,
		BasePort:     20000,
		DstPorts:     4,
	}
	tr := workload.StartTrace(wl, workload.NewPlacement(f.Spec), f.HostList())
	f.RunFor(mgrWindow + mgrSettle)
	tr.Stop()
	if tr.Delivered() != tr.Sent() {
		return out, nil, fmt.Errorf("trace delivered %d of %d packets at shards=%d batch=%v",
			tr.Delivered(), tr.Sent(), shards, batch)
	}

	var ms fabricmgr.Counters
	out.regMin = int64(1<<62 - 1)
	for _, m := range f.Mgrs {
		ms.Add(m.Stats)
		out.regMin = min(out.regMin, m.Stats.Registrations)
		out.regMax = max(out.regMax, m.Stats.Registrations)
	}
	out.queries = ms.ARPQueries
	out.batches, out.batched = ms.ARPBatches, ms.BatchedQueries
	// Control messages the queries rode in: each unbatched query is its
	// own punt, each batch is one message however many it carried.
	out.puntMsgs = (ms.ARPQueries - ms.BatchedQueries) + ms.ARPBatches
	out.arpsPerSec = float64(ms.ARPQueries) / mgrARPSpan(f.Obs.Merge()).Seconds()

	// Phase 2: exclusion fan-out. Fail a core uplink and time, in
	// virtual time, the detection (link down → fault-matrix transition)
	// and the fan-out proper (fault-matrix transition → last exclusion
	// installed at a switch).
	li, ok := f.LinkBetween("agg-p0-s0", "core-0")
	if !ok {
		return out, nil, fmt.Errorf("no agg-p0-s0<->core-0 link at k=%d", rig.K)
	}
	out.failAt, out.faultLink = failLink(f, li), linkName(f, li)
	f.RunFor(mgrSettle)
	var downAt, lastInstall time.Duration
	for _, e := range f.Obs.Merge() {
		if e.At < out.failAt {
			continue
		}
		switch e.Kind {
		case obs.MgrLinkDown:
			if downAt == 0 {
				downAt = e.At
			}
		case obs.MgrExclPush:
			out.excl++
		case obs.ExclInstall:
			lastInstall = e.At
		}
	}
	if downAt == 0 || lastInstall < downAt {
		return out, nil, fmt.Errorf("link fault produced no exclusion cascade at shards=%d", shards)
	}
	out.detectMs = obs.Ms(downAt - out.failAt)
	out.fanoutMs = obs.Ms(lastInstall - downAt)
	out.convMs = obs.Ms(lastInstall - out.failAt)
	out.snap = obsCell(f, point, trial, rig.Seed)
	return out, f, nil
}

// report is the cell's replay report: the punt and fan-out figures as
// params, and the timeline from the link failure on.
func (out mgrTrial) report(cfg MgrConfig, f *core.Fabric) (*obs.Report, error) {
	shards, batch := mgrPoint(out.cell.Point)
	return replayReport("mgr", f, out.cell, map[string]string{
		"k":                itoa(cfg.Rig.K),
		"shards":           itoa(shards),
		"batch":            mgrBatchLabel(batch),
		"flows":            itoa(cfg.Flows),
		"window":           mgrWindow.String(),
		"trial":            itoa(out.cell.Trial),
		"arp_queries":      fmt.Sprintf("%d", out.queries),
		"arp_batches":      fmt.Sprintf("%d", out.batches),
		"batched_queries":  fmt.Sprintf("%d", out.batched),
		"punt_msgs":        fmt.Sprintf("%d", out.puntMsgs),
		"arps_per_sec_sim": fmt.Sprintf("%.0f", out.arpsPerSec),
		"reg_min":          fmt.Sprintf("%d", out.regMin),
		"reg_max":          fmt.Sprintf("%d", out.regMax),
		"detect_ms":        fmt.Sprintf("%.3f", out.detectMs),
		"fanout_ms":        fmt.Sprintf("%.3f", out.fanoutMs),
		"conv_ms":          fmt.Sprintf("%.3f", out.convMs),
		"excl_pushed":      itoa(out.excl),
		"fault_link":       out.faultLink,
	}, views{faultAt: out.failAt}), nil
}

// RunMgr runs the manager-scaling sweep: every (shard count,
// punt-batch) coordinate under the same sampled trace family.
func RunMgr(cfg MgrConfig) (*MgrResult, error) {
	res := &MgrResult{Cfg: cfg}
	err := sweepCells(&res.Reported, "mgr", cfg.Rig.Seed, map[string]string{
		"k":      itoa(cfg.Rig.K),
		"trials": itoa(cfg.Trials),
		"flows":  itoa(cfg.Flows),
		"window": mgrWindow.String(),
	}, cfg, func(p int, trials []mgrTrial) {
		shards, batch := mgrPoint(p)
		row := MgrRow{Shards: shards, Batch: batch, RegMin: int64(1<<62 - 1)}
		var detMs, convMs []float64
		var arps float64
		var batches, batched int64
		for _, tr := range trials {
			row.Queries += tr.queries
			row.PuntMsgs += tr.puntMsgs
			batches += tr.batches
			batched += tr.batched
			arps += tr.arpsPerSec
			row.RegMin = min(row.RegMin, tr.regMin)
			row.RegMax = max(row.RegMax, tr.regMax)
			detMs = append(detMs, tr.detectMs)
			convMs = append(convMs, tr.convMs)
			row.Excl += tr.excl
		}
		if row.Queries > 0 {
			row.MsgsPerQ = float64(row.PuntMsgs) / float64(row.Queries)
		}
		if batches > 0 {
			row.BatchFill = float64(batched) / float64(batches)
		}
		row.ARPsPerSec = arps / float64(len(trials))
		row.Detect = obs.Summarize(detMs)
		row.Conv = obs.Summarize(convMs)
		res.Rows = append(res.Rows, row)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print tabulates the sweep: per (shards, batch) point, the punt
// amortization (messages per query, batch fill), the virtual-time ARP
// service rate, the registry spread across shards, and the
// fault-exclusion latency — which must stay flat as shards grow,
// because shard 0 alone is the route authority.
func (r *MgrResult) Print(w io.Writer) {
	fprintf(w, "Manager scaling — prefix-sharded registry + batched ARP punts\n")
	fprintf(w, "(k=%d fat tree, %d sampled flows over %v per cell, %d trials/point; virtual-time rates)\n",
		r.Cfg.Rig.K, r.Cfg.Flows, mgrWindow, r.Cfg.Trials)
	hr(w)
	fprintf(w, "%6s %7s  %7s %7s %7s %6s  %9s  %11s  %16s %5s\n",
		"shards", "batch", "queries", "msgs", "msgs/q", "fill", "arps/s", "reg min/max", "fail->excl (ms)", "excl")
	for _, row := range r.Rows {
		fill := "-"
		if row.BatchFill > 0 {
			fill = fmt.Sprintf("%.2f", row.BatchFill)
		}
		fprintf(w, "%6d %7s  %7d %7d %7.3f %6s  %9.0f  %5d/%-5d  %16.1f %5d\n",
			row.Shards, mgrBatchLabel(row.Batch),
			row.Queries, row.PuntMsgs, row.MsgsPerQ, fill,
			row.ARPsPerSec, row.RegMin, row.RegMax,
			row.Conv.Mean, row.Excl)
	}
	fmt.Fprintln(w)
}
