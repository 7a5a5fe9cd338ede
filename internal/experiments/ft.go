package experiments

import (
	"fmt"
	"io"
	"time"

	"portland/internal/baseline"
	"portland/internal/core"
	"portland/internal/flowtable"
	"portland/internal/obs"
	"portland/internal/pswitch"
	"portland/internal/topo"
	"portland/internal/workload"
)

// FTConfig parameterizes the forwarding-table pressure sweep: one cell
// per (fat-tree degree × switch generation, trial). Each cell warms
// both a PortLand fabric and a conventional flat-L2 baseline with the
// identical every-host ARP storm, then drives a sampled inter-pod
// trace through the PortLand half and measures what the hardware
// envelope costs (HARDWARE.md documents the model):
//
//   - forwarding-state footprint vs host count — PMAC steady state
//     stays O(k)+local hosts while the baseline CAM learns (and under
//     a matching cap, evicts and re-floods) every MAC crossing it;
//   - flow-setup pressure — the flow-cache miss ratio and eviction
//     count under table thrash. The reactive slow path costs zero
//     virtual time in this simulator, so the miss ratio is reported as
//     the honest proxy for flow-setup latency rather than a made-up
//     microsecond figure;
//   - ECMP coarseness — group-table overflow degrades destination
//     classes onto the shared wildcard group or truncates their member
//     width, and the agg↔core delivery imbalance shows the skew.
type FTConfig struct {
	Rig Rig
	// Ks are the fat-tree degrees to sweep (the host-count axis:
	// k³/4 hosts per degree).
	Ks []int
	// Flows sizes the sampled trace the PortLand half replays over
	// ftWindow after warm-up.
	Flows  int
	Trials int
}

// DefaultFT sweeps k=4..8 fat trees (16..128 hosts) under every
// envelope of ftGens.
func DefaultFT() FTConfig {
	return FTConfig{
		Rig:    DefaultRig(),
		Ks:     []int{4, 6, 8},
		Flows:  400,
		Trials: 1,
	}
}

// ftGens are the hardware envelopes the sweep runs at every degree:
// unbounded (zero limits: its tables stay unbounded while its links run
// at the same tier rates as the others'); a Gen40 ASIC scaled 64× down
// (4 ECMP groups, 64 member slots, 32 flow entries — the same
// testbed-scaling trick the baseline plays with STP timers), where the
// *group* budget binds first and destination classes degrade onto the
// shared wildcard group; and a member-tight envelope (groups plentiful,
// member slots scarce, random flow eviction) where admission truncates
// group widths instead — the coarseness that skews the agg↔core load.
var ftGens = []pswitch.Generation{
	{Name: "unbounded"},
	pswitch.Gen40.Scale(64),
	{Name: "mem-tight", ECMPGroups: 64, ECMPMembers: 20, FlowEntries: 64, FlowPolicy: flowtable.EvictRandom},
}

// ftWindow is the span each cell's sampled trace arrives over.
const ftWindow = 250 * time.Millisecond

// ftSettle is how long a cell keeps running after the trace window so
// in-flight packets drain, and ftIdle how long it idles afterwards so
// reactive flow entries expire and only required state remains.
const (
	ftSettle = 300 * time.Millisecond
	ftIdle   = 8 * time.Second
)

// ftPoint decodes a grid point into its (k, generation) coordinate.
func (cfg FTConfig) ftPoint(point int) (int, pswitch.Generation) {
	return cfg.Ks[point/len(ftGens)], ftGens[point%len(ftGens)]
}

// FTRow is one (k, generation) point merged across trials.
type FTRow struct {
	K     int
	Hosts int
	Gen   string

	// PortLand footprint: steady-state per-switch forwarding entries
	// (max/mean) after flows idle out, and the peak while they were
	// live.
	PLMax    int
	PLMean   float64
	PLActive int

	// Flow-cache pressure during the trace window.
	FlowCap   int     // per-switch flow entries (0 = unbounded)
	Misses    int64   // flow-cache misses (slow-path route computations)
	MissRatio float64 // misses / lookups — the flow-setup latency proxy
	Evictions int64   // entries displaced by capacity pressure
	OccMax    float64 // peak flow-table occupancy across switches

	// ECMP group-table coarseness and the resulting delivery skew.
	Degrades int64   // admission failures (wildcard fallback or truncation)
	ImbMax   int64   // busiest agg↔core link's delivered frames
	Imb      float64 // max/mean delivered over agg↔core links

	// Baseline flat-L2 CAM under the matching cap.
	BLCap   int
	BLMax   int
	BLMean  float64
	BLEvict int64
	BLFlood int64
}

// FTResult is the full sweep.
type FTResult struct {
	Cfg  FTConfig
	Rows []FTRow
	Reported
}

// ftTrial is one cell's raw measures.
type ftTrial struct {
	snap
	hosts               int
	plMax, plActive     int
	plMean              float64
	hits, misses        int64
	installs, evictions int64
	occMax              float64
	degrades            int64
	groupsLive          int64
	membersUsed         int64
	imbMax              int64
	imb                 float64
	blMax               int
	blMean              float64
	blEvict, blFlood    int64
}

// ftCell runs one (point, trial) cell on private fabrics. The seed
// derives only from (base seed, point, trial), so the cell is a pure
// function of its grid coordinate.
func ftCell(cfg FTConfig, point, trial int) (ftTrial, *core.Fabric, error) {
	k, gen := cfg.ftPoint(point)
	var out ftTrial
	rig := cfg.Rig
	rig.K = k
	rig.Seed = cfg.Rig.Seed + uint64((point+1)*1000+trial)
	rig.Hardware = gen
	f, err := rig.build()
	if err != nil {
		return out, nil, err
	}
	out.hosts = f.Spec.Count().Hosts

	// Phase 1: every host resolves warmPeers peers — the Table 1
	// warm-up, here run under the hardware envelope.
	workload.ARPStorm(f.HostList(), warmPeers)
	f.RunFor(2 * time.Second)

	// Phase 2: sampled inter-pod-heavy trace. Delivered frames on each
	// agg↔core link are deltaed across the window: coarse (degraded or
	// truncated) ECMP groups concentrate flows on fewer uplinks, and
	// the max/mean ratio exposes the skew.
	base := make([]int64, len(f.Links))
	for i, l := range f.Links {
		base[i] = l.Delivered()
	}
	wl := workload.TraceConfig{
		Seed:         rig.Seed,
		Flows:        cfg.Flows,
		Arrivals:     workload.Arrivals{Window: ftWindow, Bursts: 8, Spread: time.Millisecond},
		Size:         workload.Pareto{Alpha: 1.2, Min: 1, Max: 4},
		Locality:     workload.LocalityMix{IntraRack: 0.05, IntraPod: 0.15},
		PacketGap:    200 * time.Microsecond,
		PayloadBytes: 256,
		BasePort:     30000,
		DstPorts:     8,
	}
	tr := workload.StartTrace(wl, workload.NewPlacement(f.Spec), f.HostList())
	f.RunFor(ftWindow + ftSettle)
	tr.Stop()
	if tr.Delivered() != tr.Sent() {
		return out, nil, fmt.Errorf("trace delivered %d of %d packets at k=%d gen=%s",
			tr.Delivered(), tr.Sent(), k, gen.Name)
	}

	var sum, n int64
	for i, ls := range f.Spec.Links {
		al, bl := f.Spec.Nodes[ls.A.Node].Level, f.Spec.Nodes[ls.B.Node].Level
		if !(al == topo.Aggregation && bl == topo.Core || al == topo.Core && bl == topo.Aggregation) {
			continue
		}
		d := f.Links[i].Delivered() - base[i]
		sum += d
		n++
		out.imbMax = max(out.imbMax, d)
	}
	if sum > 0 {
		out.imb = float64(out.imbMax) * float64(n) / float64(sum)
	}

	// Flow-cache and group-table pressure, plus the live-flow state
	// peak, snapshotted while the trace entries are still installed.
	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		ft := sw.FlowTable().Stats
		out.hits += ft.Hits
		out.misses += ft.Misses
		out.installs += ft.Installs
		out.evictions += ft.Evictions
		out.occMax = max(out.occMax, sw.FlowTable().Occupancy())
		out.plActive = max(out.plActive, sw.RoutingStateSize())
		if !sw.Generation().Unlimited() {
			rs := sw.ResourceStats()
			out.degrades += rs.Degrades
			out.groupsLive += int64(rs.GroupsLive)
			out.membersUsed += int64(rs.MembersUsed)
		}
	}

	// Phase 3: idle the reactive entries out; what remains is the
	// state PortLand *requires* — flat in host count.
	f.RunFor(ftIdle)
	var plSum int
	for _, id := range f.Spec.Switches() {
		s := f.Switches[id].RoutingStateSize()
		plSum += s
		out.plMax = max(out.plMax, s)
	}
	out.plMean = float64(plSum) / float64(len(f.Spec.Switches()))
	out.snap = obsCell(f, point, trial, rig.Seed)

	// Phase 4: the conventional flat-L2 baseline under a CAM bound
	// matching the generation's exact-match table, identical warm-up.
	bf, err := buildBaseline(k, rig.Seed, baseline.Config{MACTableCap: gen.FlowEntries})
	if err != nil {
		return out, nil, err
	}
	workload.ARPStorm(bf.HostList(), warmPeers)
	bf.RunFor(5 * time.Second)
	var blSum int
	for _, id := range bf.Spec.Switches() {
		sw := bf.Switches[id]
		l := sw.MACTableLen()
		blSum += l
		out.blMax = max(out.blMax, l)
		out.blEvict += sw.Stats.MACEvictions
		out.blFlood += sw.Stats.FloodCopies
	}
	out.blMean = float64(blSum) / float64(len(bf.Spec.Switches()))
	return out, f, nil
}

// grid bounds the sweep: one point per (k, generation), Trials each.
func (cfg FTConfig) grid() (int, int, int) { return 0, len(cfg.Ks) * len(ftGens), cfg.Trials }

// report is the cell's replay report: the pressure figures as params,
// and a timeline of only the degradation events, not the (large) ARP
// and discovery timeline.
func (out ftTrial) report(cfg FTConfig, f *core.Fabric) (*obs.Report, error) {
	k, gen := cfg.ftPoint(out.cell.Point)
	rep := replayReport("ft", f, out.cell, map[string]string{
		"k":                 itoa(k),
		"gen":               gen.Name,
		"hosts":             itoa(out.hosts),
		"peers_per_host":    itoa(warmPeers),
		"flows":             itoa(cfg.Flows),
		"window":            ftWindow.String(),
		"trial":             itoa(out.cell.Trial),
		"flow_cap":          itoa(gen.FlowEntries),
		"flow_hits":         fmt.Sprintf("%d", out.hits),
		"flow_misses":       fmt.Sprintf("%d", out.misses),
		"flow_installs":     fmt.Sprintf("%d", out.installs),
		"flow_evictions":    fmt.Sprintf("%d", out.evictions),
		"flow_occ_max":      fmt.Sprintf("%.3f", out.occMax),
		"ecmp_degrades":     fmt.Sprintf("%d", out.degrades),
		"ecmp_groups_live":  fmt.Sprintf("%d", out.groupsLive),
		"ecmp_members_used": fmt.Sprintf("%d", out.membersUsed),
		"imb_max":           fmt.Sprintf("%d", out.imbMax),
		"imb_ratio":         fmt.Sprintf("%.3f", out.imb),
		"pl_state_max":      itoa(out.plMax),
		"pl_state_mean":     fmt.Sprintf("%.1f", out.plMean),
		"pl_state_active":   itoa(out.plActive),
		"bl_cam_cap":        itoa(gen.FlowEntries),
		"bl_cam_max":        itoa(out.blMax),
		"bl_cam_mean":       fmt.Sprintf("%.1f", out.blMean),
		"bl_evictions":      fmt.Sprintf("%d", out.blEvict),
		"bl_flood_copies":   fmt.Sprintf("%d", out.blFlood),
	}, views{})
	var degrades []obs.SourcedEvent
	for _, e := range f.Obs.Merge() {
		if e.Kind == obs.EcmpDegrade {
			degrades = append(degrades, e)
		}
	}
	if len(degrades) > 0 {
		rep.Timeline = obs.Timeline(degrades, 0, degrades[len(degrades)-1].At)
	}
	return rep, nil
}

// RunFT runs the forwarding-table pressure sweep: every (degree,
// generation) coordinate under the same warm-up and trace family.
func RunFT(cfg FTConfig) (*FTResult, error) {
	res := &FTResult{Cfg: cfg}
	err := sweep(&res.Reported, "ft", cfg.Rig.Seed, map[string]string{
		"trials":         itoa(cfg.Trials),
		"flows":          itoa(cfg.Flows),
		"window":         ftWindow.String(),
		"peers_per_host": itoa(warmPeers),
	}, len(cfg.Ks)*len(ftGens), cfg.Trials, func(point, trial int) (ftTrial, error) {
		out, _, err := ftCell(cfg, point, trial)
		return out, err
	}, func(p int, trials []ftTrial) {
		k, gen := cfg.ftPoint(p)
		row := FTRow{K: k, Gen: gen.Name, FlowCap: gen.FlowEntries, BLCap: gen.FlowEntries}
		var plMean, blMean, imb float64
		var lookups int64
		for _, tr := range trials {
			row.Hosts = tr.hosts
			row.PLMax = max(row.PLMax, tr.plMax)
			row.PLActive = max(row.PLActive, tr.plActive)
			plMean += tr.plMean
			row.Misses += tr.misses
			lookups += tr.hits + tr.misses
			row.Evictions += tr.evictions
			row.OccMax = max(row.OccMax, tr.occMax)
			row.Degrades += tr.degrades
			row.ImbMax = max(row.ImbMax, tr.imbMax)
			imb += tr.imb
			row.BLMax = max(row.BLMax, tr.blMax)
			blMean += tr.blMean
			row.BLEvict += tr.blEvict
			row.BLFlood += tr.blFlood
		}
		nt := float64(len(trials))
		row.PLMean = plMean / nt
		row.BLMean = blMean / nt
		row.Imb = imb / nt
		if lookups > 0 {
			row.MissRatio = float64(row.Misses) / float64(lookups)
		}
		res.Rows = append(res.Rows, row)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print tabulates the sweep: per (k, generation) point, the PortLand
// steady/peak footprint (flat in host count), the flow-cache miss and
// eviction pressure, the ECMP degradation count with the resulting
// agg↔core skew, and the baseline CAM's occupancy, evictions and
// re-flooding under the matching cap.
func (r *FTResult) Print(w io.Writer) {
	fprintf(w, "Forwarding-table pressure — hardware envelopes vs fabric scale\n")
	fprintf(w, "(%d peers/host warm-up, %d sampled flows over %v per cell, %d trials/point;\n",
		warmPeers, r.Cfg.Flows, ftWindow, r.Cfg.Trials)
	fprintf(w, " miss ratio proxies flow-setup latency: the reactive slow path is free in virtual time)\n")
	hr(w)
	fprintf(w, "%3s %6s %-10s %6s  %13s %6s  %7s %6s %6s  %5s %6s  %15s %7s %7s\n",
		"k", "hosts", "gen", "cap",
		"PL max/mean", "peak",
		"miss%", "evict", "occ%",
		"degr", "imb",
		"CAM max/mean", "evict", "flood")
	for _, row := range r.Rows {
		capLbl := "-"
		if row.FlowCap > 0 {
			capLbl = itoa(row.FlowCap)
		}
		fprintf(w, "%3d %6d %-10s %6s  %6d / %6.1f %6d  %7.2f %6d %6.1f  %5d %6.2f  %6d / %6.1f %7d %7d\n",
			row.K, row.Hosts, row.Gen, capLbl,
			row.PLMax, row.PLMean, row.PLActive,
			row.MissRatio*100, row.Evictions, row.OccMax*100,
			row.Degrades, row.Imb,
			row.BLMax, row.BLMean, row.BLEvict, row.BLFlood)
	}
	fmt.Fprintln(w)
}
