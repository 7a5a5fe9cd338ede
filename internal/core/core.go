// Package core assembles a complete PortLand deployment: it
// instantiates the fabric manager, one pswitch.Switch per switch in a
// topology blueprint, one host.Host per host, wires every cable as a
// simulated link, and connects each switch to the fabric manager over
// a control channel. This is the one composition root: examples,
// commands, tests and the experiment harness all drive a Fabric.
package core

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/fabricmgr"
	"portland/internal/graydetect"
	"portland/internal/host"
	"portland/internal/ldp"
	"portland/internal/obs"
	"portland/internal/pswitch"
	"portland/internal/sim"
	"portland/internal/topo"
	"portland/internal/trace"
)

// Options configures a fabric build. Zero values take defaults.
type Options struct {
	// Seed drives the deterministic PRNG (default 1).
	Seed uint64
	// Link is the physical link configuration (default
	// sim.DefaultLinkConfig: 1 GbE, 1 µs propagation).
	Link sim.LinkConfig
	// CtrlLoss is the per-frame loss probability on the control
	// network (default 0: lossless). Any positive value wraps every
	// control channel in a Reliable go-back-N layer whose
	// retransmits mask the loss.
	CtrlLoss float64
	// Standby arms a heartbeat watchdog per manager shard: a shard
	// silent for the heartbeat timeout is replaced by a fresh manager
	// that resyncs from the switches, the path RestartManager takes.
	Standby bool
	// LDP tunes the location-discovery timers.
	LDP ldp.Config
	// Detect arms every switch's gray-failure detector (default: off,
	// Interval 0 — byte-identical behavior to a build without one).
	Detect graydetect.Config
	// Shards partitions the fabric across engine shards: shard 0 holds
	// the core bank and the control plane, the remaining shards each
	// hold whole pods (see topo.Partition), advancing in lockstep
	// epochs bounded by the minimum cross-shard link delay. Any value
	// <= 1 means one shard — and because a one-shard domain runs the
	// identical code path, a sharded run is byte-identical to the
	// serial run for the same seed (gated by TestShardIdentity, and by
	// TestOptionsMatrix on every other option). No experiment sets it:
	// the benchmark's sharded boot and the engine's tests do.
	Shards int
	// MgrShards partitions the fabric manager's IP→PMAC registry by
	// address prefix across N manager replicas (see ctrlmsg.ShardOfIP).
	// Shard 0 keeps the route authority — pod numbering, fault matrix,
	// exclusions, DHCP, multicast — while registration and ARP
	// resolution spread across all shards. Any value <= 1 runs the
	// single manager exactly as before, byte-identical on the wire.
	MgrShards int
	// PuntBatch, when positive, makes edge switches hold ARP-miss
	// punts for up to this long and send them as one batch per manager
	// shard, which answers with one batch — amortizing control-channel
	// and journal costs under ARP storms. Zero keeps the immediate
	// per-query punt path.
	PuntBatch time.Duration
	// Hardware is the switch ASIC generation (see HARDWARE.md). The
	// zero Generation means no hardware model: links run at
	// Options.Link's rate and tables stay unbounded. Any other value
	// bounds every switch's tables by the generation's limits (zero
	// limits stay unbounded) and runs each link at its tier's rate:
	// 40G host–edge, 100G edge–aggregation, 200G aggregation–core.
	Hardware pswitch.Generation
}

// tierRate is the line rate, in bits per second, of a link between
// blueprint levels a and b under the hardware model; 0 for a pairing
// outside the three tree tiers.
func tierRate(a, b topo.Level) int64 {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == topo.Host && b == topo.Edge:
		return 40e9
	case a == topo.Edge && b == topo.Aggregation:
		return 100e9
	case a == topo.Aggregation && b == topo.Core:
		return 200e9
	}
	return 0
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Link.Rate == 0 {
		o.Link = sim.DefaultLinkConfig
	}
	return o
}

// Fabric is a running PortLand deployment.
type Fabric struct {
	// Dom is the engine domain the fabric runs on: one shard in the
	// default serial configuration, Options.Shards in a sharded one.
	Dom *sim.Domain
	// Eng is shard 0's engine — the control-plane shard. It stays
	// exported only because benchmark/kernels.go drains it directly;
	// everything else reads the clock through Now, draws through Rand,
	// schedules through Sched and advances time through RunFor, which
	// are correct on every shard layout.
	Eng  *sim.Engine
	Spec *topo.Spec
	Opts Options
	// Manager is registry shard 0, the route authority (== Mgrs[0]).
	Manager *fabricmgr.Manager
	// Mgrs holds every registry shard's active manager, indexed by
	// shard — a single element unless Options.MgrShards > 1. Takeover
	// and restart replace entries in place.
	Mgrs []*fabricmgr.Manager

	Switches map[topo.NodeID]*pswitch.Switch
	Hosts    map[topo.NodeID]*host.Host
	// Links is parallel to Spec.Links.
	Links []*sim.Link

	// Obs is the fabric's event registry: every switch, the manager(s)
	// and the fabric itself journal control-plane transitions into it.
	// Always non-nil after Build; see internal/obs for the event model.
	Obs *obs.Registry
	// jFabric records fabric-level interventions (link/switch faults
	// injected by the harness, manager kill/restart, takeover).
	jFabric *obs.Journal

	// ctrl is each switch's control channels, indexed by manager shard
	// (failover.go).
	ctrl map[topo.NodeID][]*ctrlChan

	// Control-plane survivability state, indexed by manager shard
	// (failover.go). epoch is global: any shard's restart or takeover
	// bumps it.
	epoch     uint32
	mgrDown   []bool
	tookOver  []bool
	lastBeat  []time.Duration
	hbPrimary []*ctrlnet.SimConn

	byName map[string]topo.NodeID
	// engOf maps each blueprint node to the engine shard it lives on.
	engOf []*sim.Engine
}

// NewFatTree builds (but does not start) a k-ary fat-tree fabric.
func NewFatTree(k int, opts Options) (*Fabric, error) {
	spec, err := topo.FatTree(k)
	if err != nil {
		return nil, err
	}
	return Build(spec, opts), nil
}

// Build wires a fabric from an arbitrary blueprint.
func Build(spec *topo.Spec, opts Options) *Fabric {
	opts = opts.withDefaults()
	assign, nShards := topo.Partition(spec, opts.Shards)
	dom := sim.NewDomain(opts.Seed, nShards)
	nMgr := opts.MgrShards
	if nMgr < 1 {
		nMgr = 1
	}
	f := &Fabric{
		Dom:      dom,
		Eng:      dom.Engine(0),
		Spec:     spec,
		Opts:     opts,
		Mgrs:     make([]*fabricmgr.Manager, nMgr),
		Switches: make(map[topo.NodeID]*pswitch.Switch),
		Hosts:    make(map[topo.NodeID]*host.Host),
		ctrl:     make(map[topo.NodeID][]*ctrlChan),
		byName:   make(map[string]topo.NodeID),
		Obs:      obs.NewRegistry(),
		engOf:    make([]*sim.Engine, len(spec.Nodes)),
		mgrDown:  make([]bool, nMgr),
		tookOver: make([]bool, nMgr),
		lastBeat: make([]time.Duration, nMgr),
	}
	for _, n := range spec.Nodes {
		f.engOf[n.ID] = dom.Engine(assign[n.ID])
	}
	f.jFabric = f.Obs.Journal("fabric", 128, f.Eng.Now)
	for i := range f.Mgrs {
		m := fabricmgr.New()
		m.SetShard(i, nMgr)
		name := "mgr"
		if i > 0 {
			name = fmt.Sprintf("mgr%d", i)
		}
		m.SetJournal(f.Obs.Journal(name, 2048, f.Eng.Now))
		f.Mgrs[i] = m
	}
	f.Manager = f.Mgrs[0]
	if opts.Standby {
		f.wireWatchdog()
	}
	hostIdx := 0
	for _, n := range spec.Nodes {
		f.byName[n.Name] = n.ID
		eng := f.engOf[n.ID]
		switch n.Level {
		case topo.Host:
			mac := HostMAC(hostIdx)
			ip := HostIP(hostIdx)
			hostIdx++
			f.Hosts[n.ID] = host.New(eng.NewProc(), n.Name, mac, ip)
		default:
			sw := pswitch.New(eng.NewProc(), SwitchID(n.ID), n.Name, n.Ports, opts.LDP)
			sw.SetGeneration(opts.Hardware)
			sw.SetDetector(opts.Detect)
			sw.SetPuntBatch(opts.PuntBatch)
			sw.SetJournal(f.Obs.Journal(n.Name, 256, eng.Now))
			f.Switches[n.ID] = sw
			f.wireControl(n.ID, sw)
		}
	}
	hw := opts.Hardware != (pswitch.Generation{})
	for _, ls := range spec.Links {
		an, bn := f.node(ls.A.Node), f.node(ls.B.Node)
		// Under a hardware model a link serializes at its tier's rate;
		// the rest of the physical config comes from Options.Link.
		cfg := opts.Link
		if r := tierRate(spec.Nodes[ls.A.Node].Level, spec.Nodes[ls.B.Node].Level); hw && r > 0 {
			cfg.Rate = r
		}
		l := dom.Connect(f.engOf[ls.A.Node], f.engOf[ls.B.Node], an, ls.A.Port, bn, ls.B.Port, cfg)
		f.Links = append(f.Links, l)
	}
	return f
}

// Now returns the fabric's virtual time (shard 0's clock; every shard
// agrees with it between runs).
func (f *Fabric) Now() time.Duration { return f.Eng.Now() }

// Rand returns the driver's PRNG: shard 0's root stream, which no
// simulated entity draws from, so workload and fault sampling is the
// same on every shard layout.
func (f *Fabric) Rand() *rand.Rand { return f.Eng.Rand() }

// Sched returns the fabric-wide scheduling surface: events scheduled
// through it run with every shard parked at the same instant, so
// drivers (fault injection, scenario brackets, measurement tickers)
// may touch any node regardless of the shard layout.
func (f *Fabric) Sched() sim.Sched { return f.Dom }

// SwitchID maps a blueprint node to its burned-in switch identifier.
func SwitchID(id topo.NodeID) ctrlmsg.SwitchID { return ctrlmsg.SwitchID(id) + 1 }

// HostMAC returns the AMAC for the i-th host (see topo.HostMAC).
func HostMAC(i int) ether.Addr { return topo.HostMAC(i) }

// HostIP returns the IP for the i-th host (see topo.HostIP).
func HostIP(i int) netip.Addr { return topo.HostIP(i) }

func (f *Fabric) node(id topo.NodeID) sim.Node {
	if sw, ok := f.Switches[id]; ok {
		return sw
	}
	return f.Hosts[id]
}

// Start launches every switch's protocol machinery (hosts have none).
func (f *Fabric) Start() {
	for _, id := range f.Spec.Switches() {
		f.Switches[id].Start()
	}
}

// RunFor advances virtual time by d across every shard.
func (f *Fabric) RunFor(d time.Duration) { f.Dom.RunUntil(f.Dom.Now() + d) }

// AwaitDiscovery runs the simulation until every switch has resolved
// its location, or returns an error at the deadline.
func (f *Fabric) AwaitDiscovery(limit time.Duration) error {
	deadline := f.Dom.Now() + limit
	step := 5 * time.Millisecond
	for f.Dom.Now() < deadline {
		f.Dom.RunUntil(minDur(f.Dom.Now()+step, deadline))
		if f.AllResolved() {
			return nil
		}
	}
	var unresolved []string
	for _, id := range f.Spec.Switches() {
		if !f.Switches[id].Resolved() {
			unresolved = append(unresolved, fmt.Sprintf("%s=%s", f.Switches[id].Name(), f.Switches[id].Loc()))
		}
	}
	return fmt.Errorf("location discovery incomplete after %v: %v", limit, unresolved)
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// AllResolved reports whether every live switch finished discovery.
func (f *Fabric) AllResolved() bool {
	for _, id := range f.Spec.Switches() {
		if sw := f.Switches[id]; !sw.Failed() && !sw.Resolved() {
			return false
		}
	}
	return true
}

// SwitchByName returns the named switch.
func (f *Fabric) SwitchByName(name string) *pswitch.Switch {
	if id, ok := f.byName[name]; ok {
		return f.Switches[id]
	}
	return nil
}

// HostByName returns the named host.
func (f *Fabric) HostByName(name string) *host.Host {
	if id, ok := f.byName[name]; ok {
		return f.Hosts[id]
	}
	return nil
}

// HostList returns all hosts in blueprint order.
func (f *Fabric) HostList() []*host.Host {
	ids := f.Spec.Hosts()
	out := make([]*host.Host, 0, len(ids))
	for _, id := range ids {
		out = append(out, f.Hosts[id])
	}
	return out
}

// LinkBetween finds the blueprint link index joining two named nodes.
func (f *Fabric) LinkBetween(a, b string) (int, bool) {
	ai, aok := f.byName[a]
	bi, bok := f.byName[b]
	if !aok || !bok {
		return 0, false
	}
	for i, ls := range f.Spec.Links {
		if (ls.A.Node == ai && ls.B.Node == bi) || (ls.A.Node == bi && ls.B.Node == ai) {
			return i, true
		}
	}
	return 0, false
}

// BusiestLink advances the simulation by window and returns the
// blueprint link between levels la and lb that delivered the most
// frames during it, the lowest index on a tie — how a caller finds the
// link a flow (or a multicast tree) is actually riding before failing
// it. It errors if no such link carried a frame in the window.
func (f *Fabric) BusiestLink(window time.Duration, la, lb topo.Level) (int, error) {
	base := make([]int64, len(f.Links))
	for i, l := range f.Links {
		base[i] = l.Delivered()
	}
	f.RunFor(window)
	best, bestDelta := -1, int64(0)
	for i, ls := range f.Spec.Links {
		al, bl := f.Spec.Nodes[ls.A.Node].Level, f.Spec.Nodes[ls.B.Node].Level
		if !(al == la && bl == lb || al == lb && bl == la) {
			continue
		}
		if d := f.Links[i].Delivered() - base[i]; d > bestDelta {
			bestDelta, best = d, i
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no %v-%v link carried traffic in %v", la, lb, window)
	}
	return best, nil
}

// FailLink takes the i-th blueprint link down.
func (f *Fabric) FailLink(i int) {
	f.jFabric.Record(obs.LinkFailed, uint64(i), 0, 0, 0)
	f.Links[i].SetUp(false)
}

// RestoreLink brings the i-th blueprint link back.
func (f *Fabric) RestoreLink(i int) {
	f.jFabric.Record(obs.LinkRestored, uint64(i), 0, 0, 0)
	f.Links[i].SetUp(true)
}

// SetGrayLoss injects (or, with zero rates, clears) a gray failure on
// the i-th blueprint link: each direction silently drops the given
// fraction of non-LDP frames while the link stays administratively up.
// rateToA applies toward the link's first blueprint endpoint, rateToB
// toward the second. The onset/clear is journaled with the rates in
// parts per million.
func (f *Fabric) SetGrayLoss(i int, rateToA, rateToB float64) {
	if rateToA == 0 && rateToB == 0 {
		f.jFabric.Record(obs.GrayCleared, uint64(i), 0, 0, 0)
	} else {
		f.jFabric.Record(obs.GrayOnset, uint64(i), ppm(rateToA), ppm(rateToB), 0)
	}
	f.Links[i].SetGrayLoss(rateToA, rateToB)
}

// ppm converts a probability to integer parts-per-million for journal
// arguments.
func ppm(rate float64) uint64 { return uint64(rate * 1e6) }

// FabricJournal exposes the fabric-level intervention journal so the
// fault harness (internal/faults) can record schedule and scenario
// milestones alongside the link/switch events.
func (f *Fabric) FabricJournal() *obs.Journal { return f.jFabric }

// ControlStats sums control-channel traffic in both directions:
// toMgr is switch→manager, fromMgr is manager→switch.
func (f *Fabric) ControlStats() (toMgr, fromMgr ctrlnet.Stats) {
	acc := func(dst *ctrlnet.Stats, c *ctrlnet.SimConn) {
		s := c.Stats()
		dst.Msgs += s.Msgs
		dst.Bytes += s.Bytes
		dst.Drops += s.Drops
		dst.Corrupt += s.Corrupt
	}
	for _, chans := range f.ctrl {
		for _, c := range chans {
			acc(&toMgr, c.swRaw)
			acc(&fromMgr, c.mgrRaw)
		}
	}
	return toMgr, fromMgr
}

// CheckDiscovery verifies LDP's output against the blueprint's ground
// truth: levels match; discovered pod numbers partition exactly like
// the blueprint pods; edge positions within each pod are a permutation
// of 0..k/2-1.
func (f *Fabric) CheckDiscovery() error {
	podMap := make(map[int]uint16) // spec pod -> discovered pod
	seenPod := make(map[uint16]int)
	for _, n := range f.Spec.Nodes {
		if n.Level == topo.Host {
			continue
		}
		sw := f.Switches[n.ID]
		if sw.Failed() {
			continue
		}
		loc := sw.Loc()
		wantLevel := map[topo.Level]uint8{
			topo.Edge:        ctrlmsg.LevelEdge,
			topo.Aggregation: ctrlmsg.LevelAggregation,
			topo.Core:        ctrlmsg.LevelCore,
		}[n.Level]
		if loc.Level != wantLevel {
			return fmt.Errorf("%s: discovered level %d, blueprint %s", n.Name, loc.Level, n.Level)
		}
		if n.Level == topo.Core {
			continue
		}
		if got, ok := podMap[n.Pod]; ok {
			if got != loc.Pod {
				return fmt.Errorf("%s: discovered pod %d, rest of blueprint pod %d discovered %d", n.Name, loc.Pod, n.Pod, got)
			}
		} else {
			if other, dup := seenPod[loc.Pod]; dup && other != n.Pod {
				return fmt.Errorf("%s: discovered pod %d already used by blueprint pod %d", n.Name, loc.Pod, other)
			}
			podMap[n.Pod] = loc.Pod
			seenPod[loc.Pod] = n.Pod
		}
	}
	// Edge positions must be a permutation per pod.
	pos := make(map[int]map[uint8]string)
	for _, n := range f.Spec.Nodes {
		if n.Level != topo.Edge || f.Switches[n.ID].Failed() {
			continue
		}
		loc := f.Switches[n.ID].Loc()
		if pos[n.Pod] == nil {
			pos[n.Pod] = make(map[uint8]string)
		}
		if prev, dup := pos[n.Pod][loc.Pos]; dup {
			return fmt.Errorf("%s: position %d already taken by %s", n.Name, loc.Pos, prev)
		}
		pos[n.Pod][loc.Pos] = n.Name
		if f.Spec.K > 0 && int(loc.Pos) >= f.Spec.K/2 {
			return fmt.Errorf("%s: position %d out of range for k=%d", n.Name, loc.Pos, f.Spec.K)
		}
	}
	return nil
}

// CapturePcap streams every frame the named switch touches into a
// standard pcap capture (openable in Wireshark); non-Ethernet-coded
// internal frames are serialized through the real wire codecs. The
// switch's existing Tap, if any, keeps seeing every frame. An unknown
// name is an error that writes nothing to w.
func (f *Fabric) CapturePcap(name string, w io.Writer) (*trace.PcapWriter, error) {
	sw := f.SwitchByName(name)
	if sw == nil {
		return nil, fmt.Errorf("no switch named %q", name)
	}
	pw, err := trace.NewPcapWriter(w)
	if err != nil {
		return nil, err
	}
	swEng := f.engOf[f.byName[name]]
	prev := sw.Tap
	sw.Tap = func(port int, frame *ether.Frame, egress bool) {
		if prev != nil {
			prev(port, frame, egress)
		}
		if !egress { // capture each frame once, on ingress
			_ = pw.WriteFrame(swEng.Now(), frame)
		}
	}
	return pw, nil
}
