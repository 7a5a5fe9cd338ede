package ldp

import (
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/obs"
	"portland/internal/pmac"
	"portland/internal/sim"
)

// Config tunes the protocol's timers. Only the LDM interval is a
// setting (default 10 ms, the paper's); the silence and miss windows
// are fixed multiples of it.
type Config struct {
	Interval time.Duration
}

// A port silent for silenceFactor intervals at boot is a host port; a
// switch neighbor silent for missFactor intervals is declared down.
const (
	defaultInterval = 10 * time.Millisecond
	silenceFactor   = 4
	missFactor      = 5
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = defaultInterval
	}
	return c
}

// Env is the switch-side surface the agent drives.
type Env interface {
	// ID returns the switch's burned-in identifier.
	ID() ctrlmsg.SwitchID
	// NumPorts returns the switch's port count.
	NumPorts() int
	// SendLDP transmits an LDP packet out the given port.
	SendLDP(port int, p *Packet)
	// LocationResolved fires once, when the switch knows everything
	// LDP can tell it (edge: level+pod+pos; agg: level+pod; core:
	// level). The switch reports to the fabric manager and arms its
	// dataplane.
	LocationResolved(loc ctrlmsg.Loc)
	// RequestPod asks the fabric manager for a fresh pod number; the
	// env must call Agent.SetPod with the answer. Only the edge switch
	// that wins position 0 requests one.
	RequestPod()
	// PortStatus reports a switch neighbor transitioning between live
	// and dead (missed-LDM timeout / LDM resumption).
	PortStatus(port int, peer Neighbor, up bool)
	// NeighborUpdate reports that the identity or location advertised
	// by the switch behind port changed (including first sight). The
	// switch relays these to the fabric manager, which assembles the
	// topology graph from them.
	NeighborUpdate(port int, peer Neighbor)
}

// Neighbor is what the agent knows about the switch on the far side
// of a port.
type Neighbor struct {
	ID    ctrlmsg.SwitchID
	Loc   ctrlmsg.Loc
	Alive bool
}

type portInfo struct {
	neighbor Neighbor
	seen     bool
	host     bool
	lastSeen time.Duration
	// quarantined marks a port administratively dead by the
	// gray-failure detector: the neighbor keeps passing LDP keepalives
	// (gray failures spare small control frames), but the agent
	// refuses to revive it until Unquarantine.
	quarantined bool
}

// Agent runs LDP for one switch. Not safe for concurrent use; all
// calls must come from the simulation event loop.
type Agent struct {
	eng *sim.Proc
	env Env
	cfg Config

	ports []portInfo

	level uint8
	pod   uint16
	pos   uint8

	resolvedSent bool
	podRequested bool

	// Edge-side position negotiation.
	posCandidate uint8
	posPending   bool // a proposal for posCandidate is outstanding
	posSpace     int  // current size of the position space being tried
	posDenied    map[uint8]bool
	posGrants    map[ctrlmsg.SwitchID]bool
	retryArmed   bool

	// Aggregation-side position claims: candidate -> owner.
	claims map[uint8]ctrlmsg.SwitchID

	ticker *sim.Ticker

	// version increments on every change to the inputs of route
	// computation: port classification (host vs switch), neighbor
	// identity/location/liveness, and the agent's own level, pod and
	// position. The switch's ECMP candidate caches key their validity
	// on it (epoch invalidation instead of rebuilding per packet).
	version uint64

	// ldm is the cached periodic announcement. The same location is
	// broadcast on every port of every tick, so the packet is built
	// once per *state change* rather than once per tick (k=48: one
	// allocation instead of ~138k/interval). It is never mutated in
	// place — a state change swaps in a fresh packet — so in-flight
	// frames still referencing the old one keep a correct snapshot.
	ldm *Packet

	// LDMsSent counts transmissions, reported by control-overhead
	// ablations.
	LDMsSent int64

	// jou receives the agent's state transitions (level/pod/position
	// inference, neighbor liveness). A nil journal is a no-op sink.
	jou *obs.Journal
}

// New builds an (unstarted) agent.
func New(eng *sim.Proc, env Env, cfg Config) *Agent {
	return &Agent{
		eng:       eng,
		env:       env,
		cfg:       cfg.withDefaults(),
		ports:     make([]portInfo, env.NumPorts()),
		level:     ctrlmsg.LevelUnknown,
		pod:       PodUnknown,
		pos:       PosUnknown,
		posDenied: make(map[uint8]bool),
		posGrants: make(map[ctrlmsg.SwitchID]bool),
		claims:    make(map[uint8]ctrlmsg.SwitchID),
	}
}

// SetJournal directs the agent's state-transition events into j
// (normally the owning switch's journal). Safe to leave unset.
func (a *Agent) SetJournal(j *obs.Journal) { a.jou = j }

// Start begins announcing and arms the boot-silence classifier.
func (a *Agent) Start() {
	a.ticker = a.eng.NewTicker(a.cfg.Interval, a.cfg.Interval, a.tick)
	a.eng.Schedule(silenceFactor*a.cfg.Interval, a.classifyBySilence)
}

// Stop halts announcements (used when failing an entire switch).
func (a *Agent) Stop() {
	if a.ticker != nil {
		a.ticker.Stop()
	}
}

// Loc returns the current (possibly partial) location.
func (a *Agent) Loc() ctrlmsg.Loc { return ctrlmsg.Loc{Level: a.level, Pod: a.pod, Pos: a.pos} }

// Level returns the discovered level (ctrlmsg.LevelUnknown early on).
func (a *Agent) Level() uint8 { return a.level }

// Pod returns the discovered pod number (PodUnknown early on).
func (a *Agent) Pod() uint16 { return a.pod }

// Pos returns the discovered position (PosUnknown early on).
func (a *Agent) Pos() uint8 { return a.pos }

// IsHostPort reports whether port faces a host.
func (a *Agent) IsHostPort(port int) bool { return a.ports[port].host }

// Neighbor returns what is known about the switch behind port.
func (a *Agent) Neighbor(port int) (Neighbor, bool) {
	p := a.ports[port]
	if !p.seen || p.host {
		return Neighbor{}, false
	}
	return p.neighbor, true
}

// Version returns the route-input version counter: it changes whenever
// anything that ForEachLiveUp / ForEachLiveDown derive from changes.
// Callers cache candidate sets against it.
func (a *Agent) Version() uint64 { return a.version }

// upLevel returns the neighbor level that counts as "up" from here, or
// LevelUnknown if nothing does.
func (a *Agent) upLevel() uint8 {
	switch a.level {
	case ctrlmsg.LevelEdge:
		return ctrlmsg.LevelAggregation
	case ctrlmsg.LevelAggregation:
		return ctrlmsg.LevelCore
	}
	return ctrlmsg.LevelUnknown
}

// downLevel mirrors upLevel for the level below.
func (a *Agent) downLevel() uint8 {
	switch a.level {
	case ctrlmsg.LevelAggregation:
		return ctrlmsg.LevelEdge
	case ctrlmsg.LevelCore:
		return ctrlmsg.LevelAggregation
	}
	return ctrlmsg.LevelUnknown
}

// ForEachLiveUp invokes fn, without allocating, for every live port
// that leads toward the tree root, in ascending port order: for an edge
// switch the ports with aggregation neighbors, for an aggregation
// switch the ports with core neighbors. Core switches have none.
func (a *Agent) ForEachLiveUp(fn func(port int, n Neighbor)) {
	a.forEachLive(a.upLevel(), fn)
}

// ForEachLiveDown invokes fn for every live down-facing port in
// ascending port order, without allocating.
func (a *Agent) ForEachLiveDown(fn func(port int, n Neighbor)) {
	a.forEachLive(a.downLevel(), fn)
}

func (a *Agent) forEachLive(want uint8, fn func(port int, n Neighbor)) {
	if want == ctrlmsg.LevelUnknown {
		return
	}
	for i := range a.ports {
		p := &a.ports[i]
		if p.seen && !p.host && p.neighbor.Alive && p.neighbor.Loc.Level == want {
			fn(i, p.neighbor)
		}
	}
}

// NoteDataFrame hints that a non-LDP frame arrived on port: only
// hosts emit traffic without ever speaking LDP, so the port is
// host-facing (the paper's "directly connected to an end host"
// inference). This accelerates edge classification.
func (a *Agent) NoteDataFrame(port int) {
	p := &a.ports[port]
	if p.seen || p.host {
		return
	}
	p.host = true
	a.version++
	a.jou.Record(obs.LDPHostPort, uint64(port), 0, 0, a.version)
	a.maybeBecomeEdge()
}

// SetPod installs the fabric manager's answer to RequestPod (or a pod
// adopted from a neighbor) and propagates resolution.
func (a *Agent) SetPod(pod uint16) {
	if a.pod != PodUnknown || pod == PodUnknown {
		return
	}
	a.pod = pod
	a.version++
	a.jou.Record(obs.LDPPod, uint64(pod), 0, 0, a.version)
	a.announce()
	a.maybeResolve()
}

// announce sends an immediate LDM on every switch-facing port so
// neighbors learn state changes (level, pod, position) without
// waiting out the periodic interval. Without this, a freshly resolved
// edge switch is briefly unroutable-to: its aggregation neighbors
// would hold a stale position for up to one LDM interval.
func (a *Agent) announce() {
	ldm := a.ldmPacket()
	for i := range a.ports {
		if a.ports[i].host {
			continue
		}
		a.LDMsSent++
		a.env.SendLDP(i, ldm)
	}
}

// tick sends the periodic LDM on every relevant port and sweeps for
// missed-LDM timeouts.
func (a *Agent) tick() {
	ldm := a.ldmPacket()
	for i := range a.ports {
		p := &a.ports[i]
		// Once resolved, edge switches stop announcing on host
		// ports: hosts ignore LDP, and switch-to-switch liveness is
		// what the keepalive protects.
		if p.host && a.resolvedSent {
			continue
		}
		a.LDMsSent++
		a.env.SendLDP(i, ldm)
	}
	// Liveness sweep.
	deadline := a.eng.Now() - missFactor*a.cfg.Interval
	for i := range a.ports {
		p := &a.ports[i]
		if !p.seen || p.host || !p.neighbor.Alive {
			continue
		}
		if p.lastSeen < deadline {
			p.neighbor.Alive = false
			a.version++
			a.jou.Record(obs.NeighborDown, uint64(i), uint64(p.neighbor.ID), 0, a.version)
			a.env.PortStatus(i, p.neighbor, false)
		}
	}
	// Drive stalled position negotiation (e.g. proposals lost before
	// neighbors were up, or new aggregation switches appeared).
	if a.level == ctrlmsg.LevelEdge && a.pos == PosUnknown && !a.retryArmed {
		a.proposePosition()
	}
}

// ldmPacket returns the announcement for the agent's current location,
// rebuilding the cached packet only when level/pod/pos changed since
// the last transmission.
func (a *Agent) ldmPacket() *Packet {
	if p := a.ldm; p != nil && p.Level == a.level && p.Pod == a.pod && p.Pos == a.pos {
		return p
	}
	a.ldm = &Packet{Kind: KindLDM, Switch: a.env.ID(), Level: a.level, Pod: a.pod, Pos: a.pos}
	return a.ldm
}

// Quarantine marks a switch-facing port dead regardless of LDP
// liveness: the gray-failure detector calls it when the data plane
// drops frames on a link whose keepalives still pass. The port is
// reported down through the normal PortStatus path (so exclusions and
// reroutes fire exactly as for a fail-stop loss), and incoming LDMs no
// longer revive it. Returns false if the port is not an eligible live
// switch port (host port, never seen, or already quarantined).
func (a *Agent) Quarantine(port int) bool {
	p := &a.ports[port]
	if !p.seen || p.host || p.quarantined || !p.neighbor.Alive {
		return false
	}
	p.quarantined = true
	p.neighbor.Alive = false
	a.version++
	a.jou.Record(obs.NeighborDown, uint64(port), uint64(p.neighbor.ID), 0, a.version)
	a.env.PortStatus(port, p.neighbor, false)
	return true
}

// Unquarantine lifts a quarantine. The port stays down until the next
// LDM arrives, which revives it through the normal NeighborUp path.
func (a *Agent) Unquarantine(port int) {
	a.ports[port].quarantined = false
}

// HandleLDP processes an inbound LDP packet.
func (a *Agent) HandleLDP(port int, pkt *Packet) {
	p := &a.ports[port]
	if p.quarantined {
		// The neighbor is alive at the LDP layer — that is exactly the
		// gray-failure signature. Track liveness for the eventual
		// release but do not revive the port.
		p.lastSeen = a.eng.Now()
		return
	}
	wasHost := p.host
	p.host = false // switches speak LDP; this cannot be a host port
	now := a.eng.Now()
	first := !p.seen
	revived := p.seen && !p.neighbor.Alive
	old := p.neighbor
	p.seen = true
	p.lastSeen = now
	p.neighbor = Neighbor{
		ID:    pkt.Switch,
		Loc:   ctrlmsg.Loc{Level: pkt.Level, Pod: pkt.Pod, Pos: pkt.Pos},
		Alive: true,
	}
	if wasHost || first || revived || old.ID != p.neighbor.ID || old.Loc != p.neighbor.Loc {
		a.version++
	}
	if revived {
		a.jou.Record(obs.NeighborUp, uint64(port), uint64(p.neighbor.ID), 0, a.version)
		a.env.PortStatus(port, p.neighbor, true)
	}
	if first || old.ID != p.neighbor.ID || old.Loc != p.neighbor.Loc {
		a.jou.Record(obs.NeighborSeen, uint64(port), uint64(p.neighbor.ID), 0, a.version)
		a.env.NeighborUpdate(port, p.neighbor)
	}

	a.inferLevel(pkt)
	a.adoptPod(pkt)

	switch pkt.Kind {
	case KindPosPropose:
		a.handlePropose(port, pkt)
	case KindPosGrant:
		a.handleGrant(pkt)
	case KindPosRelease:
		if a.claims[pkt.Candidate] == pkt.Switch {
			delete(a.claims, pkt.Candidate)
		}
	}
}

// inferLevel applies the paper's level-inference rules:
//   - a neighbor that is an edge or a core switch implies we are
//     aggregation (only aggregation connects to either);
//   - an aggregation neighbor implies edge or core, disambiguated by
//     whether we have host ports (edge) or none after the boot-silence
//     window (core).
func (a *Agent) inferLevel(pkt *Packet) {
	if a.level != ctrlmsg.LevelUnknown {
		return
	}
	switch pkt.Level {
	case ctrlmsg.LevelEdge, ctrlmsg.LevelCore:
		a.setLevel(ctrlmsg.LevelAggregation)
	case ctrlmsg.LevelAggregation:
		if a.hasHostPorts() {
			a.setLevel(ctrlmsg.LevelEdge)
		} else if a.allPortsSeen() {
			a.setLevel(ctrlmsg.LevelCore)
		}
	}
}

func (a *Agent) adoptPod(pkt *Packet) {
	if a.pod != PodUnknown || pkt.Pod == PodUnknown || pkt.Pod == pmac.CorePod {
		return
	}
	// Edges adopt from aggregation neighbors; aggregations from edge
	// neighbors. Core switches never adopt a pod.
	switch {
	case a.level == ctrlmsg.LevelEdge && pkt.Level == ctrlmsg.LevelAggregation:
		a.SetPod(pkt.Pod)
	case a.level == ctrlmsg.LevelAggregation && pkt.Level == ctrlmsg.LevelEdge:
		a.SetPod(pkt.Pod)
	}
}

func (a *Agent) hasHostPorts() bool {
	for i := range a.ports {
		if a.ports[i].host {
			return true
		}
	}
	return false
}

func (a *Agent) allPortsSeen() bool {
	for i := range a.ports {
		if !a.ports[i].seen {
			return false
		}
	}
	return true
}

// classifyBySilence runs once, silenceFactor intervals after boot:
// ports that have never carried an LDM are host ports. A switch with
// both kinds is an edge switch; one with none silent that has heard
// only aggregation neighbors is core (handled in inferLevel on the
// next LDM).
func (a *Agent) classifyBySilence() {
	anySeen := false
	for i := range a.ports {
		if a.ports[i].seen {
			anySeen = true
		}
	}
	if !anySeen {
		// Totally isolated switch; re-check later.
		a.eng.Schedule(silenceFactor*a.cfg.Interval, a.classifyBySilence)
		return
	}
	for i := range a.ports {
		p := &a.ports[i]
		if !p.seen {
			p.host = true
			a.version++
			a.jou.Record(obs.LDPHostPort, uint64(i), 0, 0, a.version)
		}
	}
	a.maybeBecomeEdge()
	if a.level == ctrlmsg.LevelUnknown && a.allPortsSeen() {
		// All ports have switch neighbors; if any is aggregation we
		// are core.
		for i := range a.ports {
			if a.ports[i].neighbor.Loc.Level == ctrlmsg.LevelAggregation {
				a.setLevel(ctrlmsg.LevelCore)
				break
			}
		}
	}
}

func (a *Agent) maybeBecomeEdge() {
	if a.level == ctrlmsg.LevelUnknown && a.hasHostPorts() {
		a.setLevel(ctrlmsg.LevelEdge)
	}
}

func (a *Agent) setLevel(l uint8) {
	if a.level != ctrlmsg.LevelUnknown {
		return
	}
	a.level = l
	a.version++
	a.jou.Record(obs.LDPLevel, uint64(l), 0, 0, a.version)
	if l == ctrlmsg.LevelCore {
		a.pod = pmac.CorePod
	}
	a.announce()
	if l == ctrlmsg.LevelEdge {
		a.proposePosition()
	}
	a.maybeResolve()
}

func (a *Agent) maybeResolve() {
	if a.resolvedSent {
		return
	}
	switch a.level {
	case ctrlmsg.LevelEdge:
		if a.pod == PodUnknown || a.pos == PosUnknown {
			return
		}
	case ctrlmsg.LevelAggregation:
		if a.pod == PodUnknown {
			return
		}
	case ctrlmsg.LevelCore:
		// Level alone suffices.
	default:
		return
	}
	a.resolvedSent = true
	a.jou.Record(obs.LDPResolved, uint64(a.level), uint64(a.pod), uint64(a.pos), a.version)
	a.env.LocationResolved(a.Loc())
}

// proposePosition (edge only) picks a random not-yet-denied candidate
// and asks every live aggregation neighbor to grant it.
func (a *Agent) proposePosition() {
	if a.level != ctrlmsg.LevelEdge || a.pos != PosUnknown {
		return
	}
	ups := 0
	a.ForEachLiveUp(func(int, Neighbor) { ups++ })
	if ups == 0 {
		return // retried from tick once aggregation neighbors appear
	}
	if !a.posPending {
		// In a strict fat tree the position space equals the up-port
		// count (k/2 edges per pod). General multi-rooted trees can
		// have more edges per pod than aggregation uplinks, so the
		// space grows whenever every candidate has been denied —
		// positions just need to be unique within the pod, and the
		// aggregation switches arbitrate whatever values are offered.
		if a.posSpace < ups {
			a.posSpace = ups
		}
		var free []uint8
		for c := 0; c < a.posSpace && c < int(PosUnknown); c++ {
			if !a.posDenied[uint8(c)] {
				free = append(free, uint8(c))
			}
		}
		if len(free) == 0 {
			// Exhausted: widen the space and retry above it.
			grown := a.posSpace * 2
			if grown > int(PosUnknown) {
				grown = int(PosUnknown)
				// Pathological (255 positions claimed): clear
				// transient denials and start over.
				a.posDenied = make(map[uint8]bool)
			}
			for c := a.posSpace; c < grown; c++ {
				free = append(free, uint8(c))
			}
			a.posSpace = grown
			if len(free) == 0 {
				for c := 0; c < a.posSpace; c++ {
					free = append(free, uint8(c))
				}
			}
		}
		a.posCandidate = free[a.eng.Rand().IntN(len(free))]
		a.posGrants = make(map[ctrlmsg.SwitchID]bool)
		a.posPending = true
	}
	// Re-proposals (from the periodic tick) re-offer the same
	// candidate so in-flight grants stay valid.
	prop := &Packet{
		Kind: KindPosPropose, Switch: a.env.ID(),
		Level: a.level, Pod: a.pod, Pos: a.pos,
		Candidate: a.posCandidate,
	}
	a.ForEachLiveUp(func(port int, _ Neighbor) { a.env.SendLDP(port, prop) })
}

// handlePropose (aggregation side) grants first-come-first-served.
func (a *Agent) handlePropose(port int, pkt *Packet) {
	if a.level != ctrlmsg.LevelAggregation && a.level != ctrlmsg.LevelUnknown {
		return
	}
	owner, claimed := a.claims[pkt.Candidate]
	granted := !claimed || owner == pkt.Switch
	if granted {
		a.claims[pkt.Candidate] = pkt.Switch
	}
	a.env.SendLDP(port, &Packet{
		Kind: KindPosGrant, Switch: a.env.ID(),
		Level: a.level, Pod: a.pod, Pos: a.pos,
		Candidate: pkt.Candidate, Granted: granted, Owner: owner,
	})
}

// handleGrant (edge side) collects grants; a full house resolves the
// position, any denial triggers a randomized retry.
func (a *Agent) handleGrant(pkt *Packet) {
	if a.level != ctrlmsg.LevelEdge || a.pos != PosUnknown || pkt.Candidate != a.posCandidate {
		return
	}
	if !pkt.Granted {
		a.posDenied[pkt.Candidate] = true
		a.posPending = false
		a.releaseCandidate()
		a.scheduleRetry()
		return
	}
	a.posGrants[pkt.Switch] = true
	// All live aggregation neighbors must agree.
	agreed := true
	a.ForEachLiveUp(func(_ int, n Neighbor) { agreed = agreed && a.posGrants[n.ID] })
	if !agreed {
		return
	}
	a.pos = a.posCandidate
	a.posPending = false
	a.jou.Record(obs.LDPPos, uint64(a.pos), 0, 0, a.version)
	a.announce()
	if a.pos == 0 && !a.podRequested {
		a.podRequested = true
		a.env.RequestPod()
	}
	a.maybeResolve()
}

func (a *Agent) releaseCandidate() {
	rel := &Packet{
		Kind: KindPosRelease, Switch: a.env.ID(),
		Level: a.level, Pod: a.pod, Pos: a.pos,
		Candidate: a.posCandidate,
	}
	a.ForEachLiveUp(func(port int, _ Neighbor) { a.env.SendLDP(port, rel) })
}

func (a *Agent) scheduleRetry() {
	if a.retryArmed {
		return
	}
	a.retryArmed = true
	// Randomized backoff of 0.5–1.5 LDM intervals decorrelates
	// competing edges.
	back := a.cfg.Interval/2 + time.Duration(a.eng.Rand().Int64N(int64(a.cfg.Interval)))
	a.eng.Schedule(back, func() {
		a.retryArmed = false
		a.proposePosition()
	})
}
