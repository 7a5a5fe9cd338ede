package pswitch

import (
	"strconv"

	"portland/internal/flowtable"
	"portland/internal/ldp"
	"portland/internal/obs"
)

// Generation describes one switch ASIC generation's hardware resource
// envelope: how many ECMP groups and total ECMP member slots the
// multipath table holds, and how many exact-match flow entries fit.
// The zero value is no hardware model (unbounded tables, the default
// every fabric builds with); zero limits are unbounded. HARDWARE.md
// documents the model.
type Generation struct {
	// Name tags the generation in reports and tabulated output.
	Name string
	// ECMPGroups bounds the number of distinct multipath groups
	// (candidate-port sets) installed at once; 0 = unbounded.
	ECMPGroups int
	// ECMPMembers bounds the total member slots across all installed
	// groups; 0 = unbounded.
	ECMPMembers int
	// FlowEntries bounds the exact-match flow cache; 0 = unbounded.
	FlowEntries int
	// FlowPolicy picks the flow-table eviction victim under pressure.
	FlowPolicy flowtable.Policy
}

// Gen40 is a 40G-era ASIC, the tightest of the FabricEval envelopes
// (HARDWARE.md tabulates the 100G and 200G ones for reference). Its
// group/member limits follow FabricEval; its flow-entry count follows
// the OpenFlow-era exact-match tables the paper's testbed ran (NetFPGA
// and early Broadcom silicon held 2K-32K exact-match entries).
var Gen40 = Generation{Name: "gen40", ECMPGroups: 256, ECMPMembers: 4096, FlowEntries: 2048, FlowPolicy: flowtable.EvictLRU}

// Unlimited reports whether the generation imposes no table bounds.
func (g Generation) Unlimited() bool {
	return g.ECMPGroups == 0 && g.ECMPMembers == 0 && g.FlowEntries == 0
}

// Scale divides every non-zero limit by div (floored at 1), keeping
// the proportions of a real generation at testbed scale. The repo's
// experiments run k=4..16 fat trees whose absolute state counts are
// tiny next to production fabrics; scaling the envelope down — the
// same trick internal/baseline plays with STP timers — recreates the
// production ratio of demand to capacity without a million hosts.
func (g Generation) Scale(div int) Generation {
	if div <= 1 {
		return g
	}
	d := func(v int) int {
		if v == 0 {
			return 0
		}
		if v /= div; v < 1 {
			return 1
		}
		return v
	}
	g.Name = g.Name + "/" + strconv.Itoa(div)
	g.ECMPGroups = d(g.ECMPGroups)
	g.ECMPMembers = d(g.ECMPMembers)
	g.FlowEntries = d(g.FlowEntries)
	return g
}

// ResourceStats is a point-in-time view of a switch's hardware-table
// occupancy, for reports and the `-exp ft` sweep.
type ResourceStats struct {
	GroupsLive  int // installed ECMP groups (excluding the reserved fallback)
	MembersUsed int // member slots charged across installed groups
	Degrades    int64
}

// SetGeneration bounds the switch's hardware tables to g. Must be
// called before the switch carries traffic (and is re-applied on
// Recover); the zero Generation keeps every table unbounded.
func (s *Switch) SetGeneration(g Generation) {
	s.gen = g
	s.applyGen()
}

// Generation reports the configured hardware envelope.
func (s *Switch) Generation() Generation { return s.gen }

// applyGen pushes the generation's flow-table bound onto the (fresh)
// flow table. The eviction PRNG seeds from the switch ID: stable
// across runs and shard layouts, distinct across switches.
func (s *Switch) applyGen() {
	if s.gen.FlowEntries > 0 {
		s.flows.SetLimit(flowtable.Limit{
			Capacity: s.gen.FlowEntries,
			Policy:   s.gen.FlowPolicy,
			Seed:     uint64(s.id),
		})
	}
}

// ResourceStats snapshots the hardware-table occupancy.
func (s *Switch) ResourceStats() ResourceStats {
	return ResourceStats{
		GroupsLive:  s.resGroups,
		MembersUsed: s.resMembers,
		Degrades:    s.Stats.EcmpDegrades,
	}
}

// chargeGroup runs the ECMP group-table admission decision for a just
// rebuilt candidate set. It returns the (possibly truncated) port
// slice the set may install, or degraded=true when the set cannot get
// a group of its own and must ride the reserved wildcard group.
//
// The model, per HARDWARE.md:
//   - A rebuild first releases whatever the set previously held.
//   - Group-count overflow degrades the set to the shared wildcard
//     group (all live uplinks, NO per-destination exclusion filter —
//     a coarser match is exactly what sharing a group across
//     destinations means in hardware).
//   - Member-slot overflow truncates the group to the remaining slots
//     (fewer uplinks than ECMP wants — the imbalance the `-exp ft`
//     sweep measures); zero remaining slots degrades to the wildcard.
//
// Both degradations journal an obs.EcmpDegrade event.
func (s *Switch) chargeGroup(key candKey, cs *candSet) (ports []int, degraded bool) {
	want := len(cs.ports)
	if want == 0 {
		// Nothing to install; an empty set occupies no hardware.
		return cs.ports, false
	}
	if s.gen.ECMPGroups > 0 && s.resGroups >= s.gen.ECMPGroups {
		s.degrade(key, want, 0)
		return nil, true
	}
	if s.gen.ECMPMembers > 0 {
		remaining := s.gen.ECMPMembers - s.resMembers
		if remaining <= 0 {
			s.degrade(key, want, 0)
			return nil, true
		}
		if remaining < want {
			cs.ports = cs.ports[:remaining]
			s.degrade(key, want, remaining)
		}
	}
	cs.width = len(cs.ports)
	cs.live = true
	s.resGroups++
	s.resMembers += cs.width
	return cs.ports, false
}

// releaseGroup returns a candidate set's hardware charge to the pool
// (called at the top of a rebuild).
func (s *Switch) releaseGroup(cs *candSet) {
	if cs.live {
		s.resGroups--
		s.resMembers -= cs.width
		cs.live = false
		cs.width = 0
	}
	cs.wild = false
}

// degrade counts and journals one admission failure. got is the width
// actually granted (0 = fell back to the wildcard group).
func (s *Switch) degrade(key candKey, want, got int) {
	s.Stats.EcmpDegrades++
	s.jou.Record(obs.EcmpDegrade, uint64(key.pod), uint64(key.pos), uint64(want), uint64(got))
}

// wildPorts returns the reserved wildcard ECMP group: every live
// uplink, unfiltered by per-destination exclusions. Destination
// classes that lost group-table admission share it — so a fault
// exclusion that a private group would have honored may be ignored, a
// real consequence of running out of group entries. The group is
// reserved outside the accounted budget (a switch always keeps one
// last-resort multipath group) and rebuilds only when the LDP agent's
// port state moves.
func (s *Switch) wildPorts() []int {
	w := s.wild
	if w == nil {
		w = &candSet{}
		s.wild = w
	} else if w.agentV == s.agent.Version() {
		return w.ports
	}
	w.agentV = s.agent.Version()
	w.ports = w.ports[:0]
	s.agent.ForEachLiveUp(func(port int, n ldp.Neighbor) {
		w.ports = append(w.ports, port)
	})
	return w.ports
}
