// Observability surface of a running fabric: the unified counter
// snapshot a run report embeds next to its journaled timeline.
package core

import (
	"portland/internal/fabricmgr"
	"portland/internal/obs"
)

// ObsCounters gathers every counter block the fabric maintains into
// one flat, dotted-key snapshot: fabric-manager load, aggregated
// switch dataplane and flow-table activity, LDP transmissions,
// per-cause link drops, control-channel traffic and journal totals.
// Purely observational — calling it never perturbs the simulation.
func (f *Fabric) ObsCounters() obs.Counters {
	c := obs.Counters{}

	// Merge the manager shards: each punt is routed to exactly one
	// shard, so summing across shards counts each event exactly once.
	// With one shard this is f.Manager.Stats verbatim.
	var ms fabricmgr.Counters
	for _, m := range f.Mgrs {
		ms.Add(m.Stats)
	}
	c["mgr.arp_queries"] = ms.ARPQueries
	c["mgr.arp_hits"] = ms.ARPHits
	c["mgr.arp_misses"] = ms.ARPMisses
	c["mgr.registrations"] = ms.Registrations
	c["mgr.migrations"] = ms.Migrations
	c["mgr.fault_events"] = ms.FaultEvents
	c["mgr.exclusions_set"] = ms.ExclusionsSet
	c["mgr.mcast_installs"] = ms.McastInstalls
	c["mgr.dhcp_queries"] = ms.DHCPQueries
	c["mgr.gray_reports"] = ms.GrayReports
	c["mgr.host_replays"] = ms.HostReplays

	// Hardware-resource counters (flow evictions, ECMP group-table
	// occupancy and degrades) appear only when some switch runs a
	// bounded Generation: an unlimited fabric — the default — keeps the
	// exact counter-key set (and therefore report bytes) it had before
	// the hardware model existed.
	limited := false
	var evictions, degrades, groupsLive, membersUsed int64

	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		s := sw.Stats
		c["sw.frames_in"] += s.FramesIn
		c["sw.frames_out"] += s.FramesOut
		c["sw.dropped"] += s.Dropped
		c["sw.blackholed"] += s.Blackholed
		c["sw.arp_punts"] += s.ARPPunts
		c["sw.arp_proxied"] += s.ARPProxied
		c["sw.arp_floods"] += s.ARPFloods
		c["sw.ingress_rewrites"] += s.IngressRewrites
		c["sw.egress_rewrites"] += s.EgressRewrites
		c["sw.mcast_replicas"] += s.McastReplicas
		// Unicast ARP corrections answering stale-frame traps. The
		// traps themselves (s.StaleTraps) are summed in sw.dropped.
		c["sw.gratuitous_sent"] += s.GratuitousSent
		c["sw.dhcp_punts"] += s.DHCPPunts
		c["sw.dhcp_proxied"] += s.DHCPProxied
		c["sw.probes_sent"] += s.ProbesSent
		c["sw.probe_replies"] += s.ProbeReplies
		ft := sw.FlowTable().Stats
		c["flow.hits"] += ft.Hits
		c["flow.misses"] += ft.Misses
		c["flow.installs"] += ft.Installs
		c["flow.expired"] += ft.Expired
		c["flow.invalidations"] += ft.Invalidations
		c["ldp.ldms_sent"] += sw.Agent().LDMsSent
		if !sw.Generation().Unlimited() {
			limited = true
			rs := sw.ResourceStats()
			evictions += ft.Evictions
			degrades += rs.Degrades
			groupsLive += int64(rs.GroupsLive)
			membersUsed += int64(rs.MembersUsed)
		}
	}
	if limited {
		c["flow.evictions"] = evictions
		c["ecmp.degrades"] = degrades
		c["ecmp.groups_live"] = groupsLive
		c["ecmp.members_used"] = membersUsed
	}

	d := f.LinkDrops()
	c["link.drops_queue"] = d.Queue
	c["link.drops_loss"] = d.Loss
	c["link.drops_gray"] = d.Gray
	c["link.drops_down"] = d.Down

	toMgr, fromMgr := f.ControlStats()
	c["ctrl.to_mgr_msgs"] = toMgr.Msgs
	c["ctrl.to_mgr_bytes"] = toMgr.Bytes
	c["ctrl.to_mgr_drops"] = toMgr.Drops
	c["ctrl.from_mgr_msgs"] = fromMgr.Msgs
	c["ctrl.from_mgr_bytes"] = fromMgr.Bytes
	c["ctrl.from_mgr_drops"] = fromMgr.Drops

	c["obs.events_captured"] = f.Obs.EventsCaptured()
	c["obs.events_dropped"] = f.Obs.EventsDropped()

	return c
}
