package pswitch

import (
	"bytes"
	"net/netip"
	"sort"

	"portland/internal/ctrlmsg"
	"portland/internal/ether"
	"portland/internal/obs"
)

// joinKey identifies one host's membership in one multicast group.
type joinKey struct {
	group uint32
	pmac  ether.Addr
}

// resync answers a fabric-manager StateSyncRequest: dump everything
// the switch knows so a freshly restarted manager can rebuild its soft
// state from the fabric alone — the paper's §3.2 claim, made
// operational.
//
// Manager-owned state (route exclusions, multicast forwarding
// entries) is dropped first: the new manager diffs its recomputed
// exclusion set against an empty installed set, so it will never send
// removals for faults that healed during the outage. Holding stale
// exclusions across an outage risks blackholing healthy paths;
// dropping them risks a few packets on a dead path until the replayed
// fault reports re-derive the exclusions — the safe direction, since
// the dataplane's liveness checks (LDP) still guard dead ports
// locally.
//
// On a prefix-sharded fabric each shard resyncs independently: the
// replay routes every message to the shard that asked, restricted to
// the state that shard owns. Route-authority state (adjacency, leases,
// group membership — and the exclusion/mcast drop above) belongs to
// shard 0 alone; the host registry and outstanding punts are sliced by
// ctrlmsg.ShardOfIP. With one shard this is exactly the old replay.
func (s *Switch) resync(shard int, epoch uint32) {
	s.jou.Record(obs.SwitchResync, uint64(epoch), uint64(shard), 0, 0)
	n := s.numShards()
	if shard == 0 {
		s.excl = make(map[exclKey]bool)
		s.mcast = make(map[uint32][]int)
		s.flushFlows()
	}

	s.sendCtrlTo(shard, ctrlmsg.Hello{Switch: s.id})
	if s.resolved {
		s.sendCtrlTo(shard, ctrlmsg.LocationReport{Switch: s.id, Loc: s.loc})
	}
	if shard == 0 {
		// Adjacency: every discovered neighbor, live and dead, so the
		// manager's fault matrix matches the fabric's current health.
		for port := range s.links {
			if nb, ok := s.agent.Neighbor(port); ok {
				s.reportPort(port, nb, nb.Alive)
			}
		}
	}
	// Host registry (edge role), this shard's slice. Sorted for
	// deterministic replay.
	for _, h := range s.table.Hosts() {
		if !h.IP.IsValid() || ctrlmsg.ShardOfIP(h.IP, n) != shard {
			continue
		}
		s.sendCtrlTo(shard, ctrlmsg.PMACRegister{Switch: s.id, IP: h.IP, AMAC: h.AMAC, PMAC: h.PMAC.Addr()})
	}
	if shard == 0 {
		// DHCP leases cached from proxied answers.
		for _, mac := range sortedMACKeys(s.leases) {
			s.sendCtrl(ctrlmsg.LeaseReport{Switch: s.id, MAC: mac, IP: s.leases[mac]})
		}
		// Multicast membership replays.
		keys := make([]joinKey, 0, len(s.joins))
		for k := range s.joins {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].group != keys[j].group {
				return keys[i].group < keys[j].group
			}
			return bytes.Compare(keys[i].pmac[:], keys[j].pmac[:]) < 0
		})
		for _, k := range keys {
			s.sendCtrl(ctrlmsg.McastJoin{
				Switch:   s.id,
				Group:    k.group,
				HostPMAC: k.pmac,
				Join:     true,
				Source:   s.joins[k],
			})
		}
	}
	// Re-issue outstanding ARP punts whose target this shard owns. The
	// originals may have died with the old manager, or raced this
	// resync's Hello into the new session (which drops anything
	// pre-Hello); the manager parks these until its registry is rebuilt
	// and answers from the replayed state.
	ids := make([]uint64, 0, len(s.pending))
	for id := range s.pending {
		if ctrlmsg.ShardOfIP(s.pending[id].targetIP, n) == shard {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := s.pending[id]
		s.sendCtrlTo(shard, ctrlmsg.ARPQuery{
			Switch:     s.id,
			QueryID:    id,
			SenderPMAC: s.senderPMAC(p),
			SenderIP:   p.hostIP,
			TargetIP:   p.targetIP,
		})
	}
	s.sendCtrlTo(shard, ctrlmsg.SyncDone{Switch: s.id, Epoch: epoch})
}

func sortedMACKeys(m map[ether.Addr]netip.Addr) []ether.Addr {
	out := make([]ether.Addr, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}
