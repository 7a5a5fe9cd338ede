// Package topo describes multi-rooted tree topologies and builds them:
// the general class PortLand applies to (MultiRootTree) and its
// canonical k-ary fat tree instance (paper §2.1): k pods, each with
// k/2 edge and k/2 aggregation switches, (k/2)² core switches, and
// k³/4 hosts.
//
// The specs carry ground-truth locations (pod, position, level) used
// only by topology wiring and by tests that verify LDP *discovers* the
// same values; the switches themselves boot blank.
package topo

import (
	"fmt"
	"net/netip"

	"portland/internal/ether"
)

// Level is a switch's tier in the multi-rooted tree.
type Level int

// Tree levels, from the hosts up.
const (
	Host Level = iota
	Edge
	Aggregation
	Core
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Host:
		return "host"
	case Edge:
		return "edge"
	case Aggregation:
		return "agg"
	case Core:
		return "core"
	default:
		return fmt.Sprintf("level%d", int(l))
	}
}

// NodeID identifies a node within a Spec.
type NodeID int

// NodeSpec is one switch or host in the blueprint.
type NodeSpec struct {
	ID    NodeID
	Level Level
	// Pod is the ground-truth pod (switches and hosts); core switches
	// use pod -1.
	Pod int
	// Position is the ground-truth position within the pod for edge
	// and aggregation switches, the core index for cores, and the
	// edge-port index for hosts.
	Position int
	// Ports is the number of ports the node exposes.
	Ports int
	// Name is a stable human-readable name, e.g. "edge-p2-s1".
	Name string
}

// PortRef names one end of a link.
type PortRef struct {
	Node NodeID
	Port int
}

// LinkSpec is one cable in the blueprint.
type LinkSpec struct {
	A, B PortRef
}

// Spec is a complete topology blueprint.
type Spec struct {
	// K is the fat-tree degree (0 for non-fat-tree specs).
	K     int
	Nodes []NodeSpec
	Links []LinkSpec
}

// FatTree builds the canonical k-ary fat tree: the multi-rooted tree
// with k pods of k/2 edge and k/2 aggregation switches, (k/2)² cores
// and k/2 hosts per edge. k must be even and >= 2.
//
// Port conventions (identical on every switch, as on real hardware):
//   - edge: ports 0..k/2-1 face hosts, ports k/2..k-1 face aggregation
//   - aggregation: ports 0..k/2-1 face edge, ports k/2..k-1 face core
//   - core: port p faces pod p
//
// Core indexing: core c = j*(k/2) + i attaches to aggregation position
// j in every pod, arriving on that aggregation switch's up-port k/2+i.
func FatTree(k int) (*Spec, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree degree must be even and >= 2, got %d", k)
	}
	half := k / 2
	s, err := MultiRootTree(MultiRootConfig{Pods: k, EdgesPerPod: half, AggsPerPod: half, Cores: half * half, HostsPerEdge: half})
	if err != nil {
		return nil, err
	}
	s.K = k
	return s, nil
}

// Counts summarizes a spec for reports.
type Counts struct {
	Edge, Aggregation, Core, Hosts, Links int
}

// Count tallies the spec.
func (s *Spec) Count() Counts {
	var c Counts
	for _, n := range s.Nodes {
		switch n.Level {
		case Edge:
			c.Edge++
		case Aggregation:
			c.Aggregation++
		case Core:
			c.Core++
		case Host:
			c.Hosts++
		}
	}
	c.Links = len(s.Links)
	return c
}

// Switches returns the IDs of all non-host nodes.
func (s *Spec) Switches() []NodeID {
	var ids []NodeID
	for _, n := range s.Nodes {
		if n.Level != Host {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Hosts returns the IDs of all host nodes.
func (s *Spec) Hosts() []NodeID {
	var ids []NodeID
	for _, n := range s.Nodes {
		if n.Level == Host {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// HostMAC returns the canonical AMAC for the i-th host of a
// blueprint: locally administered 02:xx prefix, so it can never
// collide with a PMAC's pod byte.
func HostMAC(i int) ether.Addr {
	return ether.Addr{0x02, 0x00, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

// HostIP returns the canonical IP for the i-th host (10.0.0.0/8,
// starting at 10.0.0.1).
func HostIP(i int) netip.Addr {
	n := i + 1
	return netip.AddrFrom4([4]byte{10, byte(n >> 16), byte(n >> 8), byte(n)})
}

// FatTreeCounts returns the closed-form component counts for degree k,
// used to cross-check FatTree and for analytic scaling rows.
func FatTreeCounts(k int) Counts {
	half := k / 2
	return Counts{
		Edge:        k * half,
		Aggregation: k * half,
		Core:        half * half,
		Hosts:       k * half * half,
		Links:       3 * k * half * half,
	}
}
