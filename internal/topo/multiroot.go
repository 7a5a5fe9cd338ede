package topo

import "fmt"

// MultiRootConfig describes a generalized multi-rooted tree — the
// broader topology class PortLand claims beyond strict fat trees
// (paper §2.1: "our techniques generalize to multi-rooted trees").
// Pods may have more edge switches than aggregation switches, hosts
// per edge can vary from k/2, and the core layer can be any size
// divisible evenly among the aggregation positions.
type MultiRootConfig struct {
	Pods         int
	EdgesPerPod  int
	AggsPerPod   int
	Cores        int // must divide evenly by AggsPerPod
	HostsPerEdge int
}

// MultiRootTree builds the blueprint. Wiring: every edge connects to
// every aggregation switch in its pod; with C = Cores/AggsPerPod,
// aggregation switch j of each pod connects to cores j*C .. j*C+C-1,
// core j*C+i arriving on its up-port EdgesPerPod+i; every core
// connects to exactly one aggregation switch per pod, core port p
// facing pod p. Nodes are numbered pod by pod (edges, then
// aggregation switches), then cores, then hosts.
func MultiRootTree(cfg MultiRootConfig) (*Spec, error) {
	switch {
	case cfg.Pods < 2:
		return nil, fmt.Errorf("topo: need at least 2 pods, got %d", cfg.Pods)
	case cfg.EdgesPerPod < 1 || cfg.AggsPerPod < 1 || cfg.HostsPerEdge < 1:
		return nil, fmt.Errorf("topo: pods need at least one edge, one aggregation switch and one host per edge")
	case cfg.Cores < cfg.AggsPerPod || cfg.Cores%cfg.AggsPerPod != 0:
		return nil, fmt.Errorf("topo: cores (%d) must be a positive multiple of aggs per pod (%d)", cfg.Cores, cfg.AggsPerPod)
	}
	coresPerAgg := cfg.Cores / cfg.AggsPerPod
	s := &Spec{}
	add := func(n NodeSpec) NodeID {
		n.ID = NodeID(len(s.Nodes))
		s.Nodes = append(s.Nodes, n)
		return n.ID
	}
	edge := make([][]NodeID, cfg.Pods)
	agg := make([][]NodeID, cfg.Pods)
	for p := 0; p < cfg.Pods; p++ {
		edge[p] = make([]NodeID, cfg.EdgesPerPod)
		agg[p] = make([]NodeID, cfg.AggsPerPod)
		for j := 0; j < cfg.EdgesPerPod; j++ {
			edge[p][j] = add(NodeSpec{
				Level: Edge, Pod: p, Position: j,
				Ports: cfg.HostsPerEdge + cfg.AggsPerPod,
				Name:  fmt.Sprintf("edge-p%d-s%d", p, j),
			})
		}
		for j := 0; j < cfg.AggsPerPod; j++ {
			agg[p][j] = add(NodeSpec{
				Level: Aggregation, Pod: p, Position: j,
				Ports: cfg.EdgesPerPod + coresPerAgg,
				Name:  fmt.Sprintf("agg-p%d-s%d", p, j),
			})
		}
	}
	core := make([]NodeID, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		core[c] = add(NodeSpec{
			Level: Core, Pod: -1, Position: c, Ports: cfg.Pods,
			Name: fmt.Sprintf("core-%d", c),
		})
	}
	// Hosts.
	for p := 0; p < cfg.Pods; p++ {
		for j := 0; j < cfg.EdgesPerPod; j++ {
			for h := 0; h < cfg.HostsPerEdge; h++ {
				id := add(NodeSpec{
					Level: Host, Pod: p, Position: h, Ports: 1,
					Name: fmt.Sprintf("host-p%d-e%d-h%d", p, j, h),
				})
				s.Links = append(s.Links, LinkSpec{
					A: PortRef{id, 0},
					B: PortRef{edge[p][j], h},
				})
			}
		}
	}
	// Edge <-> aggregation (full bipartite per pod).
	for p := 0; p < cfg.Pods; p++ {
		for e := 0; e < cfg.EdgesPerPod; e++ {
			for a := 0; a < cfg.AggsPerPod; a++ {
				s.Links = append(s.Links, LinkSpec{
					A: PortRef{edge[p][e], cfg.HostsPerEdge + a},
					B: PortRef{agg[p][a], e},
				})
			}
		}
	}
	// Aggregation <-> core.
	for p := 0; p < cfg.Pods; p++ {
		for j := 0; j < cfg.AggsPerPod; j++ {
			for i := 0; i < coresPerAgg; i++ {
				c := j*coresPerAgg + i
				s.Links = append(s.Links, LinkSpec{
					A: PortRef{agg[p][j], cfg.EdgesPerPod + i},
					B: PortRef{core[c], p},
				})
			}
		}
	}
	return s, nil
}
