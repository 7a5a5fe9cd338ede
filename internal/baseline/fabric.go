package baseline

import (
	"fmt"
	"math/rand/v2"
	"time"

	"portland/internal/host"
	"portland/internal/sim"
	"portland/internal/topo"
)

// Fabric is a deployment of baseline switches over the same blueprint
// and host model the PortLand fabric uses, so experiments can swap
// fabrics one-for-one.
type Fabric struct {
	Eng      *sim.Engine
	Spec     *topo.Spec
	Switches map[topo.NodeID]*Switch
	Hosts    map[topo.NodeID]*host.Host
	Links    []*sim.Link

	byName map[string]topo.NodeID
}

// BuildFabric wires a baseline fabric from a blueprint.
func BuildFabric(spec *topo.Spec, seed uint64, cfg Config) *Fabric {
	if seed == 0 {
		seed = 1
	}
	f := &Fabric{
		Eng:      sim.New(seed),
		Spec:     spec,
		Switches: make(map[topo.NodeID]*Switch),
		Hosts:    make(map[topo.NodeID]*host.Host),
		byName:   make(map[string]topo.NodeID),
	}
	hostIdx := 0
	for _, n := range spec.Nodes {
		f.byName[n.Name] = n.ID
		if n.Level == topo.Host {
			f.Hosts[n.ID] = host.New(f.Eng.NewProc(), n.Name, topo.HostMAC(hostIdx), topo.HostIP(hostIdx))
			hostIdx++
			continue
		}
		f.Switches[n.ID] = New(f.Eng.NewProc(), uint32(n.ID)+1, n.Name, n.Ports, cfg)
	}
	for _, ls := range spec.Links {
		an, bn := f.node(ls.A.Node), f.node(ls.B.Node)
		f.Links = append(f.Links, sim.Connect(f.Eng, an, ls.A.Port, bn, ls.B.Port, sim.DefaultLinkConfig))
	}
	return f
}

func (f *Fabric) node(id topo.NodeID) sim.Node {
	if sw, ok := f.Switches[id]; ok {
		return sw
	}
	return f.Hosts[id]
}

// Start launches every node.
func (f *Fabric) Start() {
	for _, id := range f.Spec.Switches() {
		f.Switches[id].Start()
	}
}

// Rand returns the driver's PRNG (the engine's root stream).
func (f *Fabric) Rand() *rand.Rand { return f.Eng.Rand() }

// RunFor advances virtual time by d.
func (f *Fabric) RunFor(d time.Duration) { f.Eng.RunUntil(f.Eng.Now() + d) }

// AwaitTree runs until every switch agrees on one root, or errors at
// the deadline.
func (f *Fabric) AwaitTree(limit time.Duration) error {
	deadline := f.Eng.Now() + limit
	for f.Eng.Now() < deadline {
		f.Eng.RunUntil(f.Eng.Now() + 50*time.Millisecond)
		if f.treeAgreed() {
			// Roles and listening periods settle a few hellos after
			// root agreement; wait them out so callers start with a
			// loop-free forwarding state.
			f.RunFor(forwardDelay + 3*Hello)
			return nil
		}
	}
	return fmt.Errorf("spanning tree did not converge within %v", limit)
}

func (f *Fabric) treeAgreed() bool {
	var root uint32
	first := true
	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		if sw.failed {
			continue
		}
		if first {
			root = sw.Root()
			first = false
		} else if sw.Root() != root {
			return false
		}
	}
	return true
}

// HostList returns hosts in blueprint order.
func (f *Fabric) HostList() []*host.Host {
	ids := f.Spec.Hosts()
	out := make([]*host.Host, 0, len(ids))
	for _, id := range ids {
		out = append(out, f.Hosts[id])
	}
	return out
}

// SwitchByName returns the named switch.
func (f *Fabric) SwitchByName(name string) *Switch {
	if id, ok := f.byName[name]; ok {
		return f.Switches[id]
	}
	return nil
}

// FailLink takes a blueprint link down.
func (f *Fabric) FailLink(i int) { f.Links[i].SetUp(false) }
