// Package portland is a from-scratch reproduction of
//
//	R. Niranjan Mysore, A. Pamboris, N. Farrington, N. Huang, P. Miri,
//	S. Radhakrishnan, V. Subramanya, A. Vahdat.
//	"PortLand: A Scalable Fault-Tolerant Layer 2 Data Center Network
//	Fabric", SIGCOMM 2009.
//
// It implements the complete system — hierarchical Pseudo MAC
// addressing with ingress/egress rewriting, the Location Discovery
// Protocol, the centralized fabric manager with proxy ARP and fault
// redistribution, loop-free PMAC forwarding with ECMP, multicast, and
// transparent VM migration — on top of a deterministic discrete-event
// network simulator, plus the flooding/spanning-tree baseline the
// paper compares against.
//
// This root package is the public facade: build a fabric, run it on
// virtual time, attach workloads, inject failures, and read the
// measurements. The examples/ directory shows complete programs;
// internal/experiments reproduces every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	fabric, err := portland.NewFatTree(4, portland.Options{})
//	if err != nil { ... }
//	fabric.Start()
//	if err := fabric.AwaitDiscovery(2 * time.Second); err != nil { ... }
//	a, b := fabric.Hosts()[0], fabric.Hosts()[15]
//	b.Endpoint().BindUDP(9000, func(src netip.Addr, port uint16, p ether.Payload) { ... })
//	a.Endpoint().SendUDP(b.IP(), 9000, 9000, 64)
//	fabric.RunFor(time.Second)
package portland

import (
	"time"

	"portland/internal/core"
	"portland/internal/ctrlnet"
	"portland/internal/fabricmgr"
	"portland/internal/host"
	"portland/internal/ldp"
	"portland/internal/pswitch"
	"portland/internal/sim"
	"portland/internal/topo"
)

// Options configures a fabric; the zero value gives the paper's
// defaults (1 GbE links, 10 ms LDMs, 20 µs control-channel latency,
// seed 1).
type Options = core.Options

// LinkConfig sets a link's rate, propagation delay and queue depth.
type LinkConfig = sim.LinkConfig

// LDPConfig tunes the Location Discovery Protocol timers.
type LDPConfig = ldp.Config

// Fabric is a running PortLand deployment: switches, hosts, links and
// the fabric manager, all driven by one virtual clock.
type Fabric struct {
	inner *core.Fabric
}

// NewFatTree builds (but does not start) a k-ary fat-tree fabric:
// k pods × (k/2 edge + k/2 aggregation) switches, (k/2)² cores and
// k³/4 hosts.
func NewFatTree(k int, opts Options) (*Fabric, error) {
	f, err := core.NewFatTree(k, opts)
	if err != nil {
		return nil, err
	}
	return &Fabric{inner: f}, nil
}

// NewFromSpec builds a fabric from an arbitrary multi-rooted-tree
// blueprint (see Topology helpers).
func NewFromSpec(spec *topo.Spec, opts Options) *Fabric {
	return &Fabric{inner: core.Build(spec, opts)}
}

// FatTreeSpec returns the blueprint NewFatTree would use, for callers
// that want to modify it first.
func FatTreeSpec(k int) (*topo.Spec, error) { return topo.FatTree(k) }

// Start boots every switch and host. Switches begin with zero
// configuration and discover their roles via LDP.
func (f *Fabric) Start() { f.inner.Start() }

// RunFor advances virtual time by d, executing all due events.
func (f *Fabric) RunFor(d time.Duration) { f.inner.RunFor(d) }

// Now returns the current virtual time.
func (f *Fabric) Now() time.Duration { return f.inner.Now() }

// AwaitDiscovery runs until location discovery completes everywhere.
func (f *Fabric) AwaitDiscovery(limit time.Duration) error {
	return f.inner.AwaitDiscovery(limit)
}

// VerifyDiscovery cross-checks LDP's result against the blueprint's
// ground truth.
func (f *Fabric) VerifyDiscovery() error { return f.inner.CheckDiscovery() }

// Hosts returns every host in blueprint order.
func (f *Fabric) Hosts() []*host.Host { return f.inner.HostList() }

// Host returns a host by blueprint name (e.g. "host-p0-e0-h0").
func (f *Fabric) Host(name string) *host.Host { return f.inner.HostByName(name) }

// Switch returns a switch by blueprint name (e.g. "agg-p1-s0").
func (f *Fabric) Switch(name string) *pswitch.Switch { return f.inner.SwitchByName(name) }

// Manager exposes the fabric manager (registry lookups, counters).
func (f *Fabric) Manager() *fabricmgr.Manager { return f.inner.Manager }

// FailLink takes down the cable between two named nodes; both sides
// discover the failure through missed LDMs. It reports whether such a
// cable exists.
func (f *Fabric) FailLink(a, b string) bool {
	i, ok := f.inner.LinkBetween(a, b)
	if ok {
		f.inner.FailLink(i)
	}
	return ok
}

// RestoreLink re-energizes the cable between two named nodes.
func (f *Fabric) RestoreLink(a, b string) bool {
	i, ok := f.inner.LinkBetween(a, b)
	if ok {
		f.inner.RestoreLink(i)
	}
	return ok
}

// FailSwitch crashes a switch in place (it stops speaking LDP and
// forwards nothing; neighbors detect the silence).
func (f *Fabric) FailSwitch(name string) bool { return f.inner.FailSwitch(name) }

// ControlTraffic returns cumulative control-plane volume:
// switch→manager and manager→switch.
func (f *Fabric) ControlTraffic() (toManager, fromManager ctrlnet.Stats) {
	return f.inner.ControlStats()
}

// Internal exposes the composition root for advanced callers (the
// experiment harness and tests use it; examples should not need to).
func (f *Fabric) Internal() *core.Fabric { return f.inner }

// NewVM creates a detached virtual-machine endpoint; attach it to a
// host with Host.AttachVM. Attachment announces the VM with a
// gratuitous ARP, which assigns its PMAC and registers it with the
// fabric manager — re-attachment elsewhere is a live migration.
var NewVM = host.NewVM
