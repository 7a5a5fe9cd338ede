package main

import (
	"fmt"
	"net/netip"
	"time"

	"portland/internal/codec"
	"portland/internal/core"
	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/fabricmgr"
	"portland/internal/flowtable"
	"portland/internal/ippkt"
	"portland/internal/runner"
	"portland/internal/sim"
	"portland/internal/topo"
	wl "portland/internal/workload"
)

// kernel drives one layer's public API alone, at the scale the
// workloads use it. prepare builds the state untimed and returns the
// timed function and how many operations one call performs; the timed
// function may be called repeatedly.
type kernel struct {
	name    string
	prepare func() (run func(), ops int)
}

// kernelReps is how often each kernel's timed function runs; the value
// reported is the fast-half mean of the per-operation times.
const kernelReps = 3

// runKernels measures every layer kernel and returns ns (or, for the
// idle-fabric kernel, seconds) per operation by metric name.
func runKernels() map[string]float64 {
	out := map[string]float64{}
	for _, k := range kernels {
		run, ops := k.prepare()
		per := make([]float64, kernelReps)
		for i := range per {
			t0 := time.Now()
			run()
			per[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
		}
		out[k.name] = fastHalfMean(per)
	}
	out["core.idle_k16_s_per_vs"] /= 1e9 // its one operation is a virtual second, reported in host seconds
	return out
}

// sinkNode is a sim.Node that drops what it receives.
type sinkNode struct{ name string }

func (n *sinkNode) Name() string                  { return n.name }
func (n *sinkNode) Attach(int, *sim.Link)         {}
func (n *sinkNode) HandleFrame(int, *ether.Frame) {}
func (n *sinkNode) Start()                        {}

// nopConn swallows the manager's replies.
type nopConn struct{}

func (nopConn) Send(ctrlmsg.Msg) error { return nil }
func (nopConn) Close() error           { return nil }
func (nopConn) Stats() ctrlnet.Stats   { return ctrlnet.Stats{} }
func (nopConn) Err() error             { return nil }

// udpFrame is the smallest data frame the workloads send: 64 payload
// bytes of UDP in IPv4.
func udpFrame() *ether.Frame {
	return &ether.Frame{
		Dst: ether.Addr{0, 1, 0, 0, 0, 1}, Src: ether.Addr{2, 0, 0, 0, 0, 1}, Type: ether.TypeIPv4,
		Payload: &ippkt.IPv4{
			TTL: 64, Protocol: ippkt.ProtoUDP, Src: core.HostIP(1), Dst: core.HostIP(2),
			Payload: &ippkt.UDP{SrcPort: 9000, DstPort: 9001, Payload: ether.Raw(make([]byte, 64))},
		},
	}
}

// registry loads a manager with n host registrations through one
// session, as an edge switch would.
func registry(n int) *fabricmgr.Session {
	sess := fabricmgr.New().NewSession(nopConn{})
	sess.Handle(ctrlmsg.Hello{Switch: 1})
	for i := 0; i < n; i++ {
		sess.Handle(ctrlmsg.PMACRegister{Switch: 1, IP: core.HostIP(i), AMAC: ether.Addr{2, 0, 0, 0, 0, 1}, PMAC: ether.Addr{0, 1, 0, 0, 0, 1}})
	}
	return sess
}

const paperHosts = 27648 // hosts of the k=48 fat tree

// mgrTopology is what a k=16 fabric tells its manager while it boots,
// synthesised from the blueprint: no fabric, no engine.
type mgrTopology struct {
	hellos    []ctrlmsg.Msg         // Hello + LocationReport per switch
	adjacency []ctrlmsg.FaultNotify // one report per switch-to-switch link end
}

func newMgrTopology() mgrTopology {
	spec, err := topo.FatTree(16)
	if err != nil {
		panic(err)
	}
	level := map[topo.Level]uint8{topo.Edge: ctrlmsg.LevelEdge, topo.Aggregation: ctrlmsg.LevelAggregation, topo.Core: ctrlmsg.LevelCore}
	loc := map[topo.NodeID]ctrlmsg.Loc{}
	pos := map[int]uint8{} // next edge position per pod
	var t mgrTopology
	for _, id := range spec.Switches() {
		n := spec.Nodes[id]
		l := ctrlmsg.Loc{Level: level[n.Level]}
		if n.Level != topo.Core {
			l.Pod = uint16(n.Pod)
		}
		if n.Level == topo.Edge {
			l.Pos = pos[n.Pod]
			pos[n.Pod]++
		}
		loc[id] = l
		t.hellos = append(t.hellos, ctrlmsg.Hello{Switch: core.SwitchID(id)}, ctrlmsg.LocationReport{Switch: core.SwitchID(id), Loc: l})
	}
	for _, ls := range spec.Links {
		a, b := ls.A, ls.B
		if spec.Nodes[a.Node].Level == topo.Host || spec.Nodes[b.Node].Level == topo.Host {
			continue
		}
		t.adjacency = append(t.adjacency,
			ctrlmsg.FaultNotify{Switch: core.SwitchID(a.Node), Port: uint8(a.Port), PeerID: core.SwitchID(b.Node), PeerLoc: loc[b.Node], LocalLoc: loc[a.Node]},
			ctrlmsg.FaultNotify{Switch: core.SwitchID(b.Node), Port: uint8(b.Port), PeerID: core.SwitchID(a.Node), PeerLoc: loc[a.Node], LocalLoc: loc[b.Node]})
	}
	return t
}

// feed replays the topology into a fresh manager and returns the
// session of each switch.
func (t mgrTopology) feed() map[ctrlmsg.SwitchID]*fabricmgr.Session {
	m := fabricmgr.New()
	sess := map[ctrlmsg.SwitchID]*fabricmgr.Session{}
	for i := 0; i < len(t.hellos); i += 2 {
		id := t.hellos[i].(ctrlmsg.Hello).Switch
		sess[id] = m.NewSession(nopConn{})
		sess[id].Handle(t.hellos[i])
		sess[id].Handle(t.hellos[i+1])
	}
	for _, adj := range t.adjacency {
		sess[adj.Switch].Handle(adj)
	}
	return sess
}

var kernels = []kernel{
	{"sim.wheel_ns_per_event", func() (func(), int) {
		const n = 1_000_000
		e := sim.New(1)
		fired := 0
		fn := func() { fired++ }
		return func() {
			base := e.Now()
			for i := 0; i < n; i++ {
				// a fixed odd stride spreads the timers over the 20 ms horizon out of order
				e.ScheduleAt(base+time.Duration((uint64(i)*7919)%20_000_000), fn)
			}
			e.Run()
		}, n
	}},
	{"sim.timer_reset_ns", func() (func(), int) {
		const n = 1_000_000
		e := sim.New(1)
		t := e.NewTimer(func() {})
		return func() {
			for i := 0; i < n; i++ {
				t.Reset(time.Millisecond)
			}
			e.Run()
		}, n
	}},
	{"sim.link_ns_per_frame", func() (func(), int) {
		const n = 300_000
		e := sim.New(1)
		a, b := &sinkNode{"a"}, &sinkNode{"b"}
		l := sim.Connect(e, a, 0, b, 0, sim.DefaultLinkConfig)
		f := &ether.Frame{Type: ether.TypeIPv4, Payload: ether.Raw(make([]byte, 64))}
		return func() {
			for i := 0; i < n; i++ {
				l.Send(a, f)
				e.Run()
			}
		}, n
	}},
	{"codec.append_ns_per_frame", func() (func(), int) {
		const n = 300_000
		f := udpFrame()
		buf := make([]byte, 0, 256)
		return func() {
			for i := 0; i < n; i++ {
				buf = f.AppendTo(buf[:0])
			}
		}, n
	}},
	{"codec.verify_ns_per_frame", func() (func(), int) {
		const n = 100_000
		f := udpFrame()
		return func() {
			for i := 0; i < n; i++ {
				if err := codec.VerifyFrame(f); err != nil {
					panic(err)
				}
			}
		}, n
	}},
	{"ctrlmsg.encode_ns", func() (func(), int) {
		const n = 500_000
		msg := ctrlmsg.ARPQuery{Switch: 7, QueryID: 1, SenderPMAC: ether.Addr{0, 1, 0, 0, 0, 1}, SenderIP: core.HostIP(1), TargetIP: core.HostIP(2)}
		sink := 0
		return func() {
			for i := 0; i < n; i++ {
				sink += len(ctrlmsg.Encode(msg))
			}
		}, n
	}},
	{"ctrlmsg.decode_ns", func() (func(), int) {
		const n = 500_000
		wire := ctrlmsg.Encode(ctrlmsg.ARPQuery{Switch: 7, QueryID: 1, SenderPMAC: ether.Addr{0, 1, 0, 0, 0, 1}, SenderIP: core.HostIP(1), TargetIP: core.HostIP(2)})
		return func() {
			for i := 0; i < n; i++ {
				if _, err := ctrlmsg.Decode(wire); err != nil {
					panic(err)
				}
			}
		}, n
	}},
	{"flowtable.lookup_ns", func() (func(), int) {
		const resident, n = 100_000, 1_000_000
		t := residentTable(resident)
		return func() {
			for i := 0; i < n; i++ {
				if _, ok := t.Lookup(flowKey(i % resident)); !ok {
					panic("benchmark: resident flow entry missing")
				}
			}
		}, n
	}},
	{"flowtable.install_ns", func() (func(), int) {
		const resident, n = 100_000, 100_000
		t := residentTable(resident)
		next := resident
		return func() {
			for i := 0; i < n; i++ {
				t.Install(flowKey(next), next&7)
				next++
			}
		}, n
	}},
	{"fabricmgr.arp_ns_per_query", func() (func(), int) {
		const n = 300_000
		sess := registry(paperHosts)
		return func() {
			for i := 0; i < n; i++ {
				sess.Handle(ctrlmsg.ARPQuery{Switch: 1, QueryID: uint64(i), TargetIP: core.HostIP(i % paperHosts)})
			}
		}, n
	}},
	{"fabricmgr.register_ns", func() (func(), int) {
		return func() { registry(paperHosts) }, paperHosts
	}},
	{"fabricmgr.location_ns", func() (func(), int) {
		t := newMgrTopology()
		return func() { t.feed() }, len(t.hellos)/2 + len(t.adjacency)
	}},
	{"fabricmgr.fault_ns_per_notify", func() (func(), int) {
		t := newMgrTopology()
		sess := t.feed()
		// Every 97th adjacency report names a distinct link end; failing
		// and restoring eight of them is one fault-churn round's worth.
		var flaps []ctrlmsg.FaultNotify
		for i := 0; i < 8; i++ {
			flaps = append(flaps, t.adjacency[i*97*2])
		}
		return func() {
			for _, down := range []bool{true, false} {
				for _, fn := range flaps {
					fn.Down = down
					sess[fn.Switch].Handle(fn)
				}
			}
		}, 2 * len(flaps)
	}},
	{"core.echo_ns_per_hop", func() (func(), int) {
		const rounds, hops = 20_000, 14 // a k=4 inter-pod round trip crosses 14 switches
		send := echoFabric()
		return func() {
			for i := 0; i < rounds; i++ {
				send()
			}
		}, rounds * hops
	}},
	{"core.idle_k16_s_per_vs", func() (func(), int) {
		f, err := core.NewFatTree(16, core.Options{Seed: 1})
		if err != nil {
			panic(err)
		}
		f.Start()
		if err := f.AwaitDiscovery(5 * time.Second); err != nil {
			panic(err)
		}
		return func() { f.RunFor(time.Second) }, 1
	}},
	{"workload.flow_sample_ns", func() (func(), int) {
		const n = 300_000
		spec, err := topo.FatTree(16)
		if err != nil {
			panic(err)
		}
		place := wl.NewPlacement(spec)
		cfg := traceConfig(1, 100_000)
		sink := 0
		return func() {
			for i := 0; i < n; i++ {
				sink += cfg.Flow(place, i).Packets
			}
		}, n
	}},
	{"runner.map_overhead_ns", func() (func(), int) {
		const n = 10_000
		return func() {
			// The pool at its default width, whatever a sweep repetition
			// left behind: dispatch and merge cost per cell.
			defer runner.SetWorkers(runner.Workers())
			runner.SetWorkers(0)
			if _, err := runner.Map(n, func(int) (struct{}, error) { return struct{}{}, nil }); err != nil {
				panic(err)
			}
		}, n
	}},
	{"harness.calib_chase_ns", func() (func(), int) {
		// A 64 MB table walked along one full cycle: a full-period LCG
		// step (c odd, a-1 divisible by 4) visits every slot once, in an
		// order no prefetcher follows.
		const slots, steps = 1 << 23, 2_000_000
		next := make([]uint64, slots)
		for i := range next {
			next[i] = (uint64(i)*1664525 + 1013904223) % slots
		}
		at := uint64(0)
		return func() {
			for i := 0; i < steps; i++ {
				at = next[at]
			}
		}, steps
	}},
	{"harness.calib_scalar_ns", func() (func(), int) {
		const n = 50_000_000
		x := uint64(1)
		return func() {
			for i := 0; i < n; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			if x == 0 {
				fmt.Print() // keeps x live
			}
		}, n
	}},
}

func flowKey(i int) flowtable.Key {
	return flowtable.Key{Dst: ether.Addr{0, byte(i >> 16), byte(i >> 8), byte(i), 0, 1}, Hash: uint32(i) * 2654435761}
}

// residentTable returns an unbounded flow table holding n entries that
// never expire during the kernel (its clock stands still).
func residentTable(n int) *flowtable.Table {
	t := flowtable.New(func() time.Duration { return 0 }, 0)
	for i := 0; i < n; i++ {
		t.Install(flowKey(i), i&7)
	}
	return t
}

// echoFabric returns a function that sends one request across a warm
// k=4 fabric and runs it and the reply to completion: the steady-state
// data path alone, LDP silenced (core's echoRig recipe, through the
// public host API).
func echoFabric() func() {
	f, err := core.NewFatTree(4, core.Options{Seed: 7})
	if err != nil {
		panic(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(2 * time.Second); err != nil {
		panic(err)
	}
	hosts := f.HostList()
	src, dst := hosts[1], hosts[14] // different pods
	dst.Endpoint().EnableEcho()
	src.Endpoint().Ping(dst.IP(), 64, func(time.Duration) {})
	f.RunFor(100 * time.Millisecond)
	dstPM, ok1 := src.ARPCacheLookup(dst.IP())
	srcPM, ok2 := dst.ARPCacheLookup(src.IP())
	if !ok1 || !ok2 {
		panic("benchmark: echo warm-up left no ARP entries")
	}
	frame := func(dstMAC, srcMAC ether.Addr, dstIP, srcIP netip.Addr, dport uint16) *ether.Frame {
		return &ether.Frame{Dst: dstMAC, Src: srcMAC, Type: ether.TypeIPv4, Payload: &ippkt.IPv4{
			TTL: 64, Protocol: ippkt.ProtoUDP, Src: srcIP, Dst: dstIP,
			Payload: &ippkt.UDP{SrcPort: 9000, DstPort: dport, Payload: ether.Raw(make([]byte, 64))}}}
	}
	req := frame(dstPM, src.MAC(), dst.IP(), src.IP(), 9001)
	reply := frame(srcPM, dst.MAC(), src.IP(), dst.IP(), 9002)
	received := 0
	dst.Endpoint().BindUDP(9001, func(netip.Addr, uint16, ether.Payload) { dst.SendFrame(reply) })
	src.Endpoint().BindUDP(9002, func(netip.Addr, uint16, ether.Payload) { received++ })
	for _, id := range f.Spec.Switches() {
		f.Switches[id].Agent().Stop()
	}
	f.Eng.Run()
	send := func() {
		src.SendFrame(req)
		f.Eng.Run()
	}
	send()
	if received != 1 {
		panic("benchmark: echo warm-up round did not complete")
	}
	return send
}
