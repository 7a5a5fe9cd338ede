package core

import (
	"net/netip"
	"testing"
	"time"

	"portland/internal/ether"
	"portland/internal/ippkt"
	"portland/internal/workload"
)

// traceCfg is the million-flow gate's workload: heavy-tailed sizes,
// bursty arrivals, inter-pod-heavy locality so most flows install
// entries at every level of the tree.
func traceCfg(flows int, window time.Duration) workload.TraceConfig {
	return workload.TraceConfig{
		Seed:         11,
		Flows:        flows,
		Arrivals:     workload.Arrivals{Window: window, Bursts: 256, Spread: 2 * time.Millisecond},
		Size:         workload.Pareto{Alpha: 1.2, Min: 1, Max: 3},
		Locality:     workload.LocalityMix{IntraRack: 0.05, IntraPod: 0.15},
		PacketGap:    100 * time.Microsecond,
		PayloadBytes: 64,
		BasePort:     30000,
		DstPorts:     8,
	}
}

// fabricFlowEntries sums live flow-table entries across every switch.
func fabricFlowEntries(f *Fabric) int {
	n := 0
	for _, id := range f.Spec.Switches() {
		n += f.Switches[id].FlowTable().Len()
	}
	return n
}

// TestTraceWorkloadAllocFree is the trace-engine gate: a sampled
// population of short flows large enough to hold over a million
// concurrent flow-table entries across a k=8 fabric, every packet
// delivered, and — with all that state resident — a steady-state
// request/reply round still allocates nothing and journals nothing.
func TestTraceWorkloadAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow trace gate is long; skipped with -short")
	}
	f, err := NewFatTree(8, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := traceCfg(300_000, 1500*time.Millisecond)
	tr := workload.StartTrace(cfg, workload.NewPlacement(f.Spec), f.HostList())
	f.RunFor(cfg.Arrivals.Window + 300*time.Millisecond)

	var wantPackets int64
	for _, sp := range tr.Specs {
		wantPackets += int64(sp.Packets)
	}
	if got := tr.Sent(); got != wantPackets {
		t.Fatalf("sent %d of %d scheduled packets", got, wantPackets)
	}
	if got := tr.Delivered(); got != wantPackets {
		t.Fatalf("delivered %d of %d packets", got, wantPackets)
	}
	entries := fabricFlowEntries(f)
	t.Logf("%d flows, %d packets, %d concurrent flow-table entries", cfg.Flows, wantPackets, entries)
	if entries < 1_000_000 {
		t.Fatalf("%d concurrent flow-table entries; the gate requires >= 1,000,000", entries)
	}

	// Freeze the control plane and measure the steady-state data path
	// with the full flow population resident (echoRig recipe, on a warm
	// million-entry fabric).
	tr.Stop()
	hosts := f.HostList()
	src, dst := hosts[1], hosts[len(hosts)-2] // different pods
	dstPM, ok := src.ARPCacheLookup(dst.IP())
	if !ok {
		t.Fatal("trace left no ARP entry for the probe destination")
	}
	srcPM, ok := dst.ARPCacheLookup(src.IP())
	if !ok {
		// The reverse direction may never have carried a flow; one ping
		// warms it.
		pinged := false
		dst.Endpoint().Ping(src.IP(), 64, func(time.Duration) { pinged = true })
		f.RunFor(100 * time.Millisecond)
		if !pinged {
			t.Fatal("probe warmup ping did not complete")
		}
		srcPM, _ = dst.ARPCacheLookup(src.IP())
	}
	mkFrame := func(dstMAC, srcMAC ether.Addr, dstIP, srcIP netip.Addr, sport, dport uint16) *ether.Frame {
		return &ether.Frame{
			Dst: dstMAC, Src: srcMAC, Type: ether.TypeIPv4,
			Payload: &ippkt.IPv4{
				TTL: 64, Protocol: ippkt.ProtoUDP, Src: srcIP, Dst: dstIP,
				Payload: &ippkt.UDP{SrcPort: 9000, DstPort: dport, Payload: ether.Raw(make([]byte, 64))},
			},
		}
	}
	req := mkFrame(dstPM, src.MAC(), dst.IP(), src.IP(), 9000, 9001)
	reply := mkFrame(srcPM, dst.MAC(), src.IP(), dst.IP(), 9001, 9002)
	received := 0
	dst.Endpoint().BindUDP(9001, func(netip.Addr, uint16, ether.Payload) { dst.SendFrame(reply) })
	src.Endpoint().BindUDP(9002, func(netip.Addr, uint16, ether.Payload) { received++ })
	for _, id := range f.Spec.Switches() {
		f.Switches[id].Agent().Stop()
	}
	f.Eng.Run() // drain stopped tickers and parked-ARP TTLs

	sendOne := func() {
		src.SendFrame(req)
		f.Eng.Run()
	}
	sendOne() // cold round: install the probe flows, grow pools
	if received != 1 {
		t.Fatalf("probe warmup rounds completed: %d, want 1", received)
	}
	capBefore := f.Obs.EventsCaptured()
	if avg := testing.AllocsPerRun(200, sendOne); avg != 0 {
		t.Fatalf("steady-state round allocates %.2f objects with %d flow entries resident; want 0", avg, entries)
	}
	if received < 200 {
		t.Fatalf("only %d replies delivered during measurement", received)
	}
	if got := f.Obs.EventsCaptured(); got != capBefore {
		t.Fatalf("steady-state rounds journaled %d events; the data path must not record", got-capBefore)
	}
}

// BenchmarkTraceWorkload times one full sampled-trace replay (sample,
// start, run to completion) on a warm k=4 fabric, reporting sampled
// flows and delivered packets per wall second.
func BenchmarkTraceWorkload(b *testing.B) {
	f, err := NewFatTree(4, Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(2 * time.Second); err != nil {
		b.Fatal(err)
	}
	place := workload.NewPlacement(f.Spec)
	hosts := f.HostList()
	cfg := traceCfg(5_000, 100*time.Millisecond)
	var delivered int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = 11 + uint64(i) // fresh sample each replay
		tr := workload.StartTrace(cfg, place, hosts)
		f.RunFor(cfg.Arrivals.Window + 300*time.Millisecond)
		tr.Stop()
		delivered += tr.Delivered()
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("trace delivered nothing")
	}
	b.ReportMetric(float64(cfg.Flows), "flows")
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "pkts/s")
}
