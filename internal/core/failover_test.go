package core

import (
	"testing"
	"time"

	"portland/internal/tcplite"
	"portland/internal/topo"
	"portland/internal/workload"
)

// activeAggCoreLink returns the aggregation-core link carrying the
// most frames over the next run of virtual time.
func activeAggCoreLink(t *testing.T, f *Fabric, run time.Duration) int {
	t.Helper()
	link, err := f.BusiestLink(run, topo.Aggregation, topo.Core)
	if err != nil {
		t.Fatal(err)
	}
	return link
}

// TestBusiestLink pins BusiestLink's contract on an idle fabric,
// where every agg-core link carries the same LDM keepalives: a tie
// resolves to the lowest link index, and a window in which no link of
// the asked tier pair delivers a frame is an error.
func TestBusiestLink(t *testing.T) {
	f := buildK4(t)
	var aggCore []int
	for i, ls := range f.Spec.Links {
		a, b := f.Spec.Nodes[ls.A.Node].Level, f.Spec.Nodes[ls.B.Node].Level
		if a == topo.Aggregation && b == topo.Core || a == topo.Core && b == topo.Aggregation {
			aggCore = append(aggCore, i)
		}
	}
	base := make([]int64, len(aggCore))
	for j, i := range aggCore {
		base[j] = f.Links[i].Delivered()
	}
	got, err := f.BusiestLink(100*time.Millisecond, topo.Core, topo.Aggregation)
	if err != nil {
		t.Fatal(err)
	}
	first := f.Links[aggCore[0]].Delivered() - base[0]
	for j, i := range aggCore {
		if d := f.Links[i].Delivered() - base[j]; d != first || d == 0 {
			t.Fatalf("%v delivered %d frames, %v delivered %d: not a tie", f.Links[i], d, f.Links[aggCore[0]], first)
		}
	}
	if got != aggCore[0] {
		t.Fatalf("tie resolved to link %d, want the lowest agg-core index %d", got, aggCore[0])
	}

	for _, i := range aggCore {
		f.FailLink(i)
	}
	if got, err := f.BusiestLink(100*time.Millisecond, topo.Aggregation, topo.Core); err == nil {
		t.Fatalf("every agg-core link is down, yet BusiestLink returned link %d", got)
	}
}

func TestLinkFailureConvergence(t *testing.T) {
	f := buildK4(t)
	hosts := f.HostList()
	src, dst := hosts[0], hosts[len(hosts)-1] // distinct pods
	flow := workload.StartCBR(src, dst, 21000, 1*time.Millisecond, 128)
	f.RunFor(500 * time.Millisecond) // warm ARP + steady state

	link := activeAggCoreLink(t, f, 200*time.Millisecond)
	failAt := f.Eng.Now()
	f.FailLink(link)
	f.RunFor(1 * time.Second)

	conv, ok := flow.RX.ConvergenceAfter(failAt, time.Millisecond)
	if !ok {
		t.Fatalf("flow never recovered after failing %v", f.Links[link])
	}
	t.Logf("convergence after failing %v: %v", f.Links[link], conv)
	if conv > 200*time.Millisecond {
		t.Fatalf("convergence %v exceeds 200ms; fault detection/rerouting broken", conv)
	}
	if conv < 5*time.Millisecond {
		t.Logf("note: flow converged almost instantly (%v); failed link may have been off-path", conv)
	}

	// Steady state after convergence: no continuing loss.
	lossWindowStart := failAt + 400*time.Millisecond
	got := flow.RX.CountIn(lossWindowStart, lossWindowStart+400*time.Millisecond)
	if got < 380 {
		t.Fatalf("post-convergence delivery only %d/400 packets", got)
	}

	// Recovery: restore the link; traffic must keep flowing and the
	// fabric must converge back with no loss spike.
	restoreAt := f.Eng.Now()
	f.RestoreLink(link)
	f.RunFor(1 * time.Second)
	conv, ok = flow.RX.ConvergenceAfter(restoreAt, time.Millisecond)
	if !ok || conv > 100*time.Millisecond {
		t.Fatalf("recovery disturbance %v (ok=%v); link restoration must be hitless-ish", conv, ok)
	}
	flow.Stop()
}

// maxGap returns the largest gap between consecutive arrivals in
// [from, to].
func maxGap(times []time.Duration, from, to time.Duration) time.Duration {
	var gap time.Duration
	for i := 1; i < len(times); i++ {
		if times[i-1] >= from && times[i] <= to {
			gap = max(gap, times[i]-times[i-1])
		}
	}
	return gap
}

func TestSwitchFailureConvergence(t *testing.T) {
	f := buildK4(t)
	hosts := f.HostList()
	src, dst := hosts[0], hosts[len(hosts)-1]
	flow := workload.StartCBR(src, dst, 21001, 1*time.Millisecond, 128)
	f.RunFor(500 * time.Millisecond)

	// Crash a core switch; ECMP must shift flows to surviving cores.
	failAt := f.Eng.Now()
	f.SwitchByName("core-0").Fail()
	f.SwitchByName("core-2").Fail()
	f.RunFor(1 * time.Second)

	// Whatever path the flow used, at most one detection period of
	// loss is acceptable.
	gap := maxGap(flow.RX.Times, failAt, failAt+time.Second)
	t.Logf("max gap after crashing core-0+core-2: %v", gap)
	if gap > 250*time.Millisecond {
		t.Fatalf("gap %v after core crashes; rerouting failed", gap)
	}
	got := flow.RX.CountIn(failAt+500*time.Millisecond, failAt+900*time.Millisecond)
	if got < 380 {
		t.Fatalf("post-crash delivery only %d/400", got)
	}
	flow.Stop()
}

func TestIntraPodLinkFailure(t *testing.T) {
	f := buildK4(t)
	// Intra-pod flow between the two edges of pod 0.
	src := f.HostByName("host-p0-e0-h0")
	dst := f.HostByName("host-p0-e1-h0")
	flow := workload.StartCBR(src, dst, 21002, 1*time.Millisecond, 128)
	f.RunFor(500 * time.Millisecond)

	// Fail one edge-agg link inside pod 0 on the destination side.
	li, ok := f.LinkBetween("edge-p0-s1", "agg-p0-s0")
	if !ok {
		t.Fatal("blueprint link missing")
	}
	failAt := f.Eng.Now()
	f.FailLink(li)
	f.RunFor(1 * time.Second)
	gap := maxGap(flow.RX.Times, failAt, failAt+time.Second)
	t.Logf("intra-pod max gap: %v", gap)
	if gap > 250*time.Millisecond {
		t.Fatalf("gap %v after intra-pod link failure", gap)
	}
	got := flow.RX.CountIn(failAt+500*time.Millisecond, failAt+900*time.Millisecond)
	if got < 380 {
		t.Fatalf("post-failure delivery only %d/400", got)
	}
	flow.Stop()
}

func TestTCPSurvivesLinkFailure(t *testing.T) {
	f := buildK4(t)
	hosts := f.HostList()
	src, dst := hosts[0], hosts[len(hosts)-1]
	dst.Endpoint().ListenTCP(80, nil)
	conn := src.Endpoint().DialTCP(dst.IP(), 33000, 80, tcplite.Config{})
	conn.Queue(20 << 20) // 20 MB bulk transfer
	f.RunFor(500 * time.Millisecond)
	if conn.State() != tcplite.StateEstablished {
		t.Fatalf("connection state %v", conn.State())
	}

	link := activeAggCoreLink(t, f, 100*time.Millisecond)
	f.FailLink(link)
	f.RunFor(3 * time.Second)

	// Find the server conn and confirm delivery resumed.
	var delivered int64
	for _, c := range dst.Endpoint().Conns() {
		delivered += c.Delivered()
	}
	if delivered < 5<<20 {
		t.Fatalf("server delivered only %d bytes after failure; TCP did not recover", delivered)
	}
	if conn.Stats.Timeouts == 0 && conn.Stats.FastRetrans == 0 {
		t.Log("note: flow was not on the failed link (no retransmissions observed)")
	}
}
