package experiments

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"portland/internal/ether"
)

func TestFig9Small(t *testing.T) {
	cfg := DefaultFig9()
	cfg.MaxFaults = 3
	cfg.Trials = 2
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Dead > 0 {
			t.Errorf("faults=%d: %d flows never recovered", row.Faults, row.Dead)
		}
		if row.Failure.N > 0 && (row.Failure.Median < 10 || row.Failure.Median > 150) {
			t.Errorf("faults=%d: median convergence %.1f ms outside the detection band", row.Faults, row.Failure.Median)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("Print output malformed")
	}
}

func TestFig10(t *testing.T) {
	res, err := RunFig10(DefaultFig10())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: TCP recovery is dominated by the 200 ms
	// minimum RTO, not reconvergence (~65 ms). Expect a gap in
	// [detection, RTO*2.5].
	if res.Gap < 50*time.Millisecond || res.Gap > 600*time.Millisecond {
		t.Fatalf("TCP delivery gap %v outside the RTO-dominated band", res.Gap)
	}
	if res.Timeouts == 0 {
		t.Error("expected at least one RTO event")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "retx") {
		t.Error("Print output missing trace")
	}
}

func TestFig11Small(t *testing.T) {
	cfg := DefaultFig11()
	cfg.Trials = 3
	res, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dead > 0 {
		t.Fatalf("%d receivers never recovered", res.Dead)
	}
	if res.Convergence.N == 0 {
		t.Fatal("no receiver was affected by the tree-link failure")
	}
	if res.Convergence.Median < 10 || res.Convergence.Median > 300 {
		t.Fatalf("multicast convergence median %.1f ms outside band", res.Convergence.Median)
	}
}

func TestFig12(t *testing.T) {
	res, err := RunFig12(DefaultFig12())
	if err != nil {
		t.Fatal(err)
	}
	if res.Reset {
		t.Fatal("TCP connection reset across migration; PortLand must keep it alive")
	}
	if res.Outage < fig12Pause {
		t.Fatalf("outage %v shorter than the blackout %v?", res.Outage, fig12Pause)
	}
	if res.Outage > fig12Pause+2*time.Second {
		t.Fatalf("outage %v far exceeds blackout+recovery", res.Outage)
	}
	if res.PostMbps < 0.5*res.PreMbps {
		t.Fatalf("throughput did not recover: %.0f -> %.0f Mbps", res.PreMbps, res.PostMbps)
	}
}

func TestFig13(t *testing.T) {
	res, err := RunFig13(DefaultFig13())
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesPerARP <= 0 {
		t.Fatal("no per-ARP cost")
	}
	// Linear in hosts and rate.
	r0, rLast := res.Rows[0], res.Rows[len(res.Rows)-1]
	if rLast.Mbps[0] <= r0.Mbps[0] {
		t.Error("traffic not increasing with hosts")
	}
	for _, row := range res.Rows {
		if row.Mbps[2] < 3.9*row.Mbps[0] || row.Mbps[2] > 4.1*row.Mbps[0] {
			t.Errorf("hosts=%d: 100/s curve is not 4x the 25/s curve", row.Hosts)
		}
	}
	// The simulated cross-check includes registrations and floods but
	// must stay within a small factor of the analytic constant.
	if res.MeasuredPerARP < float64(res.BytesPerARP) || res.MeasuredPerARP > 6*float64(res.BytesPerARP) {
		t.Errorf("measured %.1f B/ARP vs analytic %d B/ARP", res.MeasuredPerARP, res.BytesPerARP)
	}
}

func TestFig14(t *testing.T) {
	cfg := DefaultFig14()
	cfg.Registry = 4096
	cfg.MeasureOps = 50000
	res, err := RunFig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ARPsPerSec < 1e4 {
		t.Fatalf("suspiciously slow fabric manager: %.0f ARPs/s", res.ARPsPerSec)
	}
	// Paper shape: ~27k hosts at 25 ARPs/s should need few cores.
	for _, row := range res.Rows {
		if row.Hosts >= 24576 && row.Hosts <= 32768 {
			if row.Cores[0] > 16 {
				t.Errorf("hosts=%d needs %.1f cores at 25 ARPs/s; shape broken", row.Hosts, row.Cores[0])
			}
		}
	}
}

func TestTable1Small(t *testing.T) {
	cfg := DefaultTable1()
	cfg.Ks = []int{4, 8}
	res, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.Measured {
			continue
		}
		if float64(row.BLMax) <= row.PLMean {
			t.Errorf("k=%d: flat L2 max state %d not above PortLand mean %.1f", row.K, row.BLMax, row.PLMean)
		}
	}
	// The gap must widen with k.
	if len(res.Rows) >= 2 {
		g0 := float64(res.Rows[0].BLMax) / float64(res.Rows[0].PLMax)
		g1 := float64(res.Rows[1].BLMax) / float64(res.Rows[1].PLMax)
		if g1 <= g0*0.8 {
			t.Errorf("state gap not widening: k=%d ratio %.2f, k=%d ratio %.2f",
				res.Rows[0].K, g0, res.Rows[1].K, g1)
		}
	}
}

// A1's blast sends one prebuilt datagram per flow per tick: at 15 µs
// per packet a sender that built its datagram each tick was the
// sweep's largest allocator. Once ARP is warm a tick's send, carried
// across the fabric to the receiver's handler, allocates nothing.
func TestA1SendAllocFree(t *testing.T) {
	f, err := DefaultRig().build()
	if err != nil {
		t.Fatal(err)
	}
	hosts := f.HostList()
	src, dst := hosts[0], hosts[len(hosts)-1]
	got := 0
	dst.Endpoint().BindUDP(23000, func(netip.Addr, uint16, ether.Payload) { got++ })
	send := a1Sender(src, dst, 23000, a1Size)
	send() // resolves ARP, installs the flow
	f.RunFor(100 * time.Millisecond)
	// LDP keepalives are the only periodic events and are not under test.
	for _, id := range f.Spec.Switches() {
		f.Switches[id].Agent().Stop()
	}
	f.Eng.Run()
	before := got
	avg := testing.AllocsPerRun(200, func() {
		send()
		f.Eng.Run()
	})
	if got-before != 201 { // AllocsPerRun adds one warm-up call
		t.Fatalf("%d of 201 datagrams delivered", got-before)
	}
	if avg != 0 {
		t.Fatalf("A1's per-tick send allocates %.1f objects; want 0", avg)
	}
}

func TestAblationA2(t *testing.T) {
	res, err := RunA2([]int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Discovery <= 0 || row.Discovery > time.Second {
			t.Errorf("k=%d discovery %v out of range", row.K, row.Discovery)
		}
	}
}

func TestAblationA3(t *testing.T) {
	res, err := RunA3(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.BLDataFrames <= res.PLDataFrames {
		t.Errorf("baseline flood (%.1f frames/ARP) should exceed PortLand proxy (%.1f)",
			res.BLDataFrames, res.PLDataFrames)
	}
	if res.HostsHearing < 2 {
		t.Errorf("baseline ARP must disturb many hosts; measured %.1f", res.HostsHearing)
	}
}

func TestAblationA5Balance(t *testing.T) {
	res, err := RunA5(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 4 {
		t.Fatalf("cores: %d", len(res.PerCore))
	}
	if res.Spread.Min == 0 {
		t.Fatal("a core carried nothing; hash is not spreading")
	}
	if res.Imbalance > 2.5 {
		t.Fatalf("imbalance %.2f; ECMP hash badly skewed", res.Imbalance)
	}
}

func TestAblationA6Locality(t *testing.T) {
	res, err := RunA6(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	same, pod, inter := res.Rows[0].RTT, res.Rows[1].RTT, res.Rows[2].RTT
	if !(same.Median < pod.Median && pod.Median < inter.Median) {
		t.Fatalf("locality ordering broken: %v / %v / %v µs", same.Median, pod.Median, inter.Median)
	}
	// The fat tree equidistance property: inter-pod spread is tight.
	if inter.Max > inter.Min*1.5 {
		t.Fatalf("inter-pod RTTs not equidistant: min=%.1f max=%.1f", inter.Min, inter.Max)
	}
}

func TestFig9SwitchFailures(t *testing.T) {
	cfg := DefaultFig9()
	cfg.Mode = FailSwitches
	cfg.MaxFaults = 2
	cfg.Trials = 2
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Dead > 0 {
			t.Errorf("faults=%d: %d flows never recovered", row.Faults, row.Dead)
		}
		if row.Failure.N > 0 && row.Failure.Median > 200 {
			t.Errorf("faults=%d: median %.1f ms", row.Faults, row.Failure.Median)
		}
	}
}

func TestFMFSmall(t *testing.T) {
	cfg := DefaultFMF()
	cfg.Outages = []time.Duration{100 * time.Millisecond}
	res, err := RunFMF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // one outage × {lossless, 10% loss}
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ARPBlackout < 0 {
			t.Errorf("loss=%.2f: cold ARP never resolved", row.CtrlLoss)
			continue
		}
		// The cold ARP cannot resolve while the manager is dark, and
		// must resolve shortly after restart+resync.
		if row.ARPBlackout < row.Outage {
			t.Errorf("loss=%.2f: blackout %v shorter than the outage %v", row.CtrlLoss, row.ARPBlackout, row.Outage)
		}
		if row.ARPBlackout > row.Outage+1500*time.Millisecond {
			t.Errorf("loss=%.2f: blackout %v far exceeds outage+recovery", row.CtrlLoss, row.ARPBlackout)
		}
		if row.ResyncRound < 0 || row.ResyncRound > 500*time.Millisecond {
			t.Errorf("loss=%.2f: resync round %v", row.CtrlLoss, row.ResyncRound)
		}
		if row.Dead > 0 {
			t.Errorf("loss=%.2f: %d flows never re-converged", row.CtrlLoss, row.Dead)
		}
		if row.FlowConv <= 0 || row.FlowConv > 1500*time.Millisecond {
			t.Errorf("loss=%.2f: flow convergence %v out of band", row.CtrlLoss, row.FlowConv)
		}
		if row.CtrlLoss > 0 && row.CtrlDrops == 0 {
			t.Errorf("loss=%.2f dropped nothing; loss not exercised", row.CtrlLoss)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Manager failover") {
		t.Error("Print output malformed")
	}
}

// The lossy-control-plane acceptance criterion: the convergence
// experiments still complete with finite convergence when every
// control frame has a 10% loss probability — the reliable channel's
// retransmits mask the loss, at a latency cost bounded by a few RTOs.
func TestFig9UnderControlLoss(t *testing.T) {
	cfg := DefaultFig9()
	cfg.Rig.CtrlLoss = 0.1
	cfg.MaxFaults = 2
	cfg.Trials = 1
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Dead > 0 {
			t.Errorf("faults=%d: %d flows never recovered under control loss", row.Faults, row.Dead)
		}
		if row.Failure.N > 0 && row.Failure.Median > 600 {
			t.Errorf("faults=%d: median convergence %.1f ms; retransmits should bound it", row.Faults, row.Failure.Median)
		}
	}
}

func TestFig10UnderControlLoss(t *testing.T) {
	cfg := DefaultFig10()
	cfg.Rig.CtrlLoss = 0.1
	res, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap < 50*time.Millisecond || res.Gap > time.Second {
		t.Fatalf("TCP delivery gap %v under control loss", res.Gap)
	}
}

func TestFig11UnderControlLoss(t *testing.T) {
	cfg := DefaultFig11()
	cfg.Rig.CtrlLoss = 0.1
	cfg.Trials = 1
	res, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dead > 0 {
		t.Fatalf("%d receivers never recovered under control loss", res.Dead)
	}
	if res.Convergence.N > 0 && res.Convergence.Median > 600 {
		t.Fatalf("multicast convergence median %.1f ms under control loss", res.Convergence.Median)
	}
}

// TestAllPrintersProduceOutput smoke-tests every catalog entry's
// printer at -quick size: each must emit a title, the rule under it and
// at least one data row without panicking.
func TestAllPrintersProduceOutput(t *testing.T) {
	for _, e := range Catalog {
		res, _, err := e.Run(Settings{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		var buf bytes.Buffer
		res.Print(&buf)
		title, body, ruled := strings.Cut(buf.String(), "\n-----")
		if !ruled || strings.TrimSpace(title) == "" || strings.Count(body, "\n") < 2 {
			t.Errorf("%s printed no title/rule/rows:\n%s", e.ID, buf.String())
		}
	}
}
