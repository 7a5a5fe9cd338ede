package experiments

import (
	"net/netip"
	"testing"
	"time"

	"portland/internal/ether"
)

// The paper's shape claims are checked by the ledger (ledger_test.go)
// on TestCatalogIdentity's run. The tests here cover configurations
// the catalog never runs.

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
