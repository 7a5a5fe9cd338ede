package core

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"portland/internal/ether"
	"portland/internal/obs"
)

// failOneAggCoreLink fails a known agg↔core link and returns its index.
func failOneAggCoreLink(t *testing.T, f *Fabric) int {
	t.Helper()
	for c := 0; c < 4; c++ {
		if li, ok := f.LinkBetween("agg-p0-s0", fmt.Sprintf("core-%d", c)); ok {
			f.FailLink(li)
			return li
		}
	}
	t.Fatal("no agg-core link found in blueprint")
	return -1
}

// diffSnapshots returns the first few differing lines, for diagnostics.
func diffSnapshots(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out []string
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			out = append(out, fmt.Sprintf("line %d: pre=%q post=%q", i, x, y))
			if len(out) >= 8 {
				break
			}
		}
	}
	return strings.Join(out, "\n")
}

// TestManagerCrashRestartResync is the soft-state recovery proof: a
// fabric with a populated registry, a live fault, multicast state and
// a DHCP lease loses its fabric manager entirely; a fresh manager
// rebuilds byte-identical state purely from the switches' resync
// dumps, and ARP service resumes within one resync round.
func TestManagerCrashRestartResync(t *testing.T) {
	f := buildK4(t)
	hosts := f.HostList()

	// Populate the PMAC registry with cross-pod traffic. {13,2} is
	// the pair later used for the outage blackout probe: registering
	// it now keeps the probe from adding edge-learned state that the
	// pre/post snapshot comparison would (correctly) surface.
	for _, pair := range [][2]int{{0, 15}, {3, 12}, {5, 10}, {13, 2}} {
		a, b := hosts[pair[0]], hosts[pair[1]]
		b.Endpoint().BindUDP(7000, func(netip.Addr, uint16, ether.Payload) {})
		a.Endpoint().SendUDP(b.IP(), 7000, 7000, 64)
	}
	// Multicast state: one cross-pod receiver, one source.
	const group = 0xbeef
	mrx := 0
	hosts[14].Endpoint().JoinGroup(group, false, func(*ether.Frame) { mrx++ })
	hosts[1].Endpoint().JoinGroup(group, true, nil)
	// A DHCP lease.
	booter := f.HostByName("host-p1-e1-h1")
	var leased netip.Addr
	booter.Endpoint().BootWithDHCP(func(ip netip.Addr) { leased = ip })
	f.RunFor(300 * time.Millisecond) // tree installed, lease granted
	hosts[1].Endpoint().SendGroup(group, 5000, 5000, 128)
	f.RunFor(100 * time.Millisecond)
	if !leased.IsValid() {
		t.Fatal("setup: no DHCP lease")
	}
	if mrx == 0 {
		t.Fatal("setup: multicast not delivering")
	}
	// A live fault, so the fault matrix and exclusion set are non-empty.
	failOneAggCoreLink(t, f)
	f.RunFor(600 * time.Millisecond)

	pre := f.Manager.Snapshot()
	for _, want := range []string{"ip ", "link ", "excl ", "group ", "lease "} {
		if !strings.Contains(pre, want) {
			t.Fatalf("setup: snapshot has no %q records:\n%s", want, pre)
		}
	}

	// Crash. Proxy ARP goes dark: a fresh resolution cannot complete.
	f.KillManager()
	blackRx := 0
	hosts[2].Endpoint().BindUDP(7100, func(netip.Addr, uint16, ether.Payload) { blackRx++ })
	hosts[13].FlushARP(hosts[2].IP())
	hosts[13].Endpoint().SendUDP(hosts[2].IP(), 7100, 7100, 64)
	f.RunFor(300 * time.Millisecond)
	if blackRx != 0 {
		t.Fatalf("ARP resolved during manager outage (%d datagrams)", blackRx)
	}

	// Restart: a brand-new, empty manager resyncs from the fabric.
	restartAt := f.Eng.Now()
	m := f.RestartManager()
	var syncedAt time.Duration
	m.SetOnSyncDone(func(uint32) { syncedAt = f.Eng.Now() })

	// A new ARP issued the moment the manager returns must resolve
	// within the resync round — not a full host-side retry later.
	var nrxAt time.Duration
	hosts[12].Endpoint().BindUDP(7200, func(netip.Addr, uint16, ether.Payload) {
		if nrxAt == 0 {
			nrxAt = f.Eng.Now()
		}
	})
	hosts[3].FlushARP(hosts[12].IP())
	hosts[3].Endpoint().SendUDP(hosts[12].IP(), 7200, 7200, 64)
	f.RunFor(200 * time.Millisecond)

	if syncedAt == 0 {
		t.Fatalf("resync never completed; %d switches pending", m.SyncPending())
	}
	t.Logf("resync completed %v after restart", syncedAt-restartAt)
	post := m.Snapshot()
	if post != pre {
		t.Fatalf("rebuilt state differs from pre-crash state:\n%s", diffSnapshots(pre, post))
	}
	if nrxAt == 0 {
		t.Fatal("post-restart ARP never resolved")
	}
	if d := nrxAt - restartAt; d > 100*time.Millisecond {
		t.Fatalf("post-restart ARP took %v; should resolve within the resync round, not a host retry", d)
	}
	t.Logf("post-restart ARP resolved %v after restart", nrxAt-restartAt)

	// Reactive services all run on the rebuilt state: the same lease
	// comes back, and the multicast tree still delivers.
	var again netip.Addr
	booter.Endpoint().BootWithDHCP(func(ip netip.Addr) { again = ip })
	preMrx := mrx
	hosts[1].Endpoint().SendGroup(group, 5000, 5000, 128)
	f.RunFor(500 * time.Millisecond)
	if again != leased {
		t.Fatalf("lease changed across manager restart: %v vs %v", again, leased)
	}
	if mrx == preMrx {
		t.Fatal("multicast dead after manager restart")
	}
	if _, ok := m.Lookup(hosts[0].IP()); !ok {
		t.Fatal("rebuilt registry missing a pre-crash host")
	}
}

// TestStandbyTakeover: with Options.Standby a silent manager is
// replaced on heartbeat timeout by a fresh one that resyncs from the
// switches. The watchdog adds no control traffic, and the replacement
// rebuilds the dead primary's state and serves ARP.
func TestStandbyTakeover(t *testing.T) {
	warm := func(standby bool) *Fabric {
		f, err := NewFatTree(4, Options{Seed: 7, Standby: standby})
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		if err := f.AwaitDiscovery(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		hosts := f.HostList()
		for _, pair := range [][2]int{{0, 15}, {5, 10}} {
			a, b := hosts[pair[0]], hosts[pair[1]]
			b.Endpoint().BindUDP(7000, func(netip.Addr, uint16, ether.Payload) {})
			a.Endpoint().SendUDP(b.IP(), 7000, 7000, 64)
		}
		failOneAggCoreLink(t, f)
		f.RunFor(600 * time.Millisecond)
		return f
	}
	f, plain := warm(true), warm(false)
	toMgr, fromMgr := f.ControlStats()
	wantTo, wantFrom := plain.ControlStats()
	if toMgr != wantTo || fromMgr != wantFrom {
		t.Fatalf("control traffic with Standby %+v / %+v, without %+v / %+v", toMgr, fromMgr, wantTo, wantFrom)
	}
	hosts := f.HostList()
	pre := f.Manager.Snapshot()

	primary := f.Manager
	killAt := f.Eng.Now()
	f.KillManager()
	f.RunFor(500 * time.Millisecond)

	if !f.TookOver() {
		t.Fatal("the watchdog never took over")
	}
	var takeovers []obs.Event
	for _, e := range f.FabricJournal().Events() {
		if e.Kind == obs.Takeover {
			takeovers = append(takeovers, e)
		}
	}
	if len(takeovers) != 1 {
		t.Fatalf("fabric journal holds %d takeover records, want 1", len(takeovers))
	}
	takeoverEpoch, takeoverAt := uint32(takeovers[0].A), takeovers[0].At
	if f.Manager == primary || f.Manager != f.Mgrs[0] {
		t.Fatal("takeover did not replace the manager")
	}
	if takeoverEpoch != f.Epoch() {
		t.Fatalf("takeover epoch %d vs fabric epoch %d", takeoverEpoch, f.Epoch())
	}
	t.Logf("takeover at epoch %d, %v after kill", takeoverEpoch, takeoverAt-killAt)
	if takeoverAt-killAt > 300*time.Millisecond {
		t.Fatalf("takeover %v after kill; watchdog too slow", takeoverAt-killAt)
	}
	if post := f.Manager.Snapshot(); post != pre {
		t.Fatalf("replacement state differs from the dead primary's:\n%s", diffSnapshots(pre, post))
	}

	// The replacement serves a fresh ARP resolution.
	got := 0
	hosts[2].Endpoint().BindUDP(7100, func(netip.Addr, uint16, ether.Payload) { got++ })
	hosts[13].FlushARP(hosts[2].IP())
	hosts[13].Endpoint().SendUDP(hosts[2].IP(), 7100, 7100, 64)
	f.RunFor(300 * time.Millisecond)
	if got == 0 {
		t.Fatal("ARP dead after takeover")
	}
}

// TestResyncUnderControlLoss: the full crash/restart/resync cycle
// still completes when every control frame has a 10% loss
// probability — the Reliable layer's retransmits mask the loss.
func TestResyncUnderControlLoss(t *testing.T) {
	f, err := NewFatTree(4, Options{Seed: 7, CtrlLoss: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	hosts := f.HostList()
	hosts[15].Endpoint().BindUDP(7000, func(netip.Addr, uint16, ether.Payload) {})
	hosts[0].Endpoint().SendUDP(hosts[15].IP(), 7000, 7000, 64)
	f.RunFor(500 * time.Millisecond)

	f.KillManager()
	f.RunFor(200 * time.Millisecond)
	m := f.RestartManager()
	var syncedAt time.Duration
	m.SetOnSyncDone(func(uint32) { syncedAt = f.Eng.Now() })
	f.RunFor(time.Second)
	if syncedAt == 0 {
		t.Fatalf("resync incomplete under 10%% control loss; %d pending", m.SyncPending())
	}
	if _, ok := m.Lookup(hosts[0].IP()); !ok {
		t.Fatal("registry not rebuilt under control loss")
	}
	toMgr, _ := f.ControlStats()
	if toMgr.Drops == 0 {
		t.Fatal("loss rate 0.1 dropped nothing; the test is not exercising loss")
	}
}
