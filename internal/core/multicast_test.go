package core

import (
	"net/netip"
	"testing"
	"time"

	"portland/internal/ether"
	"portland/internal/host"
	"portland/internal/obs"
)

func TestMulticastDelivery(t *testing.T) {
	f := buildK4(t)
	const group = 0x2001
	sender := f.HostByName("host-p0-e0-h0")
	receivers := []string{"host-p1-e0-h0", "host-p2-e1-h1", "host-p3-e0-h1"}
	nonMember := f.HostByName("host-p2-e0-h0")

	recs := make(map[string]*obs.Recorder)
	for _, name := range receivers {
		h := f.HostByName(name)
		rec := &obs.Recorder{}
		recs[name] = rec
		h.Endpoint().JoinGroup(group, false, func(*ether.Frame) { rec.Record(f.Eng.Now()) })
	}
	nmBefore := nonMember.Stats.FramesIn
	sender.Endpoint().JoinGroup(group, true, nil)
	f.RunFor(50 * time.Millisecond)

	for i := 0; i < 100; i++ {
		sender.Endpoint().SendGroup(group, 5000, 5000, 200)
		f.RunFor(1 * time.Millisecond)
	}
	f.RunFor(100 * time.Millisecond)

	for name, rec := range recs {
		if rec.Len() != 100 {
			t.Errorf("%s received %d/100 group frames", name, rec.Len())
		}
	}
	if got := nonMember.Stats.FramesIn - nmBefore; got != 0 {
		t.Errorf("non-member host heard %d frames; multicast must not flood", got)
	}
}

func TestMulticastFailureRecovery(t *testing.T) {
	f := buildK4(t)
	const group = 0x2002
	sender := f.HostByName("host-p0-e0-h0")
	names := []string{"host-p1-e0-h0", "host-p2-e1-h1", "host-p3-e0-h1"}
	recs := make([]*obs.Recorder, len(names))
	for i, name := range names {
		h := f.HostByName(name)
		rec := &obs.Recorder{}
		recs[i] = rec
		h.Endpoint().JoinGroup(group, false, func(*ether.Frame) { rec.Record(f.Eng.Now()) })
	}
	sender.Endpoint().JoinGroup(group, true, nil)
	f.RunFor(50 * time.Millisecond)

	stop := false
	f.Eng.NewTicker(time.Millisecond, 0, func() {
		if !stop {
			sender.Endpoint().SendGroup(group, 5000, 5000, 200)
		}
	})
	f.RunFor(300 * time.Millisecond)

	// Fail a link in the installed tree: the agg-core link carrying
	// the most group traffic.
	best := activeAggCoreLink(t, f, 100*time.Millisecond)
	failAt := f.Eng.Now()
	f.FailLink(best)
	f.RunFor(1 * time.Second)
	stop = true
	f.RunFor(50 * time.Millisecond)

	for i, rec := range recs {
		conv, ok := rec.ConvergenceAfter(failAt, time.Millisecond)
		if !ok {
			t.Fatalf("%s never recovered after tree-link failure", names[i])
		}
		t.Logf("%s multicast convergence: %v", names[i], conv)
		if conv > 300*time.Millisecond {
			t.Errorf("%s convergence %v too slow", names[i], conv)
		}
	}
}

// TestMulticastMembershipFollowsVM: a VM that joined a group keeps
// receiving after migrating to another pod — the fabric manager moves
// its membership and reinstalls the tree (paper §3.4 + §3.6).
func TestMulticastMembershipFollowsVM(t *testing.T) {
	f := buildK4(t)
	const group = 0x3003
	sender := f.HostByName("host-p0-e0-h0")
	oldHost := f.HostByName("host-p1-e0-h0")
	newHost := f.HostByName("host-p3-e1-h1")

	vm := host.NewVM(ether.Addr{0x02, 0xcd, 0, 0, 0, 1}, netip.MustParseAddr("10.99.2.1"))
	oldHost.AttachVM(vm)
	f.RunFor(100 * time.Millisecond)

	rec := &obs.Recorder{}
	vm.JoinGroup(group, false, func(*ether.Frame) { rec.Record(f.Eng.Now()) })
	sender.Endpoint().JoinGroup(group, true, nil)
	f.RunFor(50 * time.Millisecond)
	f.Eng.NewTicker(time.Millisecond, 0, func() {
		sender.Endpoint().SendGroup(group, 5000, 5000, 200)
	})
	f.RunFor(300 * time.Millisecond)
	before := rec.Len()
	if before < 250 {
		t.Fatalf("pre-migration delivery %d", before)
	}

	oldHost.DetachVM(vm)
	f.RunFor(200 * time.Millisecond)
	migrateAt := f.Eng.Now()
	newHost.AttachVM(vm)
	// The VM's stack re-announces its subscriptions after migration
	// (as a real stack re-IGMP-joins on interface up).
	vm.JoinGroup(group, false, func(*ether.Frame) { rec.Record(f.Eng.Now()) })
	f.RunFor(time.Second)

	conv, ok := rec.ConvergenceAfter(migrateAt, time.Millisecond)
	if !ok {
		t.Fatal("group delivery never resumed after migration")
	}
	t.Logf("multicast delivery resumed %v after re-attach", conv)
	if conv > 300*time.Millisecond {
		t.Fatalf("resume took %v", conv)
	}
	end := f.Eng.Now()
	if got := rec.CountIn(end-300*time.Millisecond, end); got < 290 {
		t.Fatalf("post-migration delivery %d/300", got)
	}
}
