package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"portland/internal/workload"
)

// shardTrace runs one boot→discovery→traffic→fault→recovery scenario
// on the given shard count and returns a full deterministic trace of
// everything observable: the merged event journals, the manager's
// soft-state snapshot, every link's per-cause counters, and the probe
// flow's arrival timeline. Byte-equality of this string across shard
// counts is the sharded engine's determinism contract.
func shardTrace(t *testing.T, k, shards int, loss float64) string {
	t.Helper()
	f, err := NewFatTree(k, Options{Seed: 77, Shards: shards, CtrlLoss: loss})
	if err != nil {
		t.Fatal(err)
	}
	if want := min(shards, k+1); shards > 1 && f.Dom.Shards() != want {
		t.Fatalf("partition collapsed: want %d shards, got %d", want, f.Dom.Shards())
	}
	// Force the concurrent window path even on one CPU — the -race run
	// of this test is the cross-shard data-race gate.
	f.Dom.SetWorkers(f.Dom.Shards())
	f.Start()
	if err := f.AwaitDiscovery(10 * time.Second); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	if err := f.CheckDiscovery(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	hosts := f.HostList()
	perm := workload.Permutation(f.Eng.Rand(), len(hosts))
	flows := workload.PairCBRs(hosts, perm, time.Millisecond, 64)
	f.RunFor(100 * time.Millisecond)

	// Fail an agg-core link (cross-shard in every sharded layout),
	// let the exclusions converge, then recover.
	li, ok := f.LinkBetween("agg-p0-s0", "core-0")
	if !ok {
		t.Fatal("link missing")
	}
	f.FailLink(li)
	f.RunFor(200 * time.Millisecond)
	f.RestoreLink(li)
	f.RunFor(200 * time.Millisecond)
	for _, fl := range flows {
		fl.Stop()
	}

	var b strings.Builder
	for _, ev := range f.Obs.Merge() {
		fmt.Fprintf(&b, "%s %v %s\n", ev.Source, ev.Event.At, ev.Event.Text())
	}
	fmt.Fprintf(&b, "mgr:\n%s\n", f.Manager.Snapshot())
	for i, l := range f.Links {
		fmt.Fprintf(&b, "link %d: d=%d q=%d l=%d g=%d x=%d\n",
			i, l.Delivered(), l.QueueDrops(), l.LossDrops(), l.GrayDrops(), l.DownDrops())
	}
	for i, fl := range flows {
		fmt.Fprintf(&b, "flow %d: sent=%d", i, fl.Sent)
		for _, at := range fl.RX.Times {
			fmt.Fprintf(&b, " %d", at)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// TestShardIdentity is the sharded engine's non-negotiable gate: for
// every shard count, the full observable trace — journals, manager
// state, link counters, packet arrival timelines — must be
// byte-identical to the serial run.
func TestShardIdentity(t *testing.T) {
	serial := shardTrace(t, 4, 1, 0)
	for _, shards := range []int{2, 3, 5} {
		if got := shardTrace(t, 4, shards, 0); got != serial {
			t.Errorf("shards=%d trace diverges from serial (len %d vs %d): %s",
				shards, len(got), len(serial), firstDiff(serial, got))
		}
	}
}

// TestShardIdentityCtrlLoss repeats the identity gate with lossy
// control channels: the Reliable retransmit machinery (timers, coins)
// must also be shard-invariant.
func TestShardIdentityCtrlLoss(t *testing.T) {
	serial := shardTrace(t, 4, 1, 0.1)
	if got := shardTrace(t, 4, 5, 0.1); got != serial {
		t.Errorf("shards=5 lossy trace diverges from serial (len %d vs %d): %s",
			len(got), len(serial), firstDiff(serial, got))
	}
}

// TestShardIdentityK48Boot pins the determinism contract at the
// paper's deployment scale: a k=48 boot through verified discovery —
// 2880 switches, 27,648 hosts — must leave byte-identical journals and
// manager state whether it ran serial or on 8 shards. Boot-only, so
// the test costs two k=48 boots; guarded by -short and skipped under
// the race detector (TestShardIdentity exercises the same concurrent
// windows with -race at k=4).
func TestShardIdentityK48Boot(t *testing.T) {
	if testing.Short() {
		t.Skip("two k=48 boots take tens of seconds")
	}
	if raceEnabled {
		t.Skip("k=48 under -race is minutes; k=4 shard tests cover race detection")
	}
	boot := func(shards int) string {
		f, err := NewFatTree(48, Options{Seed: 1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		f.Dom.SetWorkers(f.Dom.Shards())
		f.Start()
		if err := f.AwaitDiscovery(10 * time.Second); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := f.CheckDiscovery(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var b strings.Builder
		for _, ev := range f.Obs.Merge() {
			fmt.Fprintf(&b, "%s %v %s\n", ev.Source, ev.Event.At, ev.Event.Text())
		}
		fmt.Fprintf(&b, "mgr:\n%s\n", f.Manager.Snapshot())
		return b.String()
	}
	serial := boot(1)
	if got := boot(8); got != serial {
		t.Errorf("sharded k=48 boot diverges from serial (len %d vs %d): %s",
			len(got), len(serial), firstDiff(serial, got))
	}
}

// firstDiff renders the first diverging line of two traces.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  serial:  %q\n  sharded: %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("prefix equal; lengths %d vs %d lines", len(al), len(bl))
}
