package sim

import (
	"testing"
	"time"
	"unsafe"

	"portland/internal/ether"
)

// An idle fabric is mostly links: at k=48, 83k of them. Each is one
// object: both directions, their Procs and their in-flight queues live
// inside it, and a direction's PRNG and serialization-end ring are
// built only when first used. Each end keeping only the counters it
// writes, int32 ring indices and a two-pointer FrameQueue in place of
// a ring are what fit it in the 416-byte size class.
func TestLinkSize(t *testing.T) {
	if size := unsafe.Sizeof(Link{}); size > 416 {
		t.Fatalf("sim.Link is %d bytes; want at most 416", size)
	}
}

func TestConnectAllocsOneObject(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation count; the race runtime adds its own")
	}
	e := New(1)
	a, b := &node{name: "a", eng: e}, &node{name: "b", eng: e}
	if n := testing.AllocsPerRun(100, func() { Connect(e, a, 0, b, 0, DefaultLinkConfig) }); n != 1 {
		t.Fatalf("Connect allocates %.1f objects; want 1 (the Link)", n)
	}
	d := NewDomain(1, 2)
	ea, eb := d.Engine(0), d.Engine(1)
	a, b = &node{name: "a", eng: ea}, &node{name: "b", eng: eb}
	if n := testing.AllocsPerRun(100, func() { d.Connect(ea, eb, a, 0, b, 0, DefaultLinkConfig) }); n != 1 {
		t.Fatalf("Domain.Connect allocates %.1f objects; want 1 (the Link)", n)
	}
}

// A Proc builds its PRNG on the first Rand, from the (seed, rank) an
// eager build used: the stream is the one procRNG(7, 3) gave when every
// Proc built its PRNG at construction.
func TestProcRandLazyStream(t *testing.T) {
	golden := []uint64{0xf4359e81f9bac7a1, 0xf045c95d175fc0c1, 0xecd93d3f87191bda, 0xa5eb4ec3e8af4d4f}
	e := New(7)
	var p *Proc
	for range 3 {
		p = e.NewProc()
	}
	if p.rank != 3 || p.rng != nil {
		t.Fatalf("third Proc of New(7): rank %d, PRNG built %v; want rank 3, none yet", p.rank, p.rng != nil)
	}
	eager := procRNG(7, 3)
	for i, want := range golden {
		if got, ref := p.Rand().Uint64(), eager.Uint64(); got != want || ref != want {
			t.Fatalf("draw %d: lazy %#x, procRNG(7, 3) %#x; want %#x", i, got, ref, want)
		}
	}
}

// A link failed with frames in flight charges each one to the
// receiver's DownDrops when its delivery fires and leaves the in-flight
// queue empty, every frame unlinked — whether the frames were queued at
// send time or at the mailbox drain.
func TestLinkDownDropsDrainInflight(t *testing.T) {
	eachLinkLayout(t, func(t *testing.T, shards int) {
		r := newLinkRig(1, shards, LinkConfig{Rate: 1e9, Delay: time.Millisecond, QueueFrames: 8})
		var sent []*ether.Frame
		for i := range 5 {
			f := numbered(i)
			sent = append(sent, f)
			r.l.Send(r.a, f)
		}
		r.sched.Schedule(100*time.Microsecond, func() { r.l.SetUp(false) })
		r.run()
		if s := r.l.RxStats(r.b); s.DownDrops != 5 || s.Delivered != 0 || r.l.Drops() != 5 {
			t.Fatalf("RxStats(b) %+v, Drops %d; want 5 down drops and nothing else", s, r.l.Drops())
		}
		if r.l.ab.inflight.Pop() != nil {
			t.Fatal("in-flight queue not empty after every delivery fired")
		}
		// Unlinked frames can be queued again: a stale link would panic.
		var q ether.FrameQueue
		for _, f := range sent {
			q.Push(f)
		}
	})
}
