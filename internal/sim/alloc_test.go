package sim

import (
	"testing"
	"time"

	"portland/internal/ether"
)

// The engine's hot path — Schedule into the value-slice heap, pop and
// execute in Run — must not allocate once the heap's backing array has
// grown to the workload's high-water mark. This is the budget every
// simulated frame, timer, and tick spends from.
func TestScheduleRunAllocFree(t *testing.T) {
	e := New(1)
	fn := func() {}
	for i := 0; i < 4096; i++ { // grow the heap's capacity
		e.Schedule(time.Duration(i), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			e.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("Schedule+Run allocates %.1f objects per batch; want 0", avg)
	}
}

// Timer.Reset reuses the one fire closure allocated by NewTimer, so
// the RTO re-arm / keepalive sweep pattern is allocation-free too.
func TestTimerResetAllocFree(t *testing.T) {
	e := New(1)
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	for i := 0; i < 1024; i++ {
		tm.Reset(time.Microsecond)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Microsecond)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("Timer.Reset+Run allocates %.1f objects per cycle; want 0", avg)
	}
	if fired == 0 {
		t.Fatal("timer never fired")
	}
}

// A ticker reschedules the one tick callback bound by newTicker, on
// every scheduling surface: LDP and STP keepalives, CBR probes and the
// A1 blast all tick from one of these. (Re-binding the method value
// per tick cost an object per tick — 15% of a paper sweep's.)
func TestTickerAllocFree(t *testing.T) {
	const period = time.Microsecond
	e := New(1)
	d := NewDomain(1, 2)
	d.SetWorkers(1) // more workers cost a goroutine per epoch by design
	for _, tc := range []struct {
		name string
		s    Sched
		run  func(time.Duration)
	}{
		{"Engine", e, func(dt time.Duration) { e.RunUntil(e.Now() + dt) }},
		{"Proc", e.NewProc(), func(dt time.Duration) { e.RunUntil(e.Now() + dt) }},
		{"Domain", d, func(dt time.Duration) { d.RunUntil(d.Now() + dt) }},
	} {
		ticks := 0
		tk := tc.s.NewTicker(period, 0, func() { ticks++ })
		tc.run(1024 * period) // grow the wheel to its high-water mark
		before := ticks
		avg := testing.AllocsPerRun(100, func() { tc.run(16 * period) })
		tk.Stop()
		if got := ticks - before; got != 101*16 { // AllocsPerRun adds one warm-up call
			t.Fatalf("%s ticker ticked %d times in 101 windows of 16 periods", tc.name, got)
		}
		if avg != 0 {
			t.Fatalf("%s ticker allocates %.1f objects per 16 ticks; want 0", tc.name, avg)
		}
	}
}

// Link.Send→deliver is the simulator's per-frame unit of work; with
// the value-typed delivery event it must not allocate (previously each
// Send captured the link state in a fresh closure).
func TestLinkSendAllocFree(t *testing.T) {
	e := New(1)
	a := &node{name: "a", eng: e}
	c := &node{name: "b", eng: e}
	l := Connect(e, a, 0, c, 0, LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 64})
	f := &ether.Frame{Type: ether.TypeIPv4, Payload: ether.Raw(make([]byte, 128))}
	l.Send(a, f)
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		l.Send(a, f)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("Link.Send+deliver allocates %.1f objects per frame; want 0", avg)
	}
	if l.Drops() != 0 {
		t.Fatalf("unexpected drops: %d", l.Drops())
	}
}

// Popped slots must not keep the executed callback reachable through
// any stage's spare capacity — a closure can pin an entire fabric.
// The scheduler has two event stores (due heap and wheel-node arena);
// both must zero vacated slots.
func TestPopReleasesCallback(t *testing.T) {
	e := New(1)
	big := make([]byte, 1<<20)
	// Cover every stage: same-tick (due), near (level 0), far (coarse
	// levels) and a month out, which files into level 5.
	e.Schedule(0, func() { _ = big[0] })
	e.Schedule(time.Millisecond, func() { _ = big[1] })
	e.Schedule(time.Hour, func() { _ = big[2] })
	e.Schedule(30*24*time.Hour, func() { _ = big[3] })
	if e.occ[5] == ([wheelWords]uint64{}) {
		t.Fatal("the 30-day event is not in level 5")
	}
	if got := e.Run(); got != 4 {
		t.Fatalf("ran %d events", got)
	}
	for i, ev := range e.due[:cap(e.due)] {
		if ev.fn != nil || ev.dir != nil {
			t.Fatalf("due-heap slot %d still references its event after pop", i)
		}
	}
	if e.used == 0 {
		t.Fatal("no event passed through the wheel arena")
	}
	for c, chunk := range e.nodes {
		for i := range chunk {
			if n := &chunk[i]; n.ev.fn != nil || n.ev.dir != nil {
				t.Fatalf("wheel arena node %d still references its event after drain", c*arenaChunk+i)
			}
		}
	}
}

// The sharded epoch loop — mailbox drain, the planning step RunUntil
// hands to runUntil, single-worker window execution — must not
// allocate once wheels and mailboxes have reached their steady size.
func TestEpochLoopAllocFree(t *testing.T) {
	d := NewDomain(1, 2)
	d.SetWorkers(1) // more workers cost a goroutine per epoch by design
	d.RegisterLatency(d.Engine(0), d.Engine(1), 100*time.Microsecond)
	for i := 0; i < 2; i++ {
		p, peer := d.Engine(i).NewProc(), d.Engine(1-i)
		period := time.Duration(70*(i+1)) * time.Microsecond
		var tm *Timer
		tm = p.NewTimer(func() {
			p.ScheduleOn(peer, p.Now()+150*time.Microsecond, func() {})
			tm.Reset(period)
		})
		tm.Reset(period)
	}
	d.RunUntil(10 * time.Millisecond)
	before := d.SyncStats()
	avg := testing.AllocsPerRun(100, func() { d.RunUntil(d.Now() + time.Millisecond) })
	after := d.SyncStats()
	epochs, mailed := after.Epochs-before.Epochs, after.Shards[0].MailRecv-before.Shards[0].MailRecv
	if epochs < 100 || mailed < 100 {
		t.Fatalf("scenario went idle: %d epochs, %d records mailed to shard 0", epochs, mailed)
	}
	if avg != 0 {
		t.Fatalf("epoch loop allocates %.1f objects per virtual millisecond; want 0", avg)
	}
}
