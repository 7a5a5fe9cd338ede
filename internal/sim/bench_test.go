package sim

import (
	"testing"
	"time"

	"portland/internal/ether"
)

// BenchmarkEngineSchedule measures raw event throughput — the budget
// everything else in the simulator spends from.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i), fn)
		if e.Pending() > 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineScheduleRun is the full hot-path cycle — push, pop,
// execute — at a steady queue depth; allocs/op must be zero.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i), fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Microsecond, fn)
		e.Run()
	}
}

// BenchmarkEngineTimerChurn measures the cancellable-timer pattern the
// protocol stacks lean on (LDP keepalive sweeps, TCP RTO re-arming).
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := New(1)
	t := e.NewTimer(func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Reset(time.Millisecond)
	}
	e.Run()
}

// BenchmarkLinkSend measures one complete send→deliver cycle in
// steady state: Send queues a value-typed delivery event, Run pops and
// fires it. This is the data path's unit of work;
// TestLinkSendAllocFree holds it at 0 allocs.
func BenchmarkLinkSend(b *testing.B) {
	e := New(1)
	a := &node{name: "a", eng: e}
	c := &node{name: "b", eng: e}
	l := Connect(e, a, 0, c, 0, LinkConfig{Rate: 100e9, Delay: time.Microsecond, QueueFrames: 64})
	f := &ether.Frame{Type: ether.TypeIPv4, Payload: ether.Raw(make([]byte, 1000))}
	l.Send(a, f)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(a, f)
		e.Run()
	}
	if int(l.Delivered()) != b.N+1 {
		b.Fatalf("delivered %d/%d", l.Delivered(), b.N+1)
	}
}

// BenchmarkLinkThroughput measures frames/second through one
// simulated link, including serialization and delivery events. Up to
// 1024 frames are in flight at once, so it sends 1024 distinct frames
// in turn: a frame is in one link's in-flight queue at a time.
func BenchmarkLinkThroughput(b *testing.B) {
	e := New(1)
	a := &node{name: "a", eng: e}
	c := &node{name: "b", eng: e}
	l := Connect(e, a, 0, c, 0, LinkConfig{Rate: 100e9, Delay: time.Microsecond, QueueFrames: 1 << 20})
	payload := ether.Raw(make([]byte, 1000))
	frames := make([]ether.Frame, 1024)
	for i := range frames {
		frames[i] = ether.Frame{Type: ether.TypeIPv4, Payload: payload}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(a, &frames[i%1024])
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
	if int(l.Delivered()) != b.N {
		b.Fatalf("delivered %d/%d", l.Delivered(), b.N)
	}
}
