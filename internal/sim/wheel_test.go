package sim

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// heapSched is a Sched over an Engine that mirrors every event it
// schedules into a plain (at, seq) binary heap — the scheduler the
// wheel replaced — and fails the test unless each event fires exactly
// when that heap would pop it. The differential tests route every
// schedule, timer and ticker through it, so the engine's own per-event
// path carries no test hook.
type heapSched struct {
	t   testing.TB
	e   *Engine
	ref eventHeap
}

func newHeapSched(t testing.TB, seed uint64) *heapSched {
	return &heapSched{t: t, e: New(seed)}
}

func (s *heapSched) Now() time.Duration { return s.e.Now() }
func (s *heapSched) Rand() *rand.Rand   { return s.e.Rand() }

func (s *heapSched) Schedule(d time.Duration, fn func()) {
	s.ScheduleAt(s.e.Now()+max(d, 0), fn)
}

func (s *heapSched) ScheduleAt(at time.Duration, fn func()) {
	at = max(at, s.e.Now())
	var seq uint64
	s.e.ScheduleAt(at, func() {
		ref := s.ref.pop()
		if ref.at != s.e.Now() || ref.seq != seq {
			s.t.Fatalf("wheel fired (at=%v seq=%d), reference heap says (at=%v seq=%d)",
				s.e.Now(), seq, ref.at, ref.seq)
		}
		fn()
	})
	seq = s.e.seq
	s.ref.push(event{at: at, seq: seq})
}

func (s *heapSched) NewTimer(fn func()) *Timer { return newTimer(s, fn) }

func (s *heapSched) NewTicker(interval, jitter time.Duration, fn func()) *Ticker {
	return newTicker(s, interval, jitter, fn)
}

// TestWheelMatchesHeapOrder drives randomized Schedule/Reset/Stop
// workloads through a heapSched: mixed-magnitude delays (same instant
// through a month out), timer churn, and interleaved
// partial drains. Any divergence from the reference heap's (at, seq)
// pop order fails the test.
func TestWheelMatchesHeapOrder(t *testing.T) {
	// Delay magnitudes chosen to land in every stage: due (0), level 0
	// (µs), levels 1–4 (ms, 100ms, 10s, 20min) and level 5 (30 days).
	scales := []time.Duration{
		0, time.Microsecond, 300 * time.Microsecond, time.Millisecond,
		100 * time.Millisecond, 10 * time.Second, 20 * time.Minute,
		30 * 24 * time.Hour,
	}
	for seed := uint64(1); seed <= 50; seed++ {
		s := newHeapSched(t, seed)
		e := s.e
		rng := rand.New(rand.NewPCG(seed, seed*0xabcd))
		fired := 0
		timers := make([]*Timer, 8)
		for i := range timers {
			timers[i] = s.NewTimer(func() { fired++ })
		}
		for op := 0; op < 400; op++ {
			switch rng.IntN(10) {
			case 0, 1, 2, 3: // schedule a callback at a random scale
				d := scales[rng.IntN(len(scales))]
				if d > 0 {
					d = time.Duration(rng.Int64N(int64(d)))
				}
				s.Schedule(d, func() { fired++ })
			case 4, 5: // timer churn: re-arm over several scales
				tm := timers[rng.IntN(len(timers))]
				tm.Reset(time.Duration(rng.Int64N(int64(time.Second))))
			case 6: // disarm: the stale event must still pop in order
				timers[rng.IntN(len(timers))].Stop()
			case 7: // partial drain to a random deadline
				e.RunUntil(e.Now() + time.Duration(rng.Int64N(int64(time.Minute))))
			case 8: // stop mid-run via a scheduled event
				s.Schedule(time.Duration(rng.Int64N(int64(time.Millisecond))), e.Stop)
				e.RunUntil(e.Now() + 10*time.Millisecond)
			case 9:
				if e.Pending() != len(s.ref) {
					t.Fatalf("seed %d: Pending()=%d, reference heap holds %d", seed, e.Pending(), len(s.ref))
				}
			}
		}
		e.Run() // drain fully; every pop is cross-checked
		if e.Pending() != 0 || len(s.ref) != 0 {
			t.Fatalf("seed %d: %d pending, %d in reference after full drain", seed, e.Pending(), len(s.ref))
		}
		if fired == 0 {
			t.Fatalf("seed %d: no callback ever fired", seed)
		}
	}
}

// TestWheelShadowK4Fabric is covered indirectly by the engine-level
// property test above; here the same cross-check runs under a real
// protocol workload (tickers, liveness sweeps, frame deliveries) by
// replaying a representative schedule mix recorded from a k=4 boot:
// dense same-tick bursts from LDM fan-out plus sparse sweep timers.
func TestWheelShadowProtocolMix(t *testing.T) {
	s := newHeapSched(t, 42)
	e := s.e
	fired := 0
	// 48 "switches" announcing every 10ms with per-port fan-out delays
	// in the sub-tick range, plus a 50ms liveness sweep each — the
	// schedule shape a fabric generates, without the fabric.
	for sw := 0; sw < 48; sw++ {
		jitter := time.Duration(e.Rand().Int64N(int64(10 * time.Millisecond)))
		s.NewTicker(10*time.Millisecond, jitter, func() {
			for port := 0; port < 4; port++ {
				s.Schedule(time.Duration(port)*200*time.Nanosecond, func() { fired++ })
			}
		})
		s.NewTicker(50*time.Millisecond, jitter, func() { fired++ })
	}
	s.ScheduleAt(300*time.Millisecond, e.Stop)
	for e.Now() < 300*time.Millisecond {
		e.RunUntil(e.Now() + 7*time.Millisecond)
	}
	if fired < 48*4*25 {
		t.Fatalf("only %d fan-out events fired in 300ms", fired)
	}
}

// farAhead are delays at the coarsest levels' edges: the last tick of
// level 4 and the first of level 5 (2^40 ticks ahead), and the same
// pair for levels 5 and 6 (2^48 ticks ahead).
var farAhead = [...]time.Duration{
	1<<40<<tickShift - 1<<tickShift, 1 << 40 << tickShift,
	1<<48<<tickShift - 1<<tickShift, 1 << 48 << tickShift,
}

// FuzzWheelOrdering lets the fuzzer look for schedules where the wheel
// and the reference heap disagree. The corpus seeds cover stage
// boundaries (tick edges, level edges, the coarsest levels and the
// last representable instant).
func FuzzWheelOrdering(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 254, 16, 17})
	f.Add([]byte{8, 0, 8, 1, 8, 2, 9, 9, 9})           // same-tick ties
	f.Add([]byte{200, 200, 200, 100, 50, 25, 12, 6})   // descending
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 128}) // same-instant bursts
	f.Add([]byte{240, 241, 8, 230, 241, 240, 200})     // the level 4|5 edge
	f.Add([]byte{242, 243, 244, 230, 243, 242, 244})   // the level 5|6 edge, math.MaxInt64
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newHeapSched(t, 7)
		e := s.e
		fired := 0
		for i, b := range data {
			switch {
			case b < 224:
				// Exponential spread: byte value picks ~2^(b/8) µs, so
				// the corpus reaches every wheel level cheaply.
				d := time.Duration(1<<(b/8)) * time.Microsecond
				s.Schedule(d+time.Duration(i), func() { fired++ })
			case b < 240:
				e.RunUntil(e.Now() + time.Duration(b-223)*time.Millisecond)
			case int(b) < 240+len(farAhead):
				s.Schedule(farAhead[b-240]+time.Duration(i), func() { fired++ })
			case int(b) == 240+len(farAhead):
				s.ScheduleAt(math.MaxInt64, func() { fired++ })
			default:
				s.Schedule(0, func() { fired++ })
			}
		}
		e.Run()
		if e.Pending() != 0 {
			t.Fatalf("%d events stranded", e.Pending())
		}
	})
}

// TestRunUntilExactDeadline: an event scheduled exactly at the deadline
// fires, one a nanosecond later does not, and the clock lands exactly
// on the deadline both times.
func TestRunUntilExactDeadline(t *testing.T) {
	e := New(1)
	var atDeadline, after bool
	e.ScheduleAt(5*time.Millisecond, func() { atDeadline = true })
	e.ScheduleAt(5*time.Millisecond+time.Nanosecond, func() { after = true })
	if n := e.RunUntil(5 * time.Millisecond); n != 1 {
		t.Fatalf("ran %d events, want 1", n)
	}
	if !atDeadline || after {
		t.Fatalf("atDeadline=%v after=%v", atDeadline, after)
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v, want exactly the deadline", e.Now())
	}
	if n := e.RunUntil(6 * time.Millisecond); n != 1 || !after {
		t.Fatalf("second RunUntil ran %d events, after=%v", n, after)
	}
}

// TestRunUntilDeadlineInsideDrainedBucket: RunUntil must stop at a
// deadline that falls between two events the wheel has already moved
// into its due stage (same tick), and resume precisely from there.
func TestRunUntilDeadlineInsideDrainedBucket(t *testing.T) {
	e := New(1)
	var order []int
	base := 100 * time.Microsecond // both land in one 1.024µs bucket
	e.ScheduleAt(base+100*time.Nanosecond, func() { order = append(order, 1) })
	e.ScheduleAt(base+300*time.Nanosecond, func() { order = append(order, 2) })
	e.RunUntil(base + 200*time.Nanosecond)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("order after first drain: %v", order)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending()=%d, want the co-bucketed survivor", e.Pending())
	}
	e.RunUntil(base + time.Millisecond)
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("order after second drain: %v", order)
	}
}

// TestStopMidBucket: Stop from inside an event leaves the rest of that
// event's bucket queued, Pending stays exact, and a later Run resumes
// in order without re-firing anything.
func TestStopMidBucket(t *testing.T) {
	e := New(1)
	var order []int
	at := 50 * time.Microsecond
	for i := 1; i <= 5; i++ {
		i := i
		e.ScheduleAt(at+time.Duration(i)*100*time.Nanosecond, func() { order = append(order, i) })
	}
	// Stop fires between events 2 and 3, inside the same wheel bucket.
	e.ScheduleAt(at+250*time.Nanosecond, e.Stop)
	e.Run()
	if len(order) != 2 || e.Pending() != 3 {
		t.Fatalf("after Stop: fired %v, pending %d (want 2 fired, 3 pending)", order, e.Pending())
	}
	e.Run()
	if want := []int{1, 2, 3, 4, 5}; len(order) != 5 {
		t.Fatalf("after resume: fired %v, want %v", order, want)
	} else {
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("after resume: fired %v, want %v", order, want)
			}
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending()=%d after full drain", e.Pending())
	}
}

// TestPendingAcrossBucketLevels: Pending must count events accurately
// wherever they live — due heap and every wheel level — and
// stay exact as advance() migrates them between stages.
func TestPendingAcrossBucketLevels(t *testing.T) {
	e := New(1)
	fn := func() {}
	delays := []time.Duration{
		0,                     // due (tick 0 == base)
		50 * time.Microsecond, // level 0
		10 * time.Millisecond, // level 1
		2 * time.Second,       // level 2
		10 * time.Minute,      // level 3
		24 * time.Hour,        // level 4
		40 * 24 * time.Hour,   // level 5
	}
	for i, d := range delays {
		e.Schedule(d, fn)
		if got := e.Pending(); got != i+1 {
			t.Fatalf("Pending()=%d after %d inserts (delay %v)", got, i+1, d)
		}
	}
	// Drain one stage at a time; the count must track exactly. The 1µs
	// epsilon stays below the smallest gap between adjacent delays.
	remaining := len(delays)
	for _, d := range delays {
		e.RunUntil(d + time.Microsecond)
		remaining--
		if got := e.Pending(); got != remaining {
			t.Fatalf("Pending()=%d after draining through %v, want %d", got, d, remaining)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending()=%d at the end", e.Pending())
	}
}

// TestWheelFarFutureOrder exercises the slow advance path directly:
// events only in coarse levels, up to the last instant a time.Duration
// holds, popped across idle gaps and checked against the reference heap.
func TestWheelFarFutureOrder(t *testing.T) {
	s := newHeapSched(t, 1)
	var got []time.Duration
	at := []time.Duration{
		30 * 24 * time.Hour, // level 5
		26 * time.Hour,      // level 4
		90 * time.Minute,    // level 3
		3 * time.Second,     // level 2
		20 * time.Millisecond,
		14 * 24 * time.Hour, // level 5
		math.MaxInt64,       // level 6
	}
	at = append(at, farAhead[:]...)
	for _, d := range at {
		d := d
		s.ScheduleAt(d, func() { got = append(got, d) })
	}
	s.e.Run()
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("fired out of order: %v", got)
		}
	}
	if len(got) != len(at) {
		t.Fatalf("fired %d of %d", len(got), len(at))
	}
}

// TestWheelCoTickCascadeOrder is the distilled regression for a bug
// found by differential tracing against the retired heap at k=48: two
// events share one tick but live at different wheel levels (one
// scheduled far ahead, one filed into level 0 via a short delta just
// before base jumps to their tick). The jump's cascade must drain the
// level-0 slot at the new base too — otherwise the cascaded coarse
// event reaches the due heap alone and fires before an earlier (at,
// seq) event still parked in level 0.
func TestWheelCoTickCascadeOrder(t *testing.T) {
	s := newHeapSched(t, 1)
	var order []string
	// tick 512, filed at level 1 (delta 512 from base 0).
	s.ScheduleAt(525007*time.Nanosecond, func() { order = append(order, "coarse") })
	// Fires at tick 510; schedules the same tick 512 with delta 2, so
	// the new event lands in level 0 — earlier at, later seq.
	s.ScheduleAt(522894*time.Nanosecond, func() {
		s.ScheduleAt(524362*time.Nanosecond, func() { order = append(order, "fine") })
	})
	s.e.Run()
	if len(order) != 2 || order[0] != "fine" {
		t.Fatalf("pop order %v, want the earlier-at fine event first", order)
	}
}
