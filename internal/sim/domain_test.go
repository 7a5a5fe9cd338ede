package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Synthetic shard net
//
// A tiny message-passing network built straight on the Domain API: N
// entities spread round-robin across shards, exchanging callbacks via
// Proc.ScheduleOn with delays at or above the registered lookahead.
// Every entity keeps a private log appended only from its own shard, so
// the harness itself is data-race-free under concurrent windows; the
// concatenation of all logs (plus the exclusive stream's log) is the
// observable trace the identity tests compare across shard counts.
// ---------------------------------------------------------------------------

type snode struct {
	id   int
	p    *Proc
	look time.Duration
	log  []string
}

type snet struct {
	d     *Domain
	nodes []*snode
	// dlook, when non-nil, is a full node-pair send-delay matrix
	// (indexed [src][dst]); nil means every node uses its uniform
	// snode.look. Delays are a property of the logical node pair, not
	// the shard layout, so traces stay identical across shard counts.
	dlook [][]time.Duration
	// xlog is appended only from exclusive events, which run
	// single-threaded with every shard parked — no lock needed.
	xlog []string
}

// newSnet builds a Domain with the given shard count and a synthetic
// net of `n` entities. Entity i lives on shard i%shards; construction
// order (and therefore every rank and RNG stream) is identical for
// every layout. Only the (0, i) couplings are registered — sends
// between two non-zero shards deliberately exercise the planner's
// global-minimum fallback for unregistered pairs.
func newSnet(seed uint64, shards, n int, look time.Duration) *snet {
	d := NewDomain(seed, shards)
	net := &snet{d: d}
	for i := 0; i < n; i++ {
		e := d.Engine(i % d.Shards())
		net.nodes = append(net.nodes, &snode{id: i, p: e.NewProc(), look: look})
	}
	for i := 1; i < d.Shards(); i++ {
		d.RegisterLatency(d.Engine(0), d.Engine(i), look)
	}
	return net
}

// newSnetMatrix builds the same net over a heterogeneous node-pair
// delay matrix: each directed shard pair registers the minimum
// node-pair delay that can cross it, so the domain's pairwise
// lookahead matrix is exactly as tight as the traffic allows and every
// send meets its own pair's bound by construction.
func newSnetMatrix(seed uint64, shards, n int, dlook [][]time.Duration) *snet {
	d := NewDomain(seed, shards)
	net := &snet{d: d, dlook: dlook}
	for i := 0; i < n; i++ {
		e := d.Engine(i % d.Shards())
		net.nodes = append(net.nodes, &snode{id: i, p: e.NewProc()})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ei, ej := net.nodes[i].p.Engine(), net.nodes[j].p.Engine()
			if i == j || ei == ej {
				continue
			}
			d.RegisterLatencyDir(ei, ej, dlook[i][j])
		}
	}
	return net
}

// sendDelay is the minimum delay for a handoff from node src to node
// dst: the matrix entry in matrix mode, the uniform lookahead
// otherwise.
func (net *snet) sendDelay(src, dst int) time.Duration {
	if net.dlook != nil {
		return net.dlook[src][dst]
	}
	return net.nodes[src].look
}

// send forwards a bounded chain: pick the next hop and an extra delay
// from this entity's own stream, then hand the callback off with a
// timestamp at least the pair's delay in the future (the contract
// every cross-shard coupling must meet).
func (n *snode) send(net *snet, hops int) {
	if hops <= 0 {
		return
	}
	dst := net.nodes[n.p.Rand().IntN(len(net.nodes))]
	extra := time.Duration(n.p.Rand().IntN(7)) * 50 * time.Microsecond
	at := n.p.Now() + net.sendDelay(n.id, dst.id) + extra
	from := n.id
	n.p.ScheduleOn(dst.p.Engine(), at, func() {
		// The barrier invariant, observed from the receiver: a handoff
		// fires exactly at its timestamp — never early (the epoch that
		// produced it ended before `at`) and never late (the receiver's
		// clock cannot have passed `at` when the mailbox drained).
		if now := dst.p.Now(); now != at {
			panic(fmt.Sprintf("sim: handoff for t=%v fired at %v", at, now))
		}
		dst.recv(net, from, hops-1)
	})
}

func (n *snode) recv(net *snet, from, hops int) {
	n.log = append(n.log, fmt.Sprintf("%d<-%d@%d h=%d", n.id, from, n.p.Now(), hops))
	n.send(net, hops)
}

// trace renders the full observable state: the exclusive stream's log,
// then every entity's log in construction order.
func (net *snet) trace() string {
	var b strings.Builder
	for _, l := range net.xlog {
		fmt.Fprintf(&b, "x %s\n", l)
	}
	for _, n := range net.nodes {
		fmt.Fprintf(&b, "node %d:", n.id)
		for _, l := range n.log {
			fmt.Fprintf(&b, " [%s]", l)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// runSyntheticTrace drives one fixed scenario — seeded chains, local
// tickers, and periodic exclusive snapshots — and returns the trace.
func runSyntheticTrace(seed uint64, shards int) string {
	net := newSnet(seed, shards, 6, time.Millisecond)
	d := net.d
	d.SetWorkers(d.Shards()) // force the concurrent window path
	for _, n := range net.nodes {
		n := n
		// Seed one chain per entity and a local ticker whose callback
		// occasionally fans out another chain.
		n.p.Schedule(time.Duration(n.id)*100*time.Microsecond, func() { n.send(net, 5) })
		n.p.NewTicker(3*time.Millisecond, time.Millisecond, func() {
			n.log = append(n.log, fmt.Sprintf("tick@%d", n.p.Now()))
			if n.p.Rand().IntN(2) == 0 {
				n.send(net, 2)
			}
		})
	}
	d.NewTicker(5*time.Millisecond, 0, func() {
		// Exclusive snapshot across every shard at one instant: all
		// clocks must be parked at the same virtual time.
		total := 0
		for _, n := range net.nodes {
			if n.p.Now() != d.Now() {
				panic(fmt.Sprintf("sim: shard clock %v != domain clock %v inside exclusive event", n.p.Now(), d.Now()))
			}
			total += len(n.log)
		}
		net.xlog = append(net.xlog, fmt.Sprintf("snap@%d total=%d", d.Now(), total))
	})
	d.RunUntil(40 * time.Millisecond)
	return net.trace()
}

// TestDomainIdentitySynthetic is the sim-layer identity gate: the same
// synthetic scenario must produce a byte-identical trace on one shard
// (pure serial engine) and on every multi-shard layout.
func TestDomainIdentitySynthetic(t *testing.T) {
	serial := runSyntheticTrace(11, 1)
	if len(serial) == 0 {
		t.Fatal("serial trace is empty; the scenario did nothing")
	}
	for _, shards := range []int{2, 3, 4, 6} {
		if got := runSyntheticTrace(11, shards); got != serial {
			t.Errorf("shards=%d trace diverges from serial (len %d vs %d)", shards, len(got), len(serial))
		}
	}
}

// TestDomainClockParking pins RunUntil's postcondition: every shard
// clock sits exactly at the deadline afterwards, whether or not the
// shard had any events, and repeated calls advance monotonically.
func TestDomainClockParking(t *testing.T) {
	net := newSnet(3, 3, 3, time.Millisecond)
	d := net.d
	net.nodes[0].p.Schedule(500*time.Microsecond, func() { net.nodes[0].send(net, 3) })
	for _, deadline := range []time.Duration{2 * time.Millisecond, 7 * time.Millisecond, 7 * time.Millisecond} {
		d.RunUntil(deadline)
		if d.Now() != deadline {
			t.Fatalf("domain clock = %v, want %v", d.Now(), deadline)
		}
		for i := 0; i < d.Shards(); i++ {
			if got := d.Engine(i).Now(); got != deadline {
				t.Fatalf("shard %d clock = %v, want %v", i, got, deadline)
			}
		}
	}
}

// TestDomainExclusiveDeadline pins the inclusive-deadline contract for
// the exclusive stream: an event stamped exactly at the deadline fires,
// one just past it stays pending.
func TestDomainExclusiveDeadline(t *testing.T) {
	d := NewDomain(9, 2)
	d.RegisterLatency(d.Engine(0), d.Engine(1), time.Millisecond)
	var fired []time.Duration
	d.ScheduleAt(5*time.Millisecond, func() { fired = append(fired, d.Now()) })
	d.ScheduleAt(5*time.Millisecond+1, func() { fired = append(fired, d.Now()) })
	d.RunUntil(5 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 5*time.Millisecond {
		t.Fatalf("fired = %v, want exactly the deadline-stamped event", fired)
	}
	if d.Pending() != 1 {
		t.Fatalf("pending = %d, want the past-deadline event still queued", d.Pending())
	}
	d.RunUntil(6 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("past-deadline event never fired: %v", fired)
	}
}

// TestDomainUncoupledShards: with no registered cross-shard coupling
// the lookahead is zero and windows are unbounded — independent shards
// run their local work in one epoch without ever synchronizing.
func TestDomainUncoupledShards(t *testing.T) {
	d := NewDomain(4, 3)
	if d.Lookahead() != 0 {
		t.Fatalf("lookahead = %v before any RegisterLatency", d.Lookahead())
	}
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		p := d.Engine(i).NewProc()
		p.NewTicker(time.Millisecond, 0, func() { counts[i]++ })
	}
	d.RunUntil(10 * time.Millisecond)
	for i, c := range counts {
		if c != 10 {
			t.Errorf("shard %d ticked %d times, want 10", i, c)
		}
	}
}

// TestRegisterLatencyRules pins the coupling rules: same-engine
// couplings are free and ignored, zero-delay cross-shard couplings are
// rejected, and the lookahead is the minimum registered delay.
func TestRegisterLatencyRules(t *testing.T) {
	d := NewDomain(1, 2)
	d.RegisterLatency(d.Engine(0), d.Engine(0), 0) // same engine: ignored
	if d.Lookahead() != 0 {
		t.Fatalf("same-engine coupling changed lookahead to %v", d.Lookahead())
	}
	d.RegisterLatency(d.Engine(0), d.Engine(1), 4*time.Millisecond)
	d.RegisterLatency(d.Engine(0), d.Engine(1), 2*time.Millisecond)
	d.RegisterLatency(d.Engine(0), d.Engine(1), 3*time.Millisecond)
	if d.Lookahead() != 2*time.Millisecond {
		t.Fatalf("lookahead = %v, want the minimum registered delay 2ms", d.Lookahead())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-delay cross-shard coupling did not panic")
		}
	}()
	d.RegisterLatency(d.Engine(0), d.Engine(1), 0)
}

// TestBarrierViolationPanics pins the failure mode the barrier guards
// against: a cross-shard record timestamped before the receiver's clock
// means an epoch outran the lookahead, and drainMail must refuse to
// deliver it rather than silently reorder history.
func TestBarrierViolationPanics(t *testing.T) {
	d := NewDomain(2, 2)
	d.RegisterLatency(d.Engine(0), d.Engine(1), time.Millisecond)
	p := d.Engine(0).NewProc()
	d.RunUntil(2 * time.Millisecond) // park shard 1's clock at 2ms
	// Forge a stale handoff behind the receiver's clock — something no
	// correct caller can produce through ScheduleOn.
	d.sendFn(d.Engine(0), d.Engine(1), time.Millisecond, p.key(), func() {})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stale cross-shard record was delivered without panicking")
		}
		if !strings.Contains(fmt.Sprint(r), "barrier violation") {
			t.Fatalf("panic = %v, want a barrier violation", r)
		}
	}()
	d.RunUntil(3 * time.Millisecond)
}

// ---------------------------------------------------------------------------
// FuzzShardBarrier
//
// The fuzzer interprets its input as a little scenario script — seeded
// message chains, tickers, exclusive events at arbitrary byte-derived
// timestamps — and runs it on one shard and on several. Two invariants
// are checked on every input: no event is ever delivered before the
// barrier that covers it (the receiver-side timestamp assertion in
// snode.send plus drainMail's own panic), and the multi-shard traces
// are byte-identical to the serial one.
// ---------------------------------------------------------------------------

// scriptMatrix derives a deterministic heterogeneous node-pair delay
// matrix from a fuzz script: every directed pair gets a delay in
// [450µs, 1.65ms] mixing the pair indices with script bytes, so each
// input also fuzzes the pairwise lookahead matrix the planner runs on.
func scriptMatrix(script []byte, nodes int) [][]time.Duration {
	m := make([][]time.Duration, nodes)
	for i := range m {
		m[i] = make([]time.Duration, nodes)
		for j := range m[i] {
			if i == j {
				continue
			}
			off := 0
			if len(script) > 0 {
				off = int(script[(i*nodes+j)%len(script)]) % 8
			}
			m[i][j] = time.Duration(3+(i*5+j*3+off)%9) * 150 * time.Microsecond
		}
	}
	return m
}

// runBarrierScript executes one fuzz script on the given shard count
// and returns the observable trace.
func runBarrierScript(seed uint64, shards int, script []byte) string {
	return runBarrierScriptOpt(seed, shards, script, false, false)
}

// planGlobalRef is the PR 7 global-minimum epoch planner, kept as the
// reference the differential tests compare the production pairwise
// planner against: one window [m, m+look) from the global minimum
// timestamp m, every shard woken at every epoch.
func planGlobalRef(d *Domain, deadline, hardClip time.Duration) {
	m := farFuture
	for i, ok := range d.nextOk {
		if ok && d.nextAt[i] < m {
			m = d.nextAt[i]
		}
	}
	limit := hardClip
	if d.look > 0 && m+d.look < limit {
		limit = m + d.look
	}
	clockTo := limit
	if clockTo > deadline {
		clockTo = deadline
	}
	d.runIdx = d.runIdx[:0]
	for i := range d.engines {
		d.limit[i], d.clockTo[i] = limit, clockTo
		d.runIdx = append(d.runIdx, i)
		d.barriers[i]++
	}
}

// runBarrierScriptOpt is runBarrierScript with the two planner axes
// exposed: matrix mode swaps the uniform lookahead for a script-derived
// per-pair delay matrix, and global mode runs the epoch loop under
// planGlobalRef instead of the pairwise planner.
func runBarrierScriptOpt(seed uint64, shards int, script []byte, matrix, global bool) string {
	const nodes = 5
	look := time.Millisecond
	var net *snet
	if matrix {
		net = newSnetMatrix(seed, shards, nodes, scriptMatrix(script, nodes))
	} else {
		net = newSnet(seed, shards, nodes, look)
	}
	d := net.d
	d.SetWorkers(d.Shards())
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		n := net.nodes[int(a)%nodes]
		at := time.Duration(b) * 50 * time.Microsecond
		switch op % 4 {
		case 0:
			// A chain seeded from inside a shard-local event: the sends
			// it triggers happen mid-window, the case the barrier math
			// actually protects.
			hops := int(op)%5 + 1
			n.p.ScheduleAt(at, func() { n.send(net, hops) })
		case 1:
			// An exclusive event at a byte-derived instant: forces the
			// window planner to clip epochs at arbitrary timestamps.
			d.ScheduleAt(at, func() {
				net.xlog = append(net.xlog, fmt.Sprintf("x@%d a=%d", d.Now(), a))
			})
		case 2:
			// A ticker: a steady local event source whose period need
			// not divide the lookahead.
			iv := time.Duration(int(b)%23+1) * 100 * time.Microsecond
			n.p.NewTicker(iv, 0, func() {
				n.log = append(n.log, fmt.Sprintf("t@%d", n.p.Now()))
			})
		case 3:
			// A minimum-lookahead handoff seeded straight from setup:
			// arrival lands exactly on an epoch barrier.
			n.p.ScheduleAt(at, func() { n.send(net, 1) })
		}
	}
	if global {
		d.runUntil(20*time.Millisecond, planGlobalRef)
	} else {
		d.RunUntil(20 * time.Millisecond)
	}
	return net.trace()
}

// FuzzShardBarrier fuzzes the epoch/barrier machinery: for every
// generated scenario, no cross-shard event may be delivered before the
// barrier that covers it, and the sharded trace must be byte-identical
// to the serial one — under the uniform lookahead, and again under a
// script-derived heterogeneous per-pair lookahead matrix, where the
// sharded pairwise-planned run must also match the sharded
// global-minimum-planned run (the differential planner invariant).
func FuzzShardBarrier(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0})
	f.Add(uint64(7), []byte{0, 1, 19, 1, 2, 19, 2, 3, 5, 3, 4, 20})
	f.Add(uint64(42), []byte{3, 0, 20, 3, 1, 20, 1, 0, 20, 0, 2, 40, 2, 1, 7})
	f.Add(uint64(1234567), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 96 {
			script = script[:96] // bound scenario size, not coverage
		}
		serial := runBarrierScript(seed, 1, script)
		for _, shards := range []int{2, 4} {
			if got := runBarrierScript(seed, shards, script); got != serial {
				t.Fatalf("shards=%d trace diverges from serial:\nserial:\n%s\nsharded:\n%s", shards, serial, got)
			}
		}
		mserial := runBarrierScriptOpt(seed, 1, script, true, false)
		for _, shards := range []int{2, 4} {
			if got := runBarrierScriptOpt(seed, shards, script, true, false); got != mserial {
				t.Fatalf("matrix shards=%d pairwise trace diverges from serial:\nserial:\n%s\nsharded:\n%s", shards, mserial, got)
			}
			if got := runBarrierScriptOpt(seed, shards, script, true, true); got != mserial {
				t.Fatalf("matrix shards=%d global-planner trace diverges from serial:\nserial:\n%s\nsharded:\n%s", shards, mserial, got)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Pairwise planner: differential identity and epoch accounting
// ---------------------------------------------------------------------------

// TestPlannerDifferentialIdentity is the planner differential gate: on
// heterogeneous per-pair delay matrices, the pairwise-planned run, the
// global-minimum-planned run (planGlobalRef), and the serial run must
// produce byte-identical traces. Window planning decides only when
// shards synchronize — never what executes in which order.
func TestPlannerDifferentialIdentity(t *testing.T) {
	script := []byte{0, 1, 19, 1, 2, 19, 2, 3, 5, 3, 4, 20, 0, 2, 40, 2, 1, 7, 3, 0, 33, 0, 4, 9}
	for _, seed := range []uint64{3, 21, 777} {
		serial := runBarrierScriptOpt(seed, 1, script, true, false)
		if len(serial) == 0 {
			t.Fatal("serial trace is empty; the scenario did nothing")
		}
		for _, shards := range []int{2, 3, 5} {
			pair := runBarrierScriptOpt(seed, shards, script, true, false)
			glob := runBarrierScriptOpt(seed, shards, script, true, true)
			if pair != serial {
				t.Errorf("seed=%d shards=%d: pairwise trace diverges from serial", seed, shards)
			}
			if glob != pair {
				t.Errorf("seed=%d shards=%d: global-planner trace diverges from pairwise", seed, shards)
			}
		}
	}
}

// asymDomain builds the hand-computable 3-shard topology the epoch
// accounting tests run on: shard 0 is an (initially idle) core bank
// with fast 100µs couplings to both pod shards, while the pod↔pod
// coupling is a slow 1ms path. Shard 1 holds events at 0 and 150µs,
// shard 2 one event at 2ms.
func asymDomain() *Domain {
	d := NewDomain(5, 3)
	d.RegisterLatency(d.Engine(0), d.Engine(1), 100*time.Microsecond)
	d.RegisterLatency(d.Engine(0), d.Engine(2), 100*time.Microsecond)
	d.RegisterLatency(d.Engine(1), d.Engine(2), time.Millisecond)
	p1 := d.Engine(1).NewProc()
	p2 := d.Engine(2).NewProc()
	p1.ScheduleAt(0, func() {})
	p1.ScheduleAt(150*time.Microsecond, func() {})
	p2.ScheduleAt(2*time.Millisecond, func() {})
	return d
}

// TestEpochAccountingPairwise pins the pairwise planner's counters on
// the asymmetric 3-shard topology, every value hand-derived:
//
// Epoch 1: E = [100µs, 0, 200µs] after relaxation (the idle core bank
// is pulled down by shard 1's event through the 100µs coupling, and
// shard 2's own 2ms event is beaten by the relayed 0+100µs+100µs
// chain). Shard 1's window limit is min(E0+100µs, E2+1ms) = 200µs — it
// runs BOTH its events in one window, past the 100µs global bound —
// while shards 0 and 2 are skipped. Epoch 2: only shard 2 wakes (limit
// 2.2ms covers its 2ms event); 0 and 1 are skipped again. Then the
// domain is empty and RunUntil exits: 2 epochs, 2 wakeups total where
// the global planner spends 9 (see TestEpochAccountingGlobal).
func TestEpochAccountingPairwise(t *testing.T) {
	d := asymDomain()
	if n := d.RunUntil(3 * time.Millisecond); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	s := d.SyncStats()
	if s.Epochs != 2 || s.Instants != 0 {
		t.Fatalf("epochs=%d instants=%d, want 2/0", s.Epochs, s.Instants)
	}
	wantBarriers := []int64{0, 1, 1}
	wantSkips := []int64{2, 1, 1}
	for i, sh := range s.Shards {
		if sh.Barriers != wantBarriers[i] {
			t.Errorf("shard %d barriers=%d, want %d", i, sh.Barriers, wantBarriers[i])
		}
		if sh.Skips != wantSkips[i] {
			t.Errorf("shard %d skips=%d, want %d", i, sh.Skips, wantSkips[i])
		}
	}
}

// TestEpochAccountingGlobal runs the same scenario under the
// global-minimum reference planner: three 100µs-wide epochs (one per
// event timestamp), every shard woken at every one — 9 wakeups, no skips.
// Together with TestEpochAccountingPairwise this pins exactly what the
// pairwise planner saves.
func TestEpochAccountingGlobal(t *testing.T) {
	d := asymDomain()
	if n := d.runUntil(3*time.Millisecond, planGlobalRef); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	s := d.SyncStats()
	if s.Epochs != 3 || s.Instants != 0 {
		t.Fatalf("epochs=%d instants=%d, want 3/0", s.Epochs, s.Instants)
	}
	for i, sh := range s.Shards {
		if sh.Barriers != 3 || sh.Skips != 0 {
			t.Errorf("shard %d barriers=%d skips=%d, want 3/0", i, sh.Barriers, sh.Skips)
		}
	}
}

// TestSyncStatsMail pins the mailbox counters: cross-shard handoffs
// drained at one barrier count toward the receiver's MailRecv, and
// MailHighWater keeps the largest single-barrier batch.
func TestSyncStatsMail(t *testing.T) {
	d := NewDomain(6, 2)
	d.RegisterLatency(d.Engine(0), d.Engine(1), time.Millisecond)
	p := d.Engine(0).NewProc()
	ran := 0
	p.ScheduleAt(0, func() {
		for i := 0; i < 3; i++ {
			p.ScheduleOn(d.Engine(1), p.Now()+time.Millisecond+time.Duration(i)*time.Microsecond, func() { ran++ })
		}
	})
	p.ScheduleAt(5*time.Millisecond, func() {
		p.ScheduleOn(d.Engine(1), p.Now()+2*time.Millisecond, func() { ran++ })
	})
	d.RunUntil(10 * time.Millisecond)
	if ran != 4 {
		t.Fatalf("ran %d cross-shard callbacks, want 4", ran)
	}
	s := d.SyncStats()
	sh := s.Shards[1]
	if sh.MailRecv != 4 {
		t.Errorf("shard 1 mail_recv=%d, want 4", sh.MailRecv)
	}
	if sh.MailHighWater != 3 {
		t.Errorf("shard 1 mail_hw=%d, want 3", sh.MailHighWater)
	}
	if s.Shards[0].MailRecv != 0 {
		t.Errorf("shard 0 mail_recv=%d, want 0", s.Shards[0].MailRecv)
	}
}

// TestWorkerCap pins the satellite fix: the worker pool can never
// exceed the shard count — neither from the GOMAXPROCS default nor
// through SetWorkers — so benchmark metrics report parallelism the
// epochs can actually use.
func TestWorkerCap(t *testing.T) {
	d := NewDomain(1, 3)
	if w := d.EffectiveWorkers(); w > 3 {
		t.Fatalf("default workers=%d exceeds 3 shards", w)
	}
	d.SetWorkers(64)
	if w := d.EffectiveWorkers(); w != 3 {
		t.Fatalf("SetWorkers(64) on 3 shards gives %d, want 3", w)
	}
	d.SetWorkers(0)
	if w := d.EffectiveWorkers(); w != 1 {
		t.Fatalf("SetWorkers(0) gives %d, want 1", w)
	}
}

// TestPairLookahead pins the matrix accessor semantics: a directed
// registration bounds only its direction, the reverse direction falls
// back to the global minimum until registered, and registered values
// take precedence over the fallback even when larger.
func TestPairLookahead(t *testing.T) {
	d := NewDomain(2, 3)
	d.RegisterLatencyDir(d.Engine(0), d.Engine(1), 2*time.Millisecond)
	if got := d.PairLookahead(0, 1); got != 2*time.Millisecond {
		t.Fatalf("look[0→1] = %v, want 2ms", got)
	}
	if got := d.PairLookahead(1, 0); got != 2*time.Millisecond {
		t.Fatalf("unregistered look[1→0] = %v, want the 2ms global fallback", got)
	}
	d.RegisterLatencyDir(d.Engine(1), d.Engine(0), 5*time.Millisecond)
	if got := d.PairLookahead(1, 0); got != 5*time.Millisecond {
		t.Fatalf("look[1→0] = %v, want the registered 5ms over the fallback", got)
	}
	if got := d.Lookahead(); got != 2*time.Millisecond {
		t.Fatalf("global lookahead = %v, want 2ms", got)
	}
	if got := d.PairLookahead(0, 2); got != 2*time.Millisecond {
		t.Fatalf("uncoupled pair look[0→2] = %v, want the global fallback", got)
	}
}
