package fabricmgr

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ldp"
	"portland/internal/pmac"
	"portland/internal/topo"
)

// fatTreeFeed is what a k-ary fat tree tells its manager while it
// boots, synthesised from the blueprint: no fabric, no engine.
type fatTreeFeed struct {
	k         int
	ids       []ctrlmsg.SwitchID // ascending
	loc       map[ctrlmsg.SwitchID]ctrlmsg.Loc
	pods      [][]ctrlmsg.SwitchID  // switches by pod
	adjacency []ctrlmsg.FaultNotify // link i's two ends at 2i and 2i+1
}

func newFatTreeFeed(tb testing.TB, k int) *fatTreeFeed {
	tb.Helper()
	spec, err := topo.FatTree(k)
	if err != nil {
		tb.Fatal(err)
	}
	f := &fatTreeFeed{k: k, loc: map[ctrlmsg.SwitchID]ctrlmsg.Loc{}, pods: make([][]ctrlmsg.SwitchID, k)}
	sid := func(n topo.NodeID) ctrlmsg.SwitchID { return ctrlmsg.SwitchID(n) + 1 }
	for _, n := range spec.Switches() {
		s := spec.Nodes[n]
		l := ctrlmsg.Loc{Pod: uint16(s.Pod), Pos: ldp.PosUnknown}
		switch s.Level {
		case topo.Edge:
			l.Level, l.Pos = ctrlmsg.LevelEdge, uint8(s.Position)
		case topo.Aggregation:
			l.Level = ctrlmsg.LevelAggregation
		case topo.Core:
			l.Level, l.Pod = ctrlmsg.LevelCore, pmac.CorePod
		}
		f.ids = append(f.ids, sid(n))
		f.loc[sid(n)] = l
		if s.Level != topo.Core {
			f.pods[s.Pod] = append(f.pods[s.Pod], sid(n))
		}
	}
	for _, ls := range spec.Links {
		a, b := ls.A, ls.B
		if spec.Nodes[a.Node].Level == topo.Host || spec.Nodes[b.Node].Level == topo.Host {
			continue
		}
		f.adjacency = append(f.adjacency,
			ctrlmsg.FaultNotify{Switch: sid(a.Node), Port: uint8(a.Port), PeerID: sid(b.Node), PeerLoc: f.loc[sid(b.Node)], LocalLoc: f.loc[sid(a.Node)]},
			ctrlmsg.FaultNotify{Switch: sid(b.Node), Port: uint8(b.Port), PeerID: sid(a.Node), PeerLoc: f.loc[sid(a.Node)], LocalLoc: f.loc[sid(b.Node)]})
	}
	return f
}

// boot replays the whole feed into a fresh manager — Hello, location,
// then every adjacency report — and returns each switch's session.
func (f *fatTreeFeed) boot(conn ctrlnet.Conn) (*Manager, map[ctrlmsg.SwitchID]*Session) {
	m := New()
	sess := map[ctrlmsg.SwitchID]*Session{}
	for _, id := range f.ids {
		sess[id] = m.NewSession(conn)
		sess[id].Handle(ctrlmsg.Hello{Switch: id})
		sess[id].Handle(ctrlmsg.LocationReport{Switch: id, Loc: f.loc[id]})
	}
	for _, adj := range f.adjacency {
		sess[adj.Switch].Handle(adj)
	}
	return m, sess
}

// link returns the two ends' reports of the first link between a
// switch at level lo and one at level hi.
func (f *fatTreeFeed) link(lo, hi uint8) [2]ctrlmsg.FaultNotify {
	for i := 0; i < len(f.adjacency); i += 2 {
		if a := f.adjacency[i]; a.LocalLoc.Level == lo && a.PeerLoc.Level == hi {
			return [2]ctrlmsg.FaultNotify{a, f.adjacency[i+1]}
		}
	}
	panic("no such link")
}

// draws is the oracle schedule's source of decisions: a seeded RNG for
// the test, the fuzzer's bytes for the fuzz target.
type draws struct {
	rng  *rand.Rand
	data []byte
}

func (d *draws) intn(n int) int {
	if d.rng != nil {
		return d.rng.Intn(n)
	}
	v := 0
	for bytes := 1 + n/257; bytes > 0 && len(d.data) > 0; bytes-- {
		v = v<<8 | int(d.data[0])
		d.data = d.data[1:]
	}
	return v % n
}

func (d *draws) chance(percent int) bool { return d.intn(100) < percent }

func (d *draws) exhausted() bool { return d.rng == nil && len(d.data) == 0 }

// oracle drives a Manager and the reference derivation with one
// message schedule and compares them after every message.
type oracle struct {
	tb   testing.TB
	d    *draws
	feed *fatTreeFeed
	m    *Manager
	ref  *refManager
	sess map[ctrlmsg.SwitchID]*Session
	// truth is the location each switch currently reports; the feed's
	// is where it returns to.
	truth map[ctrlmsg.SwitchID]ctrlmsg.Loc
	log   []sentExclude // RouteExcludes the manager sent for this message
	last  ctrlmsg.Msg
	step  int
	// got and want are compare's reusable registry reads.
	got, want registry
}

// logConn records the RouteExcludes sent to one switch in the
// oracle's fabric-wide log.
type logConn struct {
	o  *oracle
	id ctrlmsg.SwitchID
}

func (c logConn) Send(m ctrlmsg.Msg) error {
	if re, ok := m.(ctrlmsg.RouteExclude); ok {
		c.o.log = append(c.o.log, sentExclude{c.id, re})
	}
	return nil
}

func newOracle(tb testing.TB, k int, d *draws) *oracle {
	o := &oracle{tb: tb, d: d, feed: newFatTreeFeed(tb, k), m: New(), ref: newRefManager(),
		sess: map[ctrlmsg.SwitchID]*Session{}, truth: map[ctrlmsg.SwitchID]ctrlmsg.Loc{}}
	for id, l := range o.feed.loc {
		o.truth[id] = l
	}
	return o
}

// deliver hands one message from a switch to both managers and
// compares everything observable.
func (o *oracle) deliver(from ctrlmsg.SwitchID, msg ctrlmsg.Msg) {
	o.tb.Helper()
	s := o.sess[from]
	if s == nil {
		s = o.m.NewSession(logConn{o, from})
		o.sess[from] = s
	}
	_, isHello := msg.(ctrlmsg.Hello)
	bound := o.ref.conns[from] || isHello
	o.log, o.ref.sent = o.log[:0], o.ref.sent[:0]
	s.Handle(msg)
	if _, isJoin := msg.(ctrlmsg.McastJoin); bound && !isJoin {
		// A session ignores everything before its Hello, and the
		// reference knows nothing of multicast.
		o.ref.handle(msg)
	}
	o.last = msg
	o.step++
	o.compare(msg)
}

// compare holds the manager to the reference after msg. The registries
// are compared as values, and printed only on a mismatch.
func (o *oracle) compare(msg ctrlmsg.Msg) {
	o.tb.Helper()
	if !slices.Equal(o.log, o.ref.sent) {
		o.tb.Fatalf("step %d %T%+v: RouteExcludes sent\n got  %v\n want %v", o.step, msg, msg, o.log, o.ref.sent)
	}
	if got, want := o.m.Stats.ExclusionsSet, o.ref.exclusionsSet; got != want {
		o.tb.Fatalf("step %d %T%+v: ExclusionsSet %d, reference %d", o.step, msg, msg, got, want)
	}
	o.got.ofManager(o.m)
	o.want.ofReference(o.ref)
	if o.got.equal(&o.want) {
		return
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(o.m.Snapshot(), "\n") {
		if !strings.HasPrefix(line, "group ") {
			got.WriteString(line)
		}
	}
	o.tb.Fatalf("step %d %T%+v: snapshot\n--- got\n%s--- want\n%s", o.step, msg, msg, got.String(), o.ref.snapshot())
}

// hello binds id's session if it is not bound yet.
func (o *oracle) hello(id ctrlmsg.SwitchID) {
	if !o.ref.conns[id] {
		o.deliver(id, ctrlmsg.Hello{Switch: id})
	}
}

// report sends from's view of its link to peer: down or up, each
// location as that switch now reports it.
func (o *oracle) report(from, peer ctrlmsg.SwitchID, port uint8, down bool) {
	o.hello(from)
	fn := ctrlmsg.FaultNotify{Switch: from, Port: port, Down: down, PeerID: peer, PeerLoc: o.truth[peer], LocalLoc: o.truth[from]}
	if o.d.chance(10) {
		fn.PeerLoc = ctrlmsg.Loc{} // the neighbor has not said who it is yet
	}
	if o.d.chance(5) {
		fn.Port++ // recabled
	}
	o.deliver(from, fn)
}

// reportLink sends the view one end of the blueprint's link i has.
func (o *oracle) reportLink(i, end int, down bool) {
	a := o.feed.adjacency[2*i+end]
	o.report(a.Switch, a.PeerID, a.Port, down)
}

func (o *oracle) locate(id ctrlmsg.SwitchID, l ctrlmsg.Loc) {
	o.hello(id)
	o.truth[id] = l
	o.deliver(id, ctrlmsg.LocationReport{Switch: id, Loc: l})
}

// unlocated is what a rebooted switch reports before LDP resolves it.
var unlocated = ctrlmsg.Loc{Level: ctrlmsg.LevelUnknown, Pod: ldp.PodUnknown, Pos: ldp.PosUnknown}

// boot feeds the fabric's start-up reports; some switches say Hello
// late and some links are held back, or first seen down, when ragged.
func (o *oracle) boot(ragged bool) {
	for _, id := range o.feed.ids {
		if !ragged || o.d.chance(75) {
			o.locate(id, o.feed.loc[id])
		}
	}
	for i := 0; i < len(o.feed.adjacency)/2; i++ {
		for end := 0; end < 2; end++ {
			if from := o.feed.adjacency[2*i+end].Switch; !ragged || (o.ref.conns[from] && o.d.chance(80)) {
				o.reportLink(i, end, ragged && o.d.chance(5))
			}
		}
	}
}

// heal brings up one link the reference holds down — a drawn one, or
// the first — from every end that reported it down, and reports
// whether there was one.
func (o *oracle) heal(drawn bool) bool {
	var down []pairKey
	for k, l := range o.ref.links {
		if !l.up() {
			down = append(down, k)
		}
	}
	if len(down) == 0 {
		return false
	}
	slices.SortFunc(down, func(a, b pairKey) int {
		return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi))
	})
	l := o.ref.links[down[0]]
	if drawn {
		l = o.ref.links[down[o.d.intn(len(down))]]
	}
	if !l.loUp {
		o.report(l.lo, l.hi, uint8(l.loPort), false)
	}
	if !l.hiUp {
		o.report(l.hi, l.lo, uint8(l.hiPort), false)
	}
	return true
}

// next plays one randomly drawn event, which may be several messages.
func (o *oracle) next() {
	nLinks := len(o.feed.adjacency) / 2
	anyID := func() ctrlmsg.SwitchID { return o.feed.ids[o.d.intn(len(o.feed.ids))] }
	switch op := o.d.intn(100); {
	case op < 25: // one end reports
		o.reportLink(o.d.intn(nLinks), o.d.intn(2), o.d.chance(40))
	case op < 45: // both ends report the same
		i, down := o.d.intn(nLinks), o.d.chance(40)
		o.reportLink(i, 0, down)
		o.reportLink(i, 1, down)
	case op < 63: // a down link heals
		o.heal(true)
	case op < 68: // duplicate delivery
		if fn, ok := o.last.(ctrlmsg.FaultNotify); ok {
			o.deliver(fn.Switch, fn)
		}
	case op < 78: // a switch reports a location
		id := anyID()
		l := o.truth[id]
		switch o.d.intn(6) {
		case 0:
			l.Level = uint8(o.d.intn(4))
		case 1:
			l.Pod = uint16(o.d.intn(o.feed.k + 1))
		case 2:
			l.Pos = uint8(o.d.intn(o.feed.k/2 + 1))
		case 3:
			l = unlocated
		case 4:
			l = o.feed.loc[id]
		}
		o.locate(id, l)
	case op < 81: // a late Hello
		o.hello(anyID())
	case op < 82: // a pod power-cycles
		o.powerCycle(o.d.intn(o.feed.k))
	case op < 84: // everything heals: back to the healthy fast path
		for o.heal(false) {
		}
	case op < 87: // a report about a switch outside the fabric
		o.report(anyID(), ctrlmsg.SwitchID(9000+o.d.intn(3)), 200, o.d.chance(50))
	default: // multicast membership moves: every later fault rebuilds
		// the trees on the same graph, which must not disturb exclusions
		id := anyID()
		o.hello(id)
		l := o.truth[id]
		host := pmac.PMAC{Pod: l.Pod, Position: l.Pos, Port: uint8(o.d.intn(2)), VMID: 1}.Addr()
		o.deliver(id, ctrlmsg.McastJoin{Switch: id, Group: uint32(1 + o.d.intn(3)), HostPMAC: host, Join: o.d.chance(75), Source: o.d.chance(30)})
	}
}

// powerCycle is -exp sc's pod power event as the manager sees it: the
// cores report the pod's uplinks dead, then the pod's switches come
// back blank, re-resolve and re-report their links.
func (o *oracle) powerCycle(pod int) {
	in := func(id ctrlmsg.SwitchID) bool { return slices.Contains(o.feed.pods[pod], id) }
	for i := 0; i < len(o.feed.adjacency)/2; i++ {
		if a, b := o.feed.adjacency[2*i], o.feed.adjacency[2*i+1]; in(a.Switch) && !in(b.Switch) {
			o.reportLink(i, 1, true)
		}
	}
	for _, id := range o.feed.pods[pod] {
		o.locate(id, unlocated)
	}
	for _, id := range o.feed.pods[pod] {
		home := o.feed.loc[id]
		o.locate(id, ctrlmsg.Loc{Level: home.Level, Pod: ldp.PodUnknown, Pos: ldp.PosUnknown})
		if o.d.chance(50) {
			o.locate(id, ctrlmsg.Loc{Level: home.Level, Pod: home.Pod, Pos: ldp.PosUnknown})
		}
		o.locate(id, home)
	}
	for i := 0; i < len(o.feed.adjacency)/2; i++ {
		if a := o.feed.adjacency[2*i]; in(a.Switch) && o.d.chance(90) {
			o.reportLink(i, 0, false)
			o.reportLink(i, 1, false)
		}
	}
}

// TestExclusionsMatchReference holds the incremental exclusion
// maintenance to the full-fabric reference derivation over seeded
// schedules of faults, late Hellos, relocations, pod power cycles and
// multicast churn: same RouteExcludes in the same order, same snapshot, same
// exclusion count, after every single message. The k=8 schedules are
// two thirds of its run time and are skipped under -short.
func TestExclusionsMatchReference(t *testing.T) {
	degrees := []int{4, 6, 8}
	if testing.Short() {
		degrees = degrees[:2]
	}
	for _, k := range degrees {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("k=%d/seed=%d", k, seed), func(t *testing.T) {
				o := newOracle(t, k, &draws{rng: rand.New(rand.NewSource(seed))})
				o.boot(seed != 1)
				for booted := o.step; o.step < booted+2000; {
					o.next()
				}
				if o.m.Stats.ExclusionsSet == 0 {
					t.Fatal("the schedule set no exclusion")
				}
			})
		}
	}
}

// FuzzExclusionSchedule is the same driver steered by the fuzzer's
// bytes on a k=4 fabric.
func FuzzExclusionSchedule(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x01ragged boot, then whatever these bytes happen to draw"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		o := newOracle(t, 4, &draws{data: data[1:]})
		o.boot(data[0]&1 != 0)
		for !o.d.exhausted() && o.step < 1500 {
			o.next()
		}
	})
}
