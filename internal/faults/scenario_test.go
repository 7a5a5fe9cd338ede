package faults

import (
	"math/rand/v2"
	"testing"
	"time"

	"portland/internal/core"
	"portland/internal/obs"
	"portland/internal/topo"
)

func kinds(f *core.Fabric, k obs.Kind) []obs.Event {
	var out []obs.Event
	for _, e := range f.FabricJournal().Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestOverlappingEventsRefcount pins the refcounted Apply: when two
// events hold the same link and switch, the earlier recovery must not
// resurrect them while the later event still holds.
func TestOverlappingEventsRefcount(t *testing.T) {
	f := build(t)
	li := SwitchLinks(f.Spec)[0]
	var sw topo.NodeID = -1
	for _, n := range f.Spec.Nodes {
		if n.Name == "agg-p1-s0" {
			sw = n.ID
		}
	}
	Schedule{Events: []Event{
		{At: 100 * time.Millisecond, Duration: 300 * time.Millisecond,
			Links: []int{li}, Switches: []topo.NodeID{sw}},
		{At: 150 * time.Millisecond, Duration: 100 * time.Millisecond, // recovers at 250ms
			Links: []int{li}, Switches: []topo.NodeID{sw}},
	}}.Apply(f)

	f.RunFor(300 * time.Millisecond) // t=300ms: second event recovered, first still holds
	if f.Links[li].Up() {
		t.Fatal("early recovery resurrected a link another event still holds")
	}
	if !f.Switches[sw].Failed() {
		t.Fatal("early recovery resurrected a switch another event still holds")
	}
	f.RunFor(150 * time.Millisecond) // t=450ms: last holder released at 400ms
	if !f.Links[li].Up() {
		t.Fatal("link down after last holder released")
	}
	if f.Switches[sw].Failed() {
		t.Fatal("switch dead after last holder released")
	}
	// Exactly one LinkFailed / LinkRestored pair despite two holders.
	if n := len(kinds(f, obs.LinkFailed)); n != 1 {
		t.Fatalf("%d LinkFailed events, want 1", n)
	}
	if n := len(kinds(f, obs.LinkRestored)); n != 1 {
		t.Fatalf("%d LinkRestored events, want 1", n)
	}
}

// TestOverlappingGrayRefcount: overlapping gray holds on one link clear
// only when the last holder recovers.
func TestOverlappingGrayRefcount(t *testing.T) {
	f := build(t)
	li := SwitchLinks(f.Spec)[3]
	Schedule{Events: []Event{
		{At: 10 * time.Millisecond, Duration: 300 * time.Millisecond,
			Gray: []GrayLink{{Link: li, RateToA: 0.2, RateToB: 0.2}}},
		{At: 50 * time.Millisecond, Duration: 50 * time.Millisecond,
			Gray: []GrayLink{{Link: li, RateToA: 0.4, RateToB: 0.4}}},
	}}.Apply(f)
	f.RunFor(150 * time.Millisecond) // second event cleared at 100ms
	if a, b := f.Links[li].GrayLoss(); a == 0 || b == 0 {
		t.Fatal("early gray recovery cleared a link another event still holds")
	}
	f.RunFor(200 * time.Millisecond) // first cleared at 310ms
	if a, b := f.Links[li].GrayLoss(); a != 0 || b != 0 {
		t.Fatalf("gray loss %v/%v after last holder released", a, b)
	}
}

// TestApplyEmitsObsEvents pins satellite 2: every fail/recover action
// journals itself — FaultApplied/FaultRecovered at the schedule level
// plus the individual transitions — with no OnFail/OnRecover wiring.
func TestApplyEmitsObsEvents(t *testing.T) {
	f := build(t)
	li := SwitchLinks(f.Spec)[0]
	Schedule{Events: []Event{
		{At: 20 * time.Millisecond, Duration: 30 * time.Millisecond, Links: []int{li}},
		{At: 30 * time.Millisecond, Duration: 30 * time.Millisecond, Manager: true},
	}}.Apply(f)
	f.RunFor(100 * time.Millisecond)

	applied := kinds(f, obs.FaultApplied)
	recovered := kinds(f, obs.FaultRecovered)
	if len(applied) != 2 || len(recovered) != 2 {
		t.Fatalf("FaultApplied/FaultRecovered %d/%d, want 2/2", len(applied), len(recovered))
	}
	if applied[0].A != 0 || applied[0].B != 1 || applied[0].D != 0 {
		t.Fatalf("event 0 journal args %+v", applied[0])
	}
	if applied[1].A != 1 || applied[1].D != 1 {
		t.Fatalf("manager event journal args %+v", applied[1])
	}
	if len(kinds(f, obs.LinkFailed)) != 1 || len(kinds(f, obs.LinkRestored)) != 1 {
		t.Fatal("link transitions not journaled by Apply")
	}
	if len(kinds(f, obs.MgrKilled)) != 1 {
		t.Fatal("manager kill not journaled")
	}
}

// TestScenarioBracketAndFlapJournal: a generated flap scenario journals
// ScenarioStart, one FlapDown/FlapUp pair per cycle per link, and
// ScenarioEnd, in order.
func TestScenarioBracketAndFlapJournal(t *testing.T) {
	f := build(t)
	r := rand.New(rand.NewPCG(42, 42))
	sc, ok := Flap(r, f, FlapConfig{
		Links: 2, Cycles: 3,
		Down: 20 * time.Millisecond, Up: 30 * time.Millisecond,
		Start: 10 * time.Millisecond,
	})
	if !ok {
		t.Fatal("flap generator failed on a healthy k=4 fabric")
	}
	if err := sc.Schedule.Validate(true); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	base := f.Now()
	sc.Apply(f)
	f.RunFor(300 * time.Millisecond)

	starts, ends := kinds(f, obs.ScenarioStart), kinds(f, obs.ScenarioEnd)
	if len(starts) != 1 || len(ends) != 1 {
		t.Fatalf("scenario bracket %d/%d, want 1/1", len(starts), len(ends))
	}
	if Tag(starts[0].A) != TagFlap || starts[0].B != 3 {
		t.Fatalf("ScenarioStart args %+v", starts[0])
	}
	if down := kinds(f, obs.FlapDown); len(down) != 6 { // 2 links × 3 cycles
		t.Fatalf("%d FlapDown events, want 6", len(down))
	}
	if up := kinds(f, obs.FlapUp); len(up) != 6 {
		t.Fatalf("%d FlapUp events, want 6", len(up))
	}
	if starts[0].At != base+10*time.Millisecond {
		t.Fatalf("ScenarioStart at %v, want %v", starts[0].At, base+10*time.Millisecond)
	}
	// End = last recovery: Start + 2 full cycles + Down of the last.
	if want := base + 10*time.Millisecond + 2*50*time.Millisecond + 20*time.Millisecond; ends[0].At != want {
		t.Fatalf("ScenarioEnd at %v, want %v", ends[0].At, want)
	}
}

// TestPodPowerCorrelated: the pod-power generator takes down every
// edge and aggregation switch of exactly one pod, together.
func TestPodPowerCorrelated(t *testing.T) {
	f := build(t)
	r := rand.New(rand.NewPCG(7, 7))
	sc, ok := PodPower(r, f, PodPowerConfig{Start: 10 * time.Millisecond, Outage: 50 * time.Millisecond})
	if !ok {
		t.Fatal("pod-power generator failed")
	}
	if len(sc.Schedule.Events) != 1 {
		t.Fatalf("%d events, want 1 (correlated)", len(sc.Schedule.Events))
	}
	sws := sc.Schedule.Events[0].Switches
	if len(sws) != 4 { // k=4: 2 edge + 2 agg per pod
		t.Fatalf("%d switches in pod event, want 4", len(sws))
	}
	pod := f.Spec.Nodes[sws[0]].Pod
	for _, id := range sws {
		if f.Spec.Nodes[id].Pod != pod {
			t.Fatal("pod-power event spans pods")
		}
	}
	sc.Apply(f)
	f.RunFor(30 * time.Millisecond)
	for _, id := range sws {
		if !f.Switches[id].Failed() {
			t.Fatal("pod switch alive mid-outage")
		}
	}
	f.RunFor(100 * time.Millisecond)
	for _, id := range sws {
		if f.Switches[id].Failed() {
			t.Fatal("pod switch dead after outage")
		}
	}
}

// TestRollingUpgradeStagger: reboots are disjoint in time when the
// stagger exceeds the outage, and never touch edge switches.
func TestRollingUpgradeStagger(t *testing.T) {
	f := build(t)
	r := rand.New(rand.NewPCG(7, 7))
	sc, ok := RollingUpgrade(r, f, RollingConfig{
		Count: 4, Stagger: 50 * time.Millisecond, Down: 30 * time.Millisecond,
		Start: 10 * time.Millisecond,
	})
	if !ok {
		t.Fatal("rolling generator failed")
	}
	evs := sc.Schedule.Events
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	seen := map[topo.NodeID]bool{}
	for i, e := range evs {
		if len(e.Switches) != 1 {
			t.Fatalf("event %d reboots %d switches, want 1", i, len(e.Switches))
		}
		id := e.Switches[0]
		if seen[id] {
			t.Fatal("switch rebooted twice in one wave")
		}
		seen[id] = true
		if lvl := f.Spec.Nodes[id].Level; lvl == topo.Edge || lvl == topo.Host {
			t.Fatalf("rolling wave touched a %v switch", lvl)
		}
		if want := 10*time.Millisecond + time.Duration(i)*50*time.Millisecond; e.At != want {
			t.Fatalf("event %d at %v, want %v", i, e.At, want)
		}
		if i > 0 && evs[i-1].At+evs[i-1].Duration > e.At {
			t.Fatal("staggered reboots overlap")
		}
	}
}

// TestGeneratorsDeterministic: same seed, same blueprint → identical
// scenarios; different seed → (for these configs) different picks.
func TestGeneratorsDeterministic(t *testing.T) {
	gen := func(seed uint64) (Scenario, Scenario) {
		f := build(t)
		r := rand.New(rand.NewPCG(seed, seed))
		g, ok := Gray(r, f, GrayConfig{Links: 3, Rate: 0.3, Start: time.Millisecond, Duration: time.Second})
		if !ok {
			t.Fatal("gray generator failed")
		}
		ru, ok := RollingUpgrade(r, f, RollingConfig{Count: 3, Stagger: 10 * time.Millisecond, Down: 5 * time.Millisecond})
		if !ok {
			t.Fatal("rolling generator failed")
		}
		return g, ru
	}
	g1, r1 := gen(99)
	g2, r2 := gen(99)
	for i, e := range g1.Schedule.Events[0].Gray {
		if e != g2.Schedule.Events[0].Gray[i] {
			t.Fatal("gray generator not deterministic")
		}
	}
	for i, e := range r1.Schedule.Events {
		if e.Switches[0] != r2.Schedule.Events[i].Switches[0] {
			t.Fatal("rolling generator not deterministic")
		}
	}
	g3, _ := gen(100)
	same := true
	for i, e := range g1.Schedule.Events[0].Gray {
		if e.Link != g3.Schedule.Events[0].Gray[i].Link {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical gray picks (suspicious)")
	}
}

// TestARPStormGenerator: VMs boot on one rack and every migration
// target is outside it; detach precedes attach by Pause.
func TestARPStormGenerator(t *testing.T) {
	f := build(t)
	r := rand.New(rand.NewPCG(5, 5))
	sc, ok := ARPStorm(r, f, StormConfig{
		VMs: 4, Gap: 20 * time.Millisecond, Pause: 5 * time.Millisecond,
		Start: 10 * time.Millisecond,
	})
	if !ok {
		t.Fatal("storm generator failed")
	}
	if len(sc.Schedule.Events) != 8 { // detach+attach per VM
		t.Fatalf("%d events, want 8", len(sc.Schedule.Events))
	}
	for i := 0; i < 4; i++ {
		det, att := sc.Schedule.Events[2*i], sc.Schedule.Events[2*i+1]
		if len(det.Detach) != 1 || len(att.Attach) != 1 {
			t.Fatalf("VM %d: malformed event pair", i)
		}
		if att.At-det.At != 5*time.Millisecond {
			t.Fatalf("VM %d: pause %v", i, att.At-det.At)
		}
		vm := det.Detach[0]
		if vm.Host() == nil {
			t.Fatalf("VM %d not attached at generation time", i)
		}
		if vm.Host() == att.Attach[0].To {
			t.Fatalf("VM %d migrates to its own host", i)
		}
	}
	// Run it: migrations must actually register at the manager.
	sc.Apply(f)
	f.RunFor(500 * time.Millisecond)
	if f.Manager.Stats.Migrations < 4 {
		t.Fatalf("manager saw %d migrations, want >= 4", f.Manager.Stats.Migrations)
	}
}

// TestValidateRejects pins Validate's error cases.
func TestValidateRejects(t *testing.T) {
	cases := []Schedule{
		{Events: []Event{{At: -time.Second}}},
		{Events: []Event{{Duration: -time.Second}}},
		{Events: []Event{{Links: []int{-1}, Duration: time.Second}}},
		{Events: []Event{{Gray: []GrayLink{{Link: 0, RateToA: 1.5}}, Duration: time.Second}}},
		{Events: []Event{{Gray: []GrayLink{{Link: -2}}, Duration: time.Second}}},
	}
	for i, s := range cases {
		if err := s.Validate(false); err == nil {
			t.Fatalf("case %d: invalid schedule accepted", i)
		}
	}
	perm := Schedule{Events: []Event{{Links: []int{0}}}}
	if err := perm.Validate(false); err != nil {
		t.Fatalf("permanent fault rejected without requireRecovery: %v", err)
	}
	if err := perm.Validate(true); err == nil {
		t.Fatal("permanent fault accepted with requireRecovery")
	}
}

// RefcountBalance simulates Apply's bookkeeping without a fabric and
// returns the hold counts left outstanding after every event has fired
// and recovered: all zeros iff every fault-holding event recovers.
// The fuzz harness asserts this for every generated scenario.
func (s Schedule) RefcountBalance() (links map[int]int, switches map[topo.NodeID]int, manager int) {
	links = make(map[int]int)
	switches = make(map[topo.NodeID]int)
	for _, e := range s.Events {
		n := 1
		if e.Duration > 0 {
			n = 0
		}
		for _, li := range e.Links {
			links[li] += n
		}
		for _, g := range e.Gray {
			links[g.Link] += n
		}
		for _, id := range e.Switches {
			switches[id] += n
		}
		if e.Manager {
			manager += n
		}
	}
	for k, v := range links {
		if v == 0 {
			delete(links, k)
		}
	}
	for k, v := range switches {
		if v == 0 {
			delete(switches, k)
		}
	}
	return links, switches, manager
}

// TestRefcountBalance pins the bookkeeping simulator.
func TestRefcountBalance(t *testing.T) {
	s := Schedule{Events: []Event{
		{Links: []int{1, 2}, Duration: time.Second},
		{Links: []int{2}, Manager: true}, // permanent
		{Gray: []GrayLink{{Link: 3}}, Duration: time.Second},
	}}
	links, sws, mgr := s.RefcountBalance()
	if links[1] != 0 || links[2] != 1 || links[3] != 0 || len(sws) != 0 || mgr != 1 {
		t.Fatalf("balance links=%v switches=%v mgr=%d", links, sws, mgr)
	}
}
