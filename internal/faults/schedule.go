package faults

import (
	"fmt"
	"time"

	"portland/internal/core"
	"portland/internal/host"
	"portland/internal/obs"
	"portland/internal/topo"
)

// GrayLink injects per-direction gray loss on one blueprint link: the
// link stays administratively up and keeps passing LDP keepalives, but
// each direction silently drops the given fraction of data frames.
// Rates follow the blueprint endpoint order (RateToA toward the link's
// first endpoint).
type GrayLink struct {
	Link    int
	RateToA float64
	RateToB float64
}

// VMAttach is a VM arrival: attach VM to host To, which announces it
// with a gratuitous ARP (the migration-storm primitive).
type VMAttach struct {
	VM *host.Endpoint
	To *host.Host
}

// Event is one scheduled fault: the named links and/or switches fail,
// the listed gray failures switch on (and the fabric manager dies, if
// Manager is set) At after the schedule is applied; a positive
// Duration recovers everything Duration later. A zero Duration makes
// the fault permanent. Detach/Attach fire once, at At — VM migration
// is one-way and has nothing to recover.
type Event struct {
	At       time.Duration
	Duration time.Duration
	Links    []int         // blueprint link indices to fail
	Switches []topo.NodeID // switches to crash
	Manager  bool          // kill the fabric manager (recovery = restart + resync)
	Gray     []GrayLink    // gray failures to inject (cleared at recovery)
	Detach   []*host.Endpoint
	Attach   []VMAttach

	// Flap marks this event as one hysteresis cycle of a flapping
	// link; Apply then journals FlapDown/FlapUp (with Cycle) instead
	// of leaving the transitions indistinguishable from independent
	// failures.
	Flap  bool
	Cycle int

	// Optional instrumentation hooks, run in the simulation event
	// that performs the action, after it completes. OnRecover of a
	// Manager event runs after RestartManager, so f.Manager is
	// already the fresh instance — the place to hang SetOnSyncDone.
	OnFail    func()
	OnRecover func()
}

// Schedule is a reproducible fault scenario: the same event list the
// convergence experiments (Figure 9 and its switch-failure variant,
// the manager-failover sweep, the scenario engine) all consume,
// instead of each hand-rolling its own fail/restore timing.
type Schedule struct {
	Events []Event
}

// applyState is one Apply call's refcount domain. Overlapping events
// may hold the same link, switch, manager or gray injection down;
// only the first holder performs the action and only the last
// departing holder undoes it, so an early recovery can never resurrect
// a resource another event still holds.
type applyState struct {
	f     *core.Fabric
	links map[int]int
	sws   map[topo.NodeID]int
	grays map[int]int
	mgr   int
}

func (st *applyState) fail(ev Event) {
	for _, li := range ev.Links {
		st.links[li]++
		if st.links[li] == 1 {
			st.f.FailLink(li)
		}
	}
	for _, id := range ev.Switches {
		st.sws[id]++
		if st.sws[id] == 1 {
			st.f.Switches[id].Fail()
		}
	}
	for _, g := range ev.Gray {
		st.grays[g.Link]++
		// Rates are last-write-wins under overlap; the clear waits for
		// the final holder regardless.
		st.f.SetGrayLoss(g.Link, g.RateToA, g.RateToB)
	}
	if ev.Manager {
		st.mgr++
		if st.mgr == 1 {
			st.f.KillManager()
		}
	}
	for _, ep := range ev.Detach {
		if h := ep.Host(); h != nil {
			h.DetachVM(ep)
		}
	}
	for _, at := range ev.Attach {
		at.To.AttachVM(at.VM)
	}
}

func (st *applyState) recover(ev Event) {
	for _, li := range ev.Links {
		st.links[li]--
		if st.links[li] == 0 {
			st.f.RestoreLink(li)
		}
	}
	for _, id := range ev.Switches {
		st.sws[id]--
		if st.sws[id] == 0 {
			st.f.Switches[id].Recover()
		}
	}
	for _, g := range ev.Gray {
		st.grays[g.Link]--
		if st.grays[g.Link] == 0 {
			st.f.SetGrayLoss(g.Link, 0, 0)
		}
	}
	if ev.Manager {
		st.mgr--
		if st.mgr == 0 {
			st.f.RestartManager()
		}
	}
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Apply arms every event on the fabric's engine, relative to now.
// The engine must subsequently run (RunFor/RunUntil) past the event
// times for the faults to take effect. Every fail/recover action is
// journaled into the fabric journal (FaultApplied/FaultRecovered at
// the schedule level; the individual link/switch/manager transitions
// journal themselves), so fault timelines need no hand-wired hooks.
// All events of one Apply share a refcount domain: overlapping holds
// on the same resource release only when the last holder recovers.
func (s Schedule) Apply(f *core.Fabric) {
	st := &applyState{
		f:     f,
		links: make(map[int]int),
		sws:   make(map[topo.NodeID]int),
		grays: make(map[int]int),
	}
	j := f.FabricJournal()
	for i, e := range s.Events {
		i, ev := i, e
		f.Sched().Schedule(ev.At, func() {
			st.fail(ev)
			j.Record(obs.FaultApplied, uint64(i), uint64(len(ev.Links)), uint64(len(ev.Switches)), b2u(ev.Manager))
			if ev.Flap {
				for _, li := range ev.Links {
					j.Record(obs.FlapDown, uint64(li), uint64(ev.Cycle), 0, 0)
				}
			}
			if ev.OnFail != nil {
				ev.OnFail()
			}
		})
		if ev.Duration <= 0 {
			continue
		}
		f.Sched().Schedule(ev.At+ev.Duration, func() {
			st.recover(ev)
			j.Record(obs.FaultRecovered, uint64(i), uint64(len(ev.Links)), uint64(len(ev.Switches)), b2u(ev.Manager))
			if ev.Flap {
				for _, li := range ev.Links {
					j.Record(obs.FlapUp, uint64(li), uint64(ev.Cycle), 0, 0)
				}
			}
			if ev.OnRecover != nil {
				ev.OnRecover()
			}
		})
	}
}

// faulty reports whether the event holds anything that a recovery
// would have to release (VM moves are one-way and excluded).
func (e Event) faulty() bool {
	return len(e.Links) > 0 || len(e.Switches) > 0 || len(e.Gray) > 0 || e.Manager
}

// Span returns the window the schedule is active over: the earliest
// event time and the latest fail-or-recover instant.
func (s Schedule) Span() (start, end time.Duration) {
	first := true
	for _, e := range s.Events {
		last := e.At
		if e.Duration > 0 {
			last += e.Duration
		}
		if first || e.At < start {
			start = e.At
		}
		if first || last > end {
			end = last
		}
		first = false
	}
	return start, end
}

// Validate checks the schedule's structural invariants: no negative
// times, no overflowing recovery instants, gray rates within [0,1],
// non-negative link indices, and — when requireRecovery is set — that
// every fault-holding event recovers (Duration > 0), which is exactly
// the condition under which Apply's refcounts return to zero.
func (s Schedule) Validate(requireRecovery bool) error {
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("event %d: negative At %v", i, e.At)
		}
		if e.Duration < 0 {
			return fmt.Errorf("event %d: negative Duration %v", i, e.Duration)
		}
		if e.Duration > 0 && e.At+e.Duration < e.At {
			return fmt.Errorf("event %d: recovery instant overflows (At %v + Duration %v)", i, e.At, e.Duration)
		}
		for _, li := range e.Links {
			if li < 0 {
				return fmt.Errorf("event %d: negative link index %d", i, li)
			}
		}
		for _, g := range e.Gray {
			if g.Link < 0 {
				return fmt.Errorf("event %d: negative gray link index %d", i, g.Link)
			}
			if g.RateToA < 0 || g.RateToA > 1 || g.RateToB < 0 || g.RateToB > 1 {
				return fmt.Errorf("event %d: gray rate out of [0,1] on link %d", i, g.Link)
			}
		}
		if requireRecovery && e.faulty() && e.Duration <= 0 {
			return fmt.Errorf("event %d: permanent fault in a recovering schedule", i)
		}
	}
	return nil
}
