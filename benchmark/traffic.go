package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"portland/internal/core"
	"portland/internal/faults"
	wl "portland/internal/workload"
)

// --- flow-setup-k16 --------------------------------------------------

const (
	flowSetupWindow = 500 * time.Millisecond
	flowSetupDrain  = 300 * time.Millisecond
)

// traceConfig is the repo's million-flow gate shape (core's traceCfg)
// at this workload's size: heavy-tailed one-to-three packet flows of
// 64-byte payloads in 256 Poisson bursts, 80% of them crossing pods,
// so that almost every packet is a first packet.
func traceConfig(seed uint64, flows int) wl.TraceConfig {
	return wl.TraceConfig{
		Seed:         seed,
		Flows:        flows,
		Arrivals:     wl.Arrivals{Window: flowSetupWindow, Bursts: 256, Spread: 2 * time.Millisecond},
		Size:         wl.Pareto{Alpha: 1.2, Min: 1, Max: 3},
		Locality:     wl.LocalityMix{IntraRack: 0.05, IntraPod: 0.15},
		PacketGap:    100 * time.Microsecond,
		PayloadBytes: 64,
		BasePort:     30000,
		DstPorts:     8,
	}
}

type flowSetupState struct {
	f     *core.Fabric
	flows int
	tr    *wl.Trace
}

func (s *flowSetupState) counts() map[string]float64 {
	c := fabricCounts(s.f)
	if s.tr != nil { // the trace starts inside the timed region
		c["host.packets_sent"] = float64(s.tr.Sent())
		c["host.packets_delivered"] = float64(s.tr.Delivered())
	}
	return c
}

// timed samples the trace, starts it and runs it to completion.
func (s *flowSetupState) timed(r *rep) {
	r.tr.begin("workload.sample_s")
	place := wl.NewPlacement(s.f.Spec)
	s.tr = wl.StartTrace(traceConfig(r.seed, s.flows), place, s.f.HostList())
	r.tr.end()
	r.runUntil(s.f.Dom, s.f.Dom.Now()+flowSetupWindow+flowSetupDrain)
}

func (s *flowSetupState) check(r *rep) {
	var scheduled int64
	for _, sp := range s.tr.Specs {
		scheduled += int64(sp.Packets)
	}
	r.attempted += scheduled
	if lost := scheduled - s.tr.Delivered(); lost != 0 {
		r.fail(lost, "%d of %d scheduled packets not delivered (%d sent)", lost, scheduled, s.tr.Sent())
	}
	fabricGauges(s.f, r)
	out := fabricOutcome(s.f, r)
	out["packets_scheduled"] = scheduled
	out["packets_delivered"] = s.tr.Delivered()
	r.digest = digestOf(out)
}

// --- fault-churn-k16 -------------------------------------------------

const (
	churnRounds      = 3
	churnRound       = 300 * time.Millisecond
	churnOutage      = 150 * time.Millisecond
	churnProbeEvery  = 10 * time.Millisecond
	churnProbeBytes  = 64
	churnWarmup      = 200 * time.Millisecond
	churnAliveWindow = 5 * churnProbeEvery // a flow with an arrival this close to a round's end is receiving
)

// churnPlan is the fault-churn input drawn from the benchmark's own
// PRNG: who probes whom, and which links fail in each round. The
// simulator receives only these lists.
type churnPlan struct {
	perm   []int   // host i sends to host perm[i]
	rounds [][]int // blueprint link indices failed per round
}

// drawChurnPlan draws a permutation without fixed points and, per
// round, links distinct switch-to-switch links whose joint removal
// keeps every edge pair routable (by rejection, validated with
// faults.Routable against the healthy fabric: rounds do not overlap).
func drawChurnPlan(seed uint64, f *core.Fabric, links int, tr *tracer) churnPlan {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	plan := churnPlan{perm: wl.Permutation(rng, len(f.Spec.Hosts()))}
	cand := faults.SwitchLinks(f.Spec)
	for len(plan.rounds) < churnRounds {
		p := rng.Perm(len(cand))
		pick := make([]int, links)
		for i := range pick {
			pick[i] = cand[p[i]]
		}
		tr.begin("faults.pick_s")
		ok := faults.Routable(f, pick)
		tr.end()
		if ok {
			plan.rounds = append(plan.rounds, pick)
		}
	}
	return plan
}

type churnState struct {
	f     *core.Fabric
	plan  churnPlan
	flows []*wl.CBR
	ends  []time.Duration // virtual end of each round
}

// probes returns how many probes every flow together sent and received.
func (s *churnState) probes() (sent, delivered int64) {
	for _, fl := range s.flows {
		sent += fl.Sent
		delivered += int64(fl.RX.Len())
	}
	return sent, delivered
}

func (s *churnState) counts() map[string]float64 {
	c := fabricCounts(s.f)
	sent, delivered := s.probes()
	c["host.packets_sent"], c["host.packets_delivered"] = float64(sent), float64(delivered)
	return c
}

// timed runs the rounds: each fails its links at once, restores them
// after churnOutage, and runs on to the end of the round.
func (s *churnState) timed(r *rep) {
	for _, links := range s.plan.rounds {
		sched := faults.Schedule{Events: []faults.Event{{Duration: churnOutage, Links: links}}}
		r.tr.in("faults.apply_s", func() { sched.Apply(s.f) })
		r.runUntil(s.f.Dom, s.f.Dom.Now()+churnRound)
		s.ends = append(s.ends, s.f.Dom.Now())
	}
}

func (s *churnState) check(r *rep) {
	out := fabricOutcome(s.f, r)
	for i, end := range s.ends {
		var dead int64
		for _, fl := range s.flows {
			if fl.RX.CountIn(end-churnAliveWindow, end) == 0 {
				dead++
			}
		}
		r.attempted += int64(len(s.flows))
		if dead > 0 {
			r.fail(dead, "round %d: %d of %d probe flows not receiving at its end", i, dead, len(s.flows))
		}
	}
	out["probes_sent"], out["probes_delivered"] = s.probes()
	fabricGauges(s.f, r)
	r.digest = digestOf(out)
}

// flowSetupWorkload replays flows sampled flows on a discovered k-ary
// fabric.
func flowSetupWorkload(k, flows int) *workload {
	return &workload{
		name: fmt.Sprintf("flow-setup-k%d", k), minReps: 5,
		why: "First packets: ARP miss, punt, manager ARP service and a flow-table install at every hop; writes, smallest frames, boot path idle.",
		setup: func(r *rep) state {
			return &flowSetupState{f: discovered(r, k), flows: flows}
		},
	}
}

// faultChurnWorkload fails and restores links switch-to-switch links
// per round under one probe flow per host of a discovered k-ary fabric.
func faultChurnWorkload(k, links int) *workload {
	return &workload{
		name: fmt.Sprintf("fault-churn-k%d", k), minReps: 5,
		why: "Fault path: LDP timeout, FaultNotify, manager route recompute, RouteExclude fan-out, reroute and recovery under 1,024 steady probe flows.",
		setup: func(r *rep) state {
			f := discovered(r, k)
			s := &churnState{f: f, plan: drawChurnPlan(r.seed, f, links, r.tr)}
			s.flows = wl.PairCBRs(f.HostList(), s.plan.perm, churnProbeEvery, churnProbeBytes)
			f.RunFor(churnWarmup)
			return s
		},
	}
}
