package experiments

import (
	"io"
	"time"

	"portland/internal/obs"
	"portland/internal/tcplite"
	"portland/internal/topo"
)

// Fig10Config parameterizes the TCP-convergence experiment (paper
// Fig. 10: a TCP flow's sequence trace across a failure; recovery is
// hidden under tcplite's 200 ms minimum RTO).
type Fig10Config struct {
	Rig Rig
}

// fig10Window is the flow's TCP window: a 2009-era Linux receive
// window (64 KiB), small enough that the flow does not self-congest
// the 128-frame switch queues, so the trace shows the failure, not
// drop-tail sawtooth.
const fig10Window = 64 << 10

// DefaultFig10 runs on the paper-testbed rig.
func DefaultFig10() Fig10Config {
	return Fig10Config{Rig: DefaultRig()}
}

// SeqPoint is one point of the sequence-number trace.
type SeqPoint struct {
	T          time.Duration
	Seq        int64
	Retransmit bool
}

// Fig10Result is the trace plus the derived recovery numbers.
type Fig10Result struct {
	Cfg         Fig10Config
	FailAt      time.Duration
	SendTrace   []SeqPoint
	Gap         time.Duration // delivery interruption at the receiver
	Timeouts    int64
	Retransmits int64
	Reported
}

// RunFig10 reproduces Figure 10: one inter-pod bulk TCP flow, fail a
// link on its path, record the sequence trace and the delivery gap.
// A single cell: there is nothing to sweep.
func RunFig10(cfg Fig10Config) (*Fig10Result, error) {
	f, err := cfg.Rig.build()
	if err != nil {
		return nil, err
	}
	hosts := f.HostList()
	src, dst := hosts[0], hosts[len(hosts)-1]

	res := &Fig10Result{Cfg: cfg}
	var deliver obs.ByteSeries
	// The delivery trace lives on the server-side connection.
	dst.Endpoint().ListenTCPWith(80, tcplite.Config{
		Window:       fig10Window,
		TraceDeliver: func(at time.Duration, total int64) { deliver.Add(at, total) },
	}, nil)
	conn := src.Endpoint().DialTCP(dst.IP(), 40000, 80, tcplite.Config{
		Window: fig10Window,
		TraceSend: func(at time.Duration, seq uint32, _ int, retx bool) {
			res.SendTrace = append(res.SendTrace, SeqPoint{T: at, Seq: int64(seq), Retransmit: retx})
		},
	})
	conn.Queue(512 << 20) // long-running bulk flow
	f.RunFor(1 * time.Second)

	// Fail the aggregation→core link the flow currently rides.
	link, err := f.BusiestLink(100*time.Millisecond, topo.Aggregation, topo.Core)
	if err != nil {
		return nil, err
	}
	res.FailAt = failLink(f, link)
	f.RunFor(2 * time.Second)

	// The receiver-side delivery gap is the paper's reported effect.
	gaps := deliver.GapsOver(20*time.Millisecond, res.FailAt-100*time.Millisecond, res.FailAt+2*time.Second)
	for _, g := range gaps {
		res.Gap = max(res.Gap, g.Length)
	}
	res.Timeouts = conn.Stats.Timeouts
	res.Retransmits = conn.Stats.Retransmits

	res.Report = replayReport("f10", f, obsCell(f, 0, 0, cfg.Rig.Seed).cell, map[string]string{
		"k":           itoa(cfg.Rig.K),
		"min_rto":     tcplite.MinRTO.String(),
		"failed_link": linkName(f, link),
	}, views{faultAt: res.FailAt, arp: true})
	return res, nil
}

// Print emits the sequence trace (decimated) and the headline gap.
func (r *Fig10Result) Print(w io.Writer) {
	fprintf(w, "Figure 10 — TCP convergence across a link failure (min RTO %v)\n", tcplite.MinRTO)
	hr(w)
	fprintf(w, "failure injected at t=%v\n", r.FailAt)
	fprintf(w, "delivery gap at receiver: %s (paper: ~RTOmin plus reconvergence)\n", obs.FmtMs(r.Gap))
	fprintf(w, "sender RTO events: %d, total retransmissions: %d\n", r.Timeouts, r.Retransmits)
	fprintf(w, "\nsequence trace around the failure (send-side, decimated):\n")
	fprintf(w, "%12s %14s %6s\n", "t", "seq", "retx")
	lo, hi := r.FailAt-50*time.Millisecond, r.FailAt+600*time.Millisecond
	last := int64(-1 << 62)
	for _, p := range r.SendTrace {
		if p.T < lo || p.T > hi {
			continue
		}
		// Decimate: print retransmissions and every 64 KB of progress.
		if !p.Retransmit && p.Seq-last < 64<<10 {
			continue
		}
		last = p.Seq
		mark := ""
		if p.Retransmit {
			mark = "R"
		}
		fprintf(w, "%12v %14d %6s\n", p.T, p.Seq, mark)
	}
	fprintf(w, "\n")
}
