package experiments

import (
	"errors"
	"io"
	"net/netip"
	"time"

	"portland/internal/ether"
	"portland/internal/faults"
	"portland/internal/host"
	"portland/internal/obs"
	"portland/internal/tcplite"
)

// Fig12Config parameterizes the VM-migration experiment (paper
// Fig. 12: TCP connection throughput while its VM endpoint live-
// migrates between pods; sub-second interruption, full recovery).
type Fig12Config struct {
	Rig Rig
}

// DefaultFig12 runs on the paper-testbed rig.
func DefaultFig12() Fig12Config {
	return Fig12Config{Rig: DefaultRig()}
}

// fig12Pause is the migration's sub-second stop-and-copy blackout, and
// fig12Bucket the throughput series' bucket width.
const (
	fig12Pause  = 300 * time.Millisecond
	fig12Bucket = 100 * time.Millisecond
)

// Fig12Result is the throughput time series around the migration.
type Fig12Result struct {
	MigrateAt time.Duration // detach instant
	ResumeAt  time.Duration // attach instant on the new host
	Series    []obs.ThroughputPoint
	Outage    time.Duration // observed delivery stall; -1 if it never resumed
	PreMbps   float64
	PostMbps  float64
	Reset     bool // connection died (must be false)
	Reported
}

// RunFig12 reproduces Figure 12.
func RunFig12(cfg Fig12Config) (*Fig12Result, error) {
	f, err := cfg.Rig.build()
	if err != nil {
		return nil, err
	}
	client := f.HostByName("host-p0-e0-h0")
	oldHost := f.HostByName("host-p1-e0-h0")
	newHost := f.HostByName("host-p3-e1-h1")

	vm := host.NewVM(ether.Addr{0x02, 0xcc, 0, 0, 0, 1}, netip.AddrFrom4([4]byte{10, 99, 1, 1}))
	oldHost.AttachVM(vm)
	f.RunFor(100 * time.Millisecond)
	vm.ListenTCP(80, nil)

	var deliver obs.ByteSeries
	conn := client.Endpoint().DialTCP(vm.LocalIP(), 41000, 80, tcplite.Config{}) // receiver side traces below
	// The server (VM side) records delivery; hook once it accepts.
	f.RunFor(50 * time.Millisecond)
	conn.Queue(1 << 30)
	f.RunFor(2 * time.Second)

	var vmConn *tcplite.Conn
	for _, c := range vm.Conns() {
		vmConn = c
	}
	if vmConn == nil {
		return nil, errors.New("fig12: VM accepted no connection")
	}
	// Poll delivery progress into the series (tcplite's TraceDeliver
	// only binds at Dial/Accept; polling keeps the harness simple and
	// measures the same quantity). Seed the series with the current
	// total so the first bucket doesn't absorb all prior transfer.
	deliver.Add(f.Now(), vmConn.Delivered())
	f.Sched().NewTicker(5*time.Millisecond, 0, func() {
		deliver.Add(f.Now(), vmConn.Delivered())
	})
	f.RunFor(1 * time.Second)

	res := &Fig12Result{}
	res.MigrateAt = f.Now()
	faults.Schedule{Events: []faults.Event{{Detach: []*host.Endpoint{vm}}}}.Apply(f)
	f.RunFor(fig12Pause)
	res.ResumeAt = f.Now()
	faults.Schedule{Events: []faults.Event{{Attach: []faults.VMAttach{{VM: vm, To: newHost}}}}}.Apply(f)
	f.RunFor(3 * time.Second)

	start := res.MigrateAt - 1*time.Second
	end := res.ResumeAt + 2*time.Second
	res.Series = deliver.Throughput(start, end, fig12Bucket)
	for _, g := range deliver.GapsOver(50*time.Millisecond, res.MigrateAt-100*time.Millisecond, end) {
		res.Outage = max(res.Outage, g.Length)
		if g.Start+g.Length == end { // still open when the window closes
			res.Outage = -1
		}
	}
	// Pre/post steady-state throughput (exclude the outage window).
	res.PreMbps = meanMbps(deliver.Throughput(res.MigrateAt-800*time.Millisecond, res.MigrateAt, fig12Bucket))
	res.PostMbps = meanMbps(deliver.Throughput(res.ResumeAt+1*time.Second, res.ResumeAt+2*time.Second, fig12Bucket))
	res.Reset = conn.State() != tcplite.StateEstablished
	return res, nil
}

func meanMbps(pts []obs.ThroughputPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.Mbps
	}
	return sum / float64(len(pts))
}

// Print emits the throughput series the paper plots.
func (r *Fig12Result) Print(w io.Writer) {
	fprintf(w, "Figure 12 — TCP throughput across VM live migration (pause %v)\n", fig12Pause)
	hr(w)
	fprintf(w, "detach t=%v, resume t=%v\n", r.MigrateAt, r.ResumeAt)
	fprintf(w, "observed delivery outage: %s   connection reset: %v\n", msOrNever(r.Outage), r.Reset)
	fprintf(w, "steady-state throughput: before=%.0f Mbps after=%.0f Mbps\n\n", r.PreMbps, r.PostMbps)
	fprintf(w, "%12s %10s\n", "t", "Mbps")
	for _, p := range r.Series {
		fprintf(w, "%12v %10.1f\n", p.T, p.Mbps)
	}
	fprintf(w, "\n")
}
