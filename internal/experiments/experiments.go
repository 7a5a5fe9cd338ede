// Package experiments reproduces every table and figure of PortLand's
// evaluation (SIGCOMM 2009, §5) plus the ablations DESIGN.md calls
// out. Catalog declares each experiment once — ID, description, full
// and -quick configuration — and cmd/portland-bench is flags and a loop
// over it. Below the catalog every driver has the same shape: a sweep
// fans independent cells out over the runner pool, a cell builds and
// drives one private fabric, and a reducer folds the cells, in
// canonical order, into a result struct whose Print emits the rows the
// paper reports.
//
// The default rig mirrors the paper's testbed: a k=4 fat tree (20
// switches, 16 hosts), 1 GbE links, 10 ms LDMs. Absolute numbers
// differ from the authors' NetFPGA hardware; the documented claim is
// the *shape* (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"time"

	"portland/internal/baseline"
	"portland/internal/core"
	"portland/internal/faults"
	"portland/internal/metrics"
	"portland/internal/obs"
	"portland/internal/topo"
)

// Rig configures the simulated testbed common to the experiments: the
// fat tree's arity plus the fabric's build options, declared once in
// core.Options (Rig.Seed, Rig.CtrlLoss etc. are its promoted fields).
type Rig struct {
	K int
	core.Options
}

// DefaultRig mirrors the paper's testbed scale.
func DefaultRig() Rig {
	return Rig{K: 4, Options: core.Options{Seed: 1}}
}

func (r Rig) build() (*core.Fabric, error) {
	f, err := core.NewFatTree(r.K, r.Options)
	if err != nil {
		return nil, err
	}
	f.Start()
	if err := f.AwaitDiscovery(5 * time.Second); err != nil {
		return nil, err
	}
	if err := f.CheckDiscovery(); err != nil {
		return nil, fmt.Errorf("discovery ground-truth check: %w", err)
	}
	return f, nil
}

// buildBaseline boots the conventional flat-L2 contrast fabric on a
// k-ary fat tree and waits for its spanning tree to settle.
func buildBaseline(k int, seed uint64, cfg baseline.Config) (*baseline.Fabric, error) {
	spec, err := topo.FatTree(k)
	if err != nil {
		return nil, err
	}
	bf := baseline.BuildFabric(spec, seed, cfg)
	bf.Start()
	if err := bf.AwaitTree(20 * time.Second); err != nil {
		return nil, err
	}
	return bf, nil
}

// Result is what every driver returns: a printable table or series
// plus the run's observability report.
type Result interface {
	// Print emits the rows/series the paper reports; it never reads
	// the report.
	Print(io.Writer)
	report() *obs.Report
}

// Reported is embedded in every result struct. Report carries the
// run's per-cell journal and counter snapshots; it is nil for f12, f13
// and f14, which build no fabric journals.
type Reported struct {
	Report *obs.Report
}

func (r Reported) report() *obs.Report { return r.Report }

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

func hr(w io.Writer) {
	fmt.Fprintln(w, "--------------------------------------------------------------")
}

// msOrNever renders d as metrics.FmtMs does, or "never" for the
// negative duration that marks a stall that never ended.
func msOrNever(d time.Duration) string {
	if d < 0 {
		return "never"
	}
	return metrics.FmtMs(d)
}

// failLink arms blueprint link li to fail now, when the engine next runs, as a
// one-event faults.Schedule (journaled as fault-applied); it returns now.
func failLink(f *core.Fabric, li int) time.Duration {
	faults.Schedule{Events: []faults.Event{{Links: []int{li}}}}.Apply(f)
	return f.Now()
}
