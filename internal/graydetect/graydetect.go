// Package graydetect holds the pure decision logic of the gray-failure
// detector: given periodic per-port counter samples (wire-error deltas
// from the receive direction of each link, plus optional data-plane
// probe accounting), decide when a port should be quarantined and when
// a quarantined port has proven itself clean again.
//
// The logic is deliberately separated from internal/pswitch so it can
// be tested exhaustively without a fabric: the switch samples the
// counters and executes the verdicts; this package only decides.
//
// Design note (DESIGN.md §31): the default signal is drop-counter
// deltas, not end-to-end probing. Wire-error counters are free (the
// NIC already keeps them), observe *every* frame rather than a probe
// sample, and — critically — discriminate by cause: egress queue drops
// are congestion and must never evict a link. Probes are the optional
// second opinion for the one case counters cannot see: a receiver
// counts wire errors on its own rx direction, so the *sender* side of
// an asymmetric gray link has clean rx counters and only notices via
// lost probe replies.
package graydetect

import "time"

// Config tunes the detector. The zero value disables it.
type Config struct {
	// Interval is the counter sampling period. Zero disables the
	// detector entirely (no ticker, no samples, no RNG draws — the
	// default, so runs without a detector are bit-identical to
	// pre-detector builds).
	Interval time.Duration
	// MinDrops is the minimum number of wire-error drops in one
	// sampling window before the window counts as "bad". Filters
	// sporadic single-frame noise.
	MinDrops int64
	// Trip is how many consecutive bad windows quarantine the port.
	Trip int
	// Clean is how many consecutive clean windows release a
	// quarantined port. Zero means never release (the safe default for
	// counters-only operation: after a quarantine reroutes traffic
	// away, an idle link always looks clean).
	Clean int
	// Probes enables the data-plane probe: the switch sends one probe
	// per window out every live switch port, and a window with no
	// losses but missing probe replies also counts as bad. Required
	// for sender-side detection of asymmetric gray loss and for
	// meaningful Clean-based release.
	Probes bool
}

// DefaultConfig is a conservative profile: 10 ms windows, three
// consecutive windows with at least five wire errors each, probes off,
// no auto-release.
var DefaultConfig = Config{Interval: 10 * time.Millisecond, MinDrops: 5, Trip: 3}

// Sample is one window's observation for one port, as deltas since the
// previous window.
type Sample struct {
	// WireErr is the receive-direction wire-error delta: frames the
	// peer sent that were corrupted in transit (loss + gray drops).
	WireErr int64
	// QueueDrops is the congestion-drop delta on the same direction.
	// It never contributes to a verdict; it is carried so callers can
	// report the discrimination.
	QueueDrops int64
	// ProbesSent and ProbesLost account this window's probes (zero
	// unless Config.Probes).
	ProbesSent int64
	ProbesLost int64
}

// Verdict is the detector's decision for one port after one window.
type Verdict int

// Verdicts. None means no state change this window.
const (
	None Verdict = iota
	// Quarantine: the port crossed Trip consecutive bad windows and
	// must be evicted from the routing fabric.
	Quarantine
	// Release: a quarantined port accumulated Clean consecutive clean
	// windows and may rejoin.
	Release
)

// portState tracks one port's consecutive-window counters.
type portState struct {
	bad         int
	clean       int
	quarantined bool
}

// Detector accumulates windowed samples per port. Not safe for
// concurrent use; drive it from one goroutine (the simulation loop).
type Detector struct {
	cfg   Config
	ports map[int]*portState
}

// New builds a detector; a zero cfg yields one that never trips.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg, ports: make(map[int]*portState)}
}

// Quarantined reports whether the detector currently holds port.
func (d *Detector) Quarantined(port int) bool {
	st := d.ports[port]
	return st != nil && st.quarantined
}

// Reset forgets all per-port state (switch reboot).
func (d *Detector) Reset() {
	for k := range d.ports {
		delete(d.ports, k)
	}
}

// bad reports whether one window's sample indicts the wire.
func (d *Detector) bad(s Sample) bool {
	if s.WireErr >= d.cfg.MinDrops && s.WireErr > 0 {
		return true
	}
	if d.cfg.Probes && s.ProbesSent > 0 && s.ProbesLost > 0 {
		return true
	}
	return false
}

// Observe feeds one window's sample for port and returns the verdict.
// Queue drops are ignored by construction: congestion is the job of
// the transport, not the liveness layer.
func (d *Detector) Observe(port int, s Sample) Verdict {
	if d.cfg.Trip <= 0 {
		return None
	}
	st := d.ports[port]
	if st == nil {
		st = &portState{}
		d.ports[port] = st
	}
	if d.bad(s) {
		st.bad++
		st.clean = 0
	} else {
		st.clean++
		st.bad = 0
	}
	switch {
	case !st.quarantined && st.bad >= d.cfg.Trip:
		st.quarantined = true
		st.bad = 0
		return Quarantine
	case st.quarantined && d.cfg.Clean > 0 && d.cfg.Probes && st.clean >= d.cfg.Clean:
		// Release requires probe evidence: with counters only, a
		// quarantined (hence idle) link is indistinguishable from a
		// healed one.
		if s.ProbesSent > 0 && s.ProbesLost == 0 {
			st.quarantined = false
			st.clean = 0
			return Release
		}
	}
	return None
}
