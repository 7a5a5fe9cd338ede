// Package obs is the control-plane observability layer: a structured,
// zero-alloc-friendly event journal recording what the control plane
// *did* — LDP state transitions, fabric-manager registry churn and
// fault reactions, switch-local flow-table flushes and exclusion
// epochs — alongside the counter blocks the data plane already keeps.
//
// The division of labor is deliberate (DESIGN.md S30): control-plane
// events are rare, causal and worth timestamping individually, so they
// go to per-node bounded ring journals; data-plane events are
// per-frame and on the zero-alloc fast path, so they stay plain
// counter bumps and are gathered once per run into a Counters
// snapshot. Recording into a journal never allocates (the ring is
// preallocated and events are fixed-size values) and a nil *Journal
// is a valid no-op sink, so instrumented packages need no guards.
//
// The measurement primitives experiments read their results through
// live here too (measure.go): arrival recorders with convergence
// detectors, throughput series and sample summaries.
//
// A Registry owns every journal of one fabric and merges them into a
// single time-ordered timeline. Ties at the same virtual instant are
// broken by journal attach order (blueprint order, by construction in
// internal/core) and then by intra-journal order, so a merged timeline
// is a pure function of the run — the property that lets experiment
// reports stay byte-identical under the parallel runner.
package obs

import (
	"fmt"
	"sort"
	"time"
)

// Kind classifies a journal event. The numeric values are internal;
// reports serialize kinds by name (Kind.String), so reordering this
// enum does not break the report schema.
type Kind uint8

// Event kinds. The A/B/C/D argument layout per kind is documented on
// each constant and rendered by Event.Text.
const (
	// KindUnknown is the zero Kind; it never appears in a journal.
	KindUnknown Kind = iota

	// LDPLevel: the agent inferred its tree level. A=level, D=agent version.
	LDPLevel
	// LDPPod: the agent learned its pod number. A=pod, D=agent version.
	LDPPod
	// LDPPos: position negotiation resolved. A=pos, D=agent version.
	LDPPos
	// LDPResolved: location discovery completed. A=level, B=pod, C=pos,
	// D=agent version.
	LDPResolved
	// LDPHostPort: a port was classified as host-facing. A=port,
	// D=agent version.
	LDPHostPort
	// NeighborSeen: the identity or location advertised by the switch
	// behind a port changed (including first sight). A=port, B=peer
	// switch ID, D=agent version.
	NeighborSeen
	// NeighborDown: a switch neighbor missed enough LDMs to be declared
	// dead. A=port, B=peer switch ID, D=agent version.
	NeighborDown
	// NeighborUp: a dead neighbor resumed speaking. A=port, B=peer
	// switch ID, D=agent version.
	NeighborUp

	// ExclInstall: the manager told this switch to exclude a route.
	// A=via switch ID, B=dst pod, C=dst pos, D=exclusion epoch after.
	ExclInstall
	// ExclRemove: an exclusion was lifted. Args as ExclInstall.
	ExclRemove
	// FlowFlush: the switch invalidated its whole flow table. A=entries
	// flushed, D=exclusion epoch at the flush.
	FlowFlush
	// ARPResolved: a proxied ARP answer arrived for a parked host
	// request. A=latency in nanoseconds (punt → answer), B=query ID.
	ARPResolved
	// SwitchResync: the switch replayed its soft state for a manager
	// resync. A=sync epoch.
	SwitchResync
	// SwitchFailed: the switch was crashed (Fail).
	SwitchFailed
	// SwitchRecovered: the switch rebooted and restarted discovery.
	SwitchRecovered

	// MgrARPHit: proxy ARP answered from the registry. A=querying
	// switch ID, B=query ID.
	MgrARPHit
	// MgrARPMiss: registry miss; the broadcast fallback was launched.
	// A=querying switch ID, B=query ID.
	MgrARPMiss
	// MgrARPParked: registry miss during a resync; the query waits for
	// the fabric to finish reporting. A=querying switch ID, B=query ID.
	MgrARPParked
	// MgrRegister: a new IP→PMAC registration. A=edge switch ID,
	// B=IPv4 address as a big-endian uint32.
	MgrRegister
	// MgrMigrate: a known IP re-registered under a new PMAC (VM
	// migration). A=new edge switch ID, B=IPv4 address.
	MgrMigrate
	// MgrPodAssign: the manager assigned a pod number. A=requesting
	// switch ID, B=pod.
	MgrPodAssign
	// MgrLinkDown: the fault matrix marked a switch pair down. A=lower
	// switch ID, B=higher switch ID.
	MgrLinkDown
	// MgrLinkUp: the fault matrix marked a switch pair back up. Args as
	// MgrLinkDown.
	MgrLinkUp
	// MgrExclPush: the manager pushed one exclusion delta. A=target
	// switch ID, B=via switch ID, C=dst pod, D=dst pos.
	MgrExclPush
	// MgrExclClear: the manager lifted one exclusion. Args as
	// MgrExclPush.
	MgrExclClear
	// MgrResyncBegin: the manager solicited state dumps. A=epoch,
	// B=switches solicited.
	MgrResyncBegin
	// MgrResyncDone: the last switch answered the resync epoch.
	// A=epoch.
	MgrResyncDone

	// LinkFailed: the harness took a blueprint link down. A=link index.
	LinkFailed
	// LinkRestored: the harness brought a blueprint link back. A=link
	// index.
	LinkRestored
	// MgrKilled: the fabric-manager process was crashed.
	MgrKilled
	// MgrRestarted: a fresh manager booted and began resync. A=new
	// control-plane epoch.
	MgrRestarted
	// Takeover: a manager shard's watchdog heard no heartbeat and
	// booted a fresh manager in its place. A=new epoch, B=shard.
	Takeover

	// GrayOnset: the harness injected a gray failure on a blueprint
	// link. A=link index, B=loss toward endpoint A in ppm, C=loss
	// toward endpoint B in ppm.
	GrayOnset
	// GrayCleared: the harness removed a gray failure. A=link index.
	GrayCleared
	// GrayDetected: a switch's gray-failure detector quarantined a
	// port. A=port, B=peer switch ID, C=wire errors in the tripping
	// window, D=probes lost in the window.
	GrayDetected
	// GrayReleased: a quarantined port proved clean and was released.
	// A=port, B=peer switch ID.
	GrayReleased
	// MgrGrayReport: the manager received a gray-failure report.
	// A=reporting switch ID, B=port, C=wire errors, D=1 if the
	// reporter quarantined the port.
	MgrGrayReport
	// ScenarioStart: a fault scenario began. A=scenario tag
	// (faults.Tag), B=number of scheduled events.
	ScenarioStart
	// ScenarioEnd: the last event of a fault scenario recovered.
	// A=scenario tag.
	ScenarioEnd
	// FlapDown: a flap cycle took a link down. A=link index, B=cycle.
	FlapDown
	// FlapUp: a flap cycle restored a link. A=link index, B=cycle.
	FlapUp
	// FaultApplied: a faults.Schedule event fired its failure actions.
	// A=event index, B=links failed, C=switches crashed, D=1 if the
	// manager was killed.
	FaultApplied
	// FaultRecovered: a faults.Schedule event fired its recovery
	// actions. Args as FaultApplied.
	FaultRecovered
	// MgrHostReplay: the manager replayed one host registry record to
	// a rebooted edge switch (ctrlmsg.HostInstall). A=edge switch ID,
	// B=host IPv4 packed big-endian.
	MgrHostReplay
	// MgrARPBatch: the manager served one batched ARP punt
	// (ctrlmsg.ARPQueryBatch) — the journal amortization of punt
	// batching: one event per batch instead of one per query.
	// A=querying switch ID, B=queries in the batch, C=registry hits,
	// D=misses flooded.
	MgrARPBatch
	// EcmpDegrade: a switch's ECMP group-table admission failed and the
	// candidate set was truncated or pushed onto the shared wildcard
	// group (see internal/pswitch/resources.go and HARDWARE.md).
	// A=dst pod, B=dst pos, C=width wanted, D=width granted (0 = rides
	// the wildcard group).
	EcmpDegrade

	numKinds // internal bound; keep last
)

var kindNames = [numKinds]string{
	KindUnknown:     "unknown",
	LDPLevel:        "ldp-level",
	LDPPod:          "ldp-pod",
	LDPPos:          "ldp-pos",
	LDPResolved:     "ldp-resolved",
	LDPHostPort:     "ldp-host-port",
	NeighborSeen:    "neighbor-seen",
	NeighborDown:    "neighbor-down",
	NeighborUp:      "neighbor-up",
	ExclInstall:     "excl-install",
	ExclRemove:      "excl-remove",
	FlowFlush:       "flow-flush",
	ARPResolved:     "arp-resolved",
	SwitchResync:    "switch-resync",
	SwitchFailed:    "switch-failed",
	SwitchRecovered: "switch-recovered",
	MgrARPHit:       "mgr-arp-hit",
	MgrARPMiss:      "mgr-arp-miss",
	MgrARPParked:    "mgr-arp-parked",
	MgrRegister:     "mgr-register",
	MgrMigrate:      "mgr-migrate",
	MgrPodAssign:    "mgr-pod-assign",
	MgrLinkDown:     "mgr-link-down",
	MgrLinkUp:       "mgr-link-up",
	MgrExclPush:     "mgr-excl-push",
	MgrExclClear:    "mgr-excl-clear",
	MgrResyncBegin:  "mgr-resync-begin",
	MgrResyncDone:   "mgr-resync-done",
	LinkFailed:      "link-failed",
	LinkRestored:    "link-restored",
	MgrKilled:       "mgr-killed",
	MgrRestarted:    "mgr-restarted",
	Takeover:        "takeover",
	GrayOnset:       "gray-onset",
	GrayCleared:     "gray-cleared",
	GrayDetected:    "gray-detected",
	GrayReleased:    "gray-released",
	MgrGrayReport:   "mgr-gray-report",
	ScenarioStart:   "scenario-start",
	ScenarioEnd:     "scenario-end",
	FlapDown:        "flap-down",
	FlapUp:          "flap-up",
	FaultApplied:    "fault-applied",
	FaultRecovered:  "fault-recovered",
	MgrHostReplay:   "mgr-host-replay",
	MgrARPBatch:     "mgr-arp-batch",
	EcmpDegrade:     "ecmp-degrade",
}

// String returns the kind's stable wire name (used in reports).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one journal record: a virtual timestamp, a kind, and four
// kind-specific arguments. It is a fixed-size value — recording one
// into a journal's preallocated ring allocates nothing.
type Event struct {
	At         time.Duration
	Kind       Kind
	A, B, C, D uint64
}

// ipv4 renders a uint32-packed IPv4 address.
func ipv4(v uint64) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Text renders the event's arguments as a compact human-readable
// description (the timeline column of reports and cmd/portland-report).
func (e Event) Text() string {
	switch e.Kind {
	case LDPLevel:
		return fmt.Sprintf("level=%d v=%d", e.A, e.D)
	case LDPPod:
		return fmt.Sprintf("pod=%d v=%d", e.A, e.D)
	case LDPPos:
		return fmt.Sprintf("pos=%d v=%d", e.A, e.D)
	case LDPResolved:
		return fmt.Sprintf("level=%d pod=%d pos=%d v=%d", e.A, e.B, e.C, e.D)
	case LDPHostPort:
		return fmt.Sprintf("port=%d v=%d", e.A, e.D)
	case NeighborSeen, NeighborDown, NeighborUp:
		return fmt.Sprintf("port=%d peer=%d v=%d", e.A, e.B, e.D)
	case ExclInstall, ExclRemove:
		return fmt.Sprintf("via=%d dst=%d/%d epoch=%d", e.A, e.B, e.C, e.D)
	case FlowFlush:
		return fmt.Sprintf("entries=%d epoch=%d", e.A, e.D)
	case ARPResolved:
		return fmt.Sprintf("latency=%v query=%d", time.Duration(e.A), e.B)
	case SwitchResync:
		return fmt.Sprintf("epoch=%d", e.A)
	case MgrARPHit, MgrARPMiss, MgrARPParked:
		return fmt.Sprintf("switch=%d query=%d", e.A, e.B)
	case MgrARPBatch:
		return fmt.Sprintf("switch=%d queries=%d hits=%d misses=%d", e.A, e.B, e.C, e.D)
	case EcmpDegrade:
		return fmt.Sprintf("dst=%d/%d want=%d got=%d", e.A, e.B, e.C, e.D)
	case MgrRegister, MgrMigrate:
		return fmt.Sprintf("edge=%d ip=%s", e.A, ipv4(e.B))
	case MgrPodAssign:
		return fmt.Sprintf("switch=%d pod=%d", e.A, e.B)
	case MgrLinkDown, MgrLinkUp:
		return fmt.Sprintf("pair=%d/%d", e.A, e.B)
	case MgrExclPush, MgrExclClear:
		return fmt.Sprintf("target=%d via=%d dst=%d/%d", e.A, e.B, e.C, e.D)
	case MgrResyncBegin:
		return fmt.Sprintf("epoch=%d switches=%d", e.A, e.B)
	case MgrResyncDone, MgrRestarted, Takeover:
		return fmt.Sprintf("epoch=%d", e.A)
	case LinkFailed, LinkRestored, GrayCleared:
		return fmt.Sprintf("link=%d", e.A)
	case GrayOnset:
		return fmt.Sprintf("link=%d toA=%dppm toB=%dppm", e.A, e.B, e.C)
	case GrayDetected:
		return fmt.Sprintf("port=%d peer=%d errs=%d probes_lost=%d", e.A, e.B, e.C, e.D)
	case GrayReleased:
		return fmt.Sprintf("port=%d peer=%d", e.A, e.B)
	case MgrGrayReport:
		return fmt.Sprintf("switch=%d port=%d errs=%d quarantined=%d", e.A, e.B, e.C, e.D)
	case ScenarioStart:
		return fmt.Sprintf("tag=%d events=%d", e.A, e.B)
	case ScenarioEnd:
		return fmt.Sprintf("tag=%d", e.A)
	case FlapDown, FlapUp:
		return fmt.Sprintf("link=%d cycle=%d", e.A, e.B)
	case FaultApplied, FaultRecovered:
		return fmt.Sprintf("event=%d links=%d switches=%d mgr=%d", e.A, e.B, e.C, e.D)
	case MgrHostReplay:
		return fmt.Sprintf("edge=%d ip=%d.%d.%d.%d", e.A, e.B>>24&0xff, e.B>>16&0xff, e.B>>8&0xff, e.B&0xff)
	case SwitchFailed, SwitchRecovered, MgrKilled:
		return ""
	}
	return fmt.Sprintf("a=%d b=%d c=%d d=%d", e.A, e.B, e.C, e.D)
}

// Journal is one node's bounded event ring. When the ring is full the
// oldest event is evicted (and counted in Dropped) — boot chatter ages
// out, the fault window under study survives. A nil *Journal is a
// valid no-op sink: Record on nil returns immediately, so instrumented
// code never needs an "is observability on?" branch. Not safe for
// concurrent use; callers that are (the fabric manager) record under
// their own lock.
type Journal struct {
	name    string
	now     func() time.Duration
	ring    []Event
	start   int   // index of the oldest event
	count   int   // live events in the ring
	dropped int64 // events evicted by the bound
}

// Record appends an event stamped with the journal's clock. It never
// allocates: the ring is preallocated and the event is a value.
func (j *Journal) Record(k Kind, a, b, c, d uint64) {
	if j == nil {
		return
	}
	e := Event{At: j.now(), Kind: k, A: a, B: b, C: c, D: d}
	if j.count == len(j.ring) {
		j.ring[j.start] = e
		j.start = (j.start + 1) % len(j.ring)
		j.dropped++
		return
	}
	j.ring[(j.start+j.count)%len(j.ring)] = e
	j.count++
}

// Name returns the journal's owner name (a node name, "mgr", "fabric").
func (j *Journal) Name() string {
	if j == nil {
		return ""
	}
	return j.name
}

// Len returns the number of events currently held.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return j.count
}

// Dropped returns how many events the ring bound evicted.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.dropped
}

// Events copies the live events oldest-first.
func (j *Journal) Events() []Event {
	if j == nil || j.count == 0 {
		return nil
	}
	out := make([]Event, j.count)
	for i := 0; i < j.count; i++ {
		out[i] = j.ring[(j.start+i)%len(j.ring)]
	}
	return out
}

// SourcedEvent is a journal event annotated with its journal's name,
// the element type of a merged timeline.
type SourcedEvent struct {
	Source string
	Event
}

// Registry owns the journals of one fabric and merges them into one
// timeline. Journals attach in a deterministic order (internal/core
// attaches fabric, manager, then switches in blueprint order), which
// is the tie-break order for simultaneous events.
type Registry struct {
	journals []*Journal
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Journal creates a journal with the given bound and clock and
// attaches it. Attach order is merge tie-break order.
func (r *Registry) Journal(name string, capacity int, now func() time.Duration) *Journal {
	if capacity <= 0 {
		capacity = 256
	}
	j := &Journal{name: name, now: now, ring: make([]Event, capacity)}
	r.journals = append(r.journals, j)
	return j
}

// EventsCaptured sums the events currently held across all journals.
func (r *Registry) EventsCaptured() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, j := range r.journals {
		n += int64(j.Len())
	}
	return n
}

// EventsDropped sums ring evictions across all journals.
func (r *Registry) EventsDropped() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, j := range r.journals {
		n += j.Dropped()
	}
	return n
}

// Merge returns every journal's events as one timeline ordered by
// (time, journal attach order, intra-journal order). The ordering is a
// pure function of the run, never of scheduling: merging per-engine
// journals in canonical cell order is what keeps parallel experiment
// sweeps byte-identical to serial ones.
func (r *Registry) Merge() []SourcedEvent {
	if r == nil {
		return nil
	}
	var out []SourcedEvent
	for _, j := range r.journals {
		for _, e := range j.Events() {
			out = append(out, SourcedEvent{Source: j.name, Event: e})
		}
	}
	// Stable: equal-time events keep journal attach order (the append
	// order above) and intra-journal order.
	sort.SliceStable(out, func(i, k int) bool { return out[i].At < out[k].At })
	return out
}
