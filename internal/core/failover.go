// Fabric-manager survivability: manager kill/restart with soft-state
// resync, the optional warm-standby manager, and the lossy-control-
// channel wiring (Reliable wrappers over the switch↔manager pipes).
package core

import (
	"fmt"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/fabricmgr"
	"portland/internal/obs"
	"portland/internal/pswitch"
	"portland/internal/sim"
	"portland/internal/topo"
)

// Heartbeat cadence between the primary and the warm standby, and the
// silence that triggers takeover.
const (
	hbInterval = 20 * time.Millisecond
	hbTimeout  = 80 * time.Millisecond
)

// ctrlChan is one switch↔manager control channel: the raw pipe ends
// (owning stats and up/down state) and the possibly Reliable-wrapped
// Conns the protocol actually speaks over. A switch has one per manager
// shard (a single element on the default unsharded fabric). The raw
// pipe objects live for the fabric's lifetime — a manager restart
// revives the same pipes, preserving byte counters and, under
// CtrlLoss, the retransmit buffers that re-deliver everything the dead
// manager missed.
type ctrlChan struct {
	swRaw, mgrRaw   *ctrlnet.SimConn
	swConn, mgrConn ctrlnet.Conn
	// standby is the mirror channel to the shard's warm standby (nil
	// without Options.Standby).
	standby *ctrlChan
}

// muxConn fans a switch's control transmissions out to the primary
// manager and the standby mirror, so the standby builds the same soft
// state the primary does.
type muxConn struct {
	primary ctrlnet.Conn
	mirror  ctrlnet.Conn
}

func (m *muxConn) Send(msg ctrlmsg.Msg) error {
	_ = m.mirror.Send(msg)
	return m.primary.Send(msg)
}

func (m *muxConn) Close() error {
	_ = m.mirror.Close()
	return m.primary.Close()
}

func (m *muxConn) Stats() ctrlnet.Stats { return m.primary.Stats() }
func (m *muxConn) Err() error           { return m.primary.Err() }

// wrapCtrl returns the Conn the protocol speaks over a raw pipe end.
// On a lossless control network it is the bare pipe (zero overhead —
// the Figure 13 byte counts stay exact); with CtrlLoss configured it
// is a Reliable go-back-N channel whose retransmits mask the loss.
func (f *Fabric) wrapCtrl(c *ctrlnet.SimConn) ctrlnet.Conn {
	if f.Opts.CtrlLoss <= 0 {
		return c
	}
	return ctrlnet.NewReliable(c.Sched(), c, ctrlnet.ReliableConfig{})
}

// setCtrlHandler binds the receive function at whichever layer is
// outermost.
func setCtrlHandler(c ctrlnet.Conn, h ctrlnet.Handler) {
	switch v := c.(type) {
	case *ctrlnet.Reliable:
		v.SetHandler(h)
	case *ctrlnet.SimConn:
		v.SetHandler(h)
	}
}

// ctrlPipe wires one switch↔manager pipe: the switch end lives on the
// switch's shard, the manager end on the control shard (0). On a
// sharded fabric the pipe delay becomes a lookahead bound like any
// cross-shard link.
func (f *Fabric) ctrlPipe(swEng *sim.Engine) (raw1, raw2 *ctrlnet.SimConn) {
	return ctrlnet.SimPipe(f.Dom, swEng, f.Eng, ctrlnet.PipeConfig{
		Delay:    f.Opts.CtrlDelay,
		LossRate: f.Opts.CtrlLoss,
	})
}

// newCtrlChan wires one switch to one manager: a shard's primary or
// its standby.
func (f *Fabric) newCtrlChan(id topo.NodeID, sw *pswitch.Switch, shard int, m *fabricmgr.Manager) *ctrlChan {
	swRaw, mgrRaw := f.ctrlPipe(f.engOf[id])
	c := &ctrlChan{swRaw: swRaw, mgrRaw: mgrRaw, swConn: f.wrapCtrl(swRaw), mgrConn: f.wrapCtrl(mgrRaw)}
	setCtrlHandler(c.swConn, sw.CtrlHandlerFor(shard))
	setCtrlHandler(c.mgrConn, m.NewSession(c.mgrConn).Handle)
	return c
}

// wireControl connects one switch to every fabric-manager shard (and,
// when configured, each shard's standby). Every primary channel is
// built before the first standby one, so provisioning a standby leaves
// the primaries' construction order — and with it their tie-break
// ranks — alone.
func (f *Fabric) wireControl(id topo.NodeID, sw *pswitch.Switch) {
	chans := make([]*ctrlChan, len(f.Mgrs))
	conns := make([]ctrlnet.Conn, len(f.Mgrs))
	for i, m := range f.Mgrs {
		chans[i] = f.newCtrlChan(id, sw, i, m)
		conns[i] = chans[i].swConn
	}
	for i, sb := range f.Standbys {
		chans[i].standby = f.newCtrlChan(id, sw, i, sb)
		conns[i] = &muxConn{primary: chans[i].swConn, mirror: chans[i].standby.swConn}
	}
	sw.SetControlShards(conns)
	f.ctrl[id] = chans
}

// wireStandby sets up one passive mirror manager per shard and the
// heartbeat channel each shard's takeover watchdog listens on. Called
// from Build before the switches are wired.
func (f *Fabric) wireStandby() {
	n := len(f.Mgrs)
	f.Standbys = make([]*fabricmgr.Manager, n)
	f.hbPrimary = make([]*ctrlnet.SimConn, n)
	for i := 0; i < n; i++ {
		i := i
		sb := fabricmgr.New()
		sb.SetShard(i, n)
		sb.SetPassive(true)
		sb.SetJournal(f.Obs.Journal(standbyName(i), 2048, f.Eng.Now))
		f.Standbys[i] = sb
		hbP, hbS := ctrlnet.SimPipe(f.Dom, f.Eng, f.Eng, ctrlnet.PipeConfig{Delay: f.Opts.CtrlDelay})
		f.hbPrimary[i] = hbP
		hbS.SetHandler(func(m ctrlmsg.Msg) {
			if _, ok := m.(ctrlmsg.Heartbeat); ok {
				f.lastBeat[i] = f.Eng.Now()
			}
		})
		f.Eng.NewTicker(hbInterval, hbInterval, func() {
			_ = hbP.Send(ctrlmsg.Heartbeat{Epoch: f.epoch})
		})
		f.Eng.NewTicker(hbInterval, hbInterval, func() {
			if f.tookOver[i] {
				return
			}
			if f.Eng.Now()-f.lastBeat[i] > hbTimeout {
				f.takeover(i)
			}
		})
	}
	f.Standby = f.Standbys[0]
}

// standbyName returns shard i's standby journal name; shard 0 keeps
// the historical unsharded name.
func standbyName(i int) string {
	if i == 0 {
		return "mgr-standby"
	}
	return fmt.Sprintf("mgr-standby%d", i)
}

// takeover promotes shard's standby: it goes active, becomes that
// shard's entry in f.Mgrs (and f.Manager, for shard 0), and resyncs
// the fabric to validate its mirrored state.
func (f *Fabric) takeover(shard int) {
	f.tookOver[shard] = true
	f.epoch++
	f.jFabric.Record(obs.Takeover, uint64(f.epoch), uint64(shard), 0, 0)
	sb := f.Standbys[shard]
	sb.SetPassive(false)
	f.Mgrs[shard] = sb
	if shard == 0 {
		f.Manager = sb
	}
	sb.BeginResync(f.epoch, f.standbyConns(shard))
	if f.OnTakeover != nil {
		f.OnTakeover(f.epoch)
	}
}

// TookOver reports whether any shard's standby has assumed control.
func (f *Fabric) TookOver() bool {
	for _, t := range f.tookOver {
		if t {
			return true
		}
	}
	return false
}

// ShardTookOver reports whether the given manager shard's standby has
// assumed control.
func (f *Fabric) ShardTookOver(shard int) bool {
	return shard >= 0 && shard < len(f.tookOver) && f.tookOver[shard]
}

// Epoch returns the current control-plane epoch: 0 at boot, bumped by
// every manager restart or standby takeover.
func (f *Fabric) Epoch() uint32 { return f.epoch }

// KillManager crashes the fabric manager process. Its ends of every
// control pipe go dead: frames from switches are silently discarded
// (or, under CtrlLoss, parked in the switches' retransmit buffers)
// and the manager transmits nothing — including heartbeats, which is
// what the standby's watchdog notices. The fabric's dataplane keeps
// forwarding on installed state; only reactive services (proxy ARP,
// DHCP, new fault reactions) go dark.
func (f *Fabric) KillManager() {
	f.jFabric.Record(obs.MgrKilled, uint64(f.epoch), 0, 0, 0)
	for i := range f.Mgrs {
		f.killShard(i)
	}
}

// KillManagerShard crashes one registry shard's manager, leaving the
// others serving: only mappings (and parked ARP queries) on the dead
// shard go dark until its standby takes over or it is restarted.
func (f *Fabric) KillManagerShard(shard int) {
	f.jFabric.Record(obs.MgrKilled, uint64(f.epoch), uint64(shard), 0, 0)
	f.killShard(shard)
}

func (f *Fabric) killShard(shard int) {
	f.mgrDown[shard] = true
	for _, id := range f.Spec.Switches() {
		f.ctrl[id][shard].mgrRaw.SetUp(false)
	}
	if f.hbPrimary != nil {
		f.hbPrimary[shard].SetUp(false)
	}
}

// ManagerAlive reports whether every (primary) manager shard is
// running.
func (f *Fabric) ManagerAlive() bool {
	for _, down := range f.mgrDown {
		if down {
			return false
		}
	}
	return true
}

// RestartManager boots a fresh, empty fabric manager on the same
// control network and triggers the resync handshake: every switch
// dumps its soft state (location, adjacency, host registry, leases,
// group memberships) and the new manager rebuilds the registry, fault
// matrix and multicast trees from scratch — the paper's §3.2
// soft-state claim, exercised end-to-end. The returned manager is
// also installed as f.Manager. Use f.Manager.SetOnSyncDone before
// running the engine to observe resync completion.
func (f *Fabric) RestartManager() *fabricmgr.Manager {
	f.epoch++
	f.jFabric.Record(obs.MgrRestarted, uint64(f.epoch), 0, 0, 0)
	for i := range f.Mgrs {
		f.restartShard(i)
	}
	return f.Manager
}

// RestartManagerShard boots a fresh manager for one registry shard and
// resyncs just that shard's slice of the fabric's soft state.
func (f *Fabric) RestartManagerShard(shard int) *fabricmgr.Manager {
	f.epoch++
	f.jFabric.Record(obs.MgrRestarted, uint64(f.epoch), uint64(shard), 0, 0)
	return f.restartShard(shard)
}

func (f *Fabric) restartShard(shard int) *fabricmgr.Manager {
	f.mgrDown[shard] = false
	m := fabricmgr.New()
	m.SetShard(shard, len(f.Mgrs))
	name := fmt.Sprintf("mgr#%d", f.epoch)
	if shard > 0 {
		name = fmt.Sprintf("mgr%d#%d", shard, f.epoch)
	}
	m.SetJournal(f.Obs.Journal(name, 2048, f.Eng.Now))
	f.Mgrs[shard] = m
	if shard == 0 {
		f.Manager = m
	}
	conns := make([]ctrlnet.Conn, 0, len(f.ctrl))
	for _, id := range f.Spec.Switches() {
		c := f.ctrl[id][shard]
		c.mgrRaw.SetUp(true)
		setCtrlHandler(c.mgrConn, m.NewSession(c.mgrConn).Handle)
		conns = append(conns, c.mgrConn)
	}
	if f.hbPrimary != nil {
		f.hbPrimary[shard].SetUp(true)
	}
	m.BeginResync(f.epoch, conns)
	return m
}

// standbyConns returns one shard's standby-side conns in blueprint
// order.
func (f *Fabric) standbyConns(shard int) []ctrlnet.Conn {
	conns := make([]ctrlnet.Conn, 0, len(f.ctrl))
	for _, id := range f.Spec.Switches() {
		conns = append(conns, f.ctrl[id][shard].standby.mgrConn)
	}
	return conns
}
