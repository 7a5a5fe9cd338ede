// Fabric-manager survivability: manager kill/restart with soft-state
// resync, the optional heartbeat watchdog that restarts a silent
// shard, and the lossy-control-channel wiring (Reliable wrappers over
// the switch↔manager pipes).
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

// The one-way switch↔fabric-manager latency (a rack-local control
// network), the heartbeat cadence from each manager shard to its
// watchdog, and the silence that triggers takeover.
const (
	ctrlDelay  = 20 * time.Microsecond
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
}

// wrapCtrl returns the Conn the protocol speaks over a raw pipe end.
// On a lossless control network it is the bare pipe (zero overhead —
// the Figure 13 byte counts stay exact); with CtrlLoss configured it
// is a Reliable go-back-N channel whose retransmits mask the loss.
func (f *Fabric) wrapCtrl(c *ctrlnet.SimConn) ctrlnet.Conn {
	if f.Opts.CtrlLoss <= 0 {
		return c
	}
	return ctrlnet.NewReliable(c.Sched(), c)
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
		Delay:    ctrlDelay,
		LossRate: f.Opts.CtrlLoss,
	})
}

// wireControl connects one switch to every fabric-manager shard.
func (f *Fabric) wireControl(id topo.NodeID, sw *pswitch.Switch) {
	chans := make([]*ctrlChan, len(f.Mgrs))
	conns := make([]ctrlnet.Conn, len(f.Mgrs))
	for i, m := range f.Mgrs {
		swRaw, mgrRaw := f.ctrlPipe(f.engOf[id])
		c := &ctrlChan{swRaw: swRaw, mgrRaw: mgrRaw, swConn: f.wrapCtrl(swRaw), mgrConn: f.wrapCtrl(mgrRaw)}
		setCtrlHandler(c.swConn, sw.CtrlHandlerFor(i))
		setCtrlHandler(c.mgrConn, m.NewSession(c.mgrConn).Handle)
		chans[i], conns[i] = c, c.swConn
	}
	sw.SetControlShards(conns)
	f.ctrl[id] = chans
}

// wireWatchdog gives each manager shard a heartbeat channel and a
// watchdog that calls takeover when the beats stop. Called from Build
// before the switches are wired.
func (f *Fabric) wireWatchdog() {
	n := len(f.Mgrs)
	f.hbPrimary = make([]*ctrlnet.SimConn, n)
	for i := 0; i < n; i++ {
		i := i
		hbP, hbS := ctrlnet.SimPipe(f.Dom, f.Eng, f.Eng, ctrlnet.PipeConfig{Delay: ctrlDelay})
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
}

// takeover replaces a silent shard through restartShard, the path
// RestartManager takes; only the fabric journal's record differs.
func (f *Fabric) takeover(shard int) {
	f.tookOver[shard] = true
	f.epoch++
	f.jFabric.Record(obs.Takeover, uint64(f.epoch), uint64(shard), 0, 0)
	f.restartShard(shard)
}

// TookOver reports whether the watchdog has replaced any shard.
func (f *Fabric) TookOver() bool {
	for _, t := range f.tookOver {
		if t {
			return true
		}
	}
	return false
}

// ShardTookOver reports whether the watchdog has replaced the given
// manager shard.
func (f *Fabric) ShardTookOver(shard int) bool {
	return shard >= 0 && shard < len(f.tookOver) && f.tookOver[shard]
}

// Epoch returns the current control-plane epoch: 0 at boot, bumped by
// every manager restart or watchdog takeover.
func (f *Fabric) Epoch() uint32 { return f.epoch }

// KillManager crashes the fabric manager process. Its ends of every
// control pipe go dead: frames from switches are silently discarded
// (or, under CtrlLoss, parked in the switches' retransmit buffers)
// and the manager transmits nothing — including heartbeats, which is
// what the shard's watchdog notices. The fabric's dataplane keeps
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
// shard go dark until its watchdog takes over or it is restarted.
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

// restartShard boots a fresh manager for one registry shard on the dead
// one's pipes and resyncs that shard's slice of the fabric's soft
// state.
func (f *Fabric) restartShard(shard int) {
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
}
