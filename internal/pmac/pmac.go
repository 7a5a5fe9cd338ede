// Package pmac implements PortLand's hierarchical Pseudo MAC
// addressing, the paper's central mechanism (§3.1).
//
// A PMAC encodes a host's topological location in 48 bits:
//
//	pod(16) . position(8) . port(8) . vmid(16)
//
// Edge switches assign a PMAC to every AMAC (actual MAC) they observe,
// rewrite AMAC→PMAC on fabric ingress and PMAC→AMAC on egress, and
// register the mapping with the fabric manager. All fabric forwarding
// is longest-prefix matching over this hierarchy, which is what makes
// switch state O(k) instead of O(#hosts).
package pmac

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"

	"portland/internal/ether"
)

// PMAC is a decoded pseudo-MAC address.
type PMAC struct {
	Pod      uint16 // pod number; CorePod for core switches' own use
	Position uint8  // edge switch position within the pod
	Port     uint8  // edge switch port the host hangs off
	VMID     uint16 // multiplexes virtual machines behind one port
}

// CorePod is the reserved pod value LDP assigns to core switches.
const CorePod uint16 = 0xffff

// Addr packs the PMAC into a MAC address.
func (p PMAC) Addr() ether.Addr {
	return ether.Addr{
		byte(p.Pod >> 8), byte(p.Pod),
		p.Position, p.Port,
		byte(p.VMID >> 8), byte(p.VMID),
	}
}

// FromAddr unpacks a MAC address laid out as a PMAC.
func FromAddr(a ether.Addr) PMAC {
	return PMAC{
		Pod:      uint16(a[0])<<8 | uint16(a[1]),
		Position: a[2],
		Port:     a[3],
		VMID:     uint16(a[4])<<8 | uint16(a[5]),
	}
}

// String renders the PMAC in pod:position:port:vmid form.
func (p PMAC) String() string {
	return fmt.Sprintf("pmac(%d:%d:%d:%d)", p.Pod, p.Position, p.Port, p.VMID)
}

// Table is an edge switch's bidirectional AMAC↔PMAC map with
// per-(port,AMAC) VMID allocation, and each host's IP once learned.
// The zero value is not usable; construct with NewTable.
type Table struct {
	pod      uint16
	position uint8
	byAMAC   map[ether.Addr]PMAC
	byPMAC   map[ether.Addr]Host // PMAC addr -> the host behind it
	nextVMID map[uint8]uint16    // per edge port
}

// Host is one mapping of a Table: a host's actual MAC, the PMAC issued
// to it, and its IP (the zero Addr until learned). The IP sits beside
// the mapping because egress delivery checks it on every frame.
type Host struct {
	AMAC ether.Addr
	PMAC PMAC
	IP   netip.Addr
}

// NewTable returns an empty table for the edge switch at (pod,
// position). The switch calls SetLocation once LDP resolves these.
func NewTable() *Table {
	return &Table{
		byAMAC:   make(map[ether.Addr]PMAC),
		byPMAC:   make(map[ether.Addr]Host),
		nextVMID: make(map[uint8]uint16),
	}
}

// SetLocation fixes the pod and position used for future assignments.
func (t *Table) SetLocation(pod uint16, position uint8) {
	t.pod = pod
	t.position = position
}

// Assign returns the PMAC for amac seen on the given edge port,
// allocating a fresh VMID on first sight. The bool reports whether the
// mapping is new.
func (t *Table) Assign(amac ether.Addr, port uint8) (PMAC, bool) {
	if p, ok := t.byAMAC[amac]; ok {
		return p, false
	}
	vmid := t.nextVMID[port]
	if vmid == 0 {
		// VMIDs start at 1 so no PMAC is ever the all-zero MAC
		// (which host stacks treat as invalid).
		vmid = 1
	}
	t.nextVMID[port] = vmid + 1
	p := PMAC{Pod: t.pod, Position: t.position, Port: port, VMID: vmid}
	t.byAMAC[amac] = p
	t.byPMAC[p.Addr()] = Host{AMAC: amac, PMAC: p}
	return p, true
}

// Install records an explicit AMAC↔PMAC mapping and the host's IP, as
// replayed by the fabric manager to a rebooted edge
// (ctrlmsg.HostInstall). The VMID counter advances past the installed
// VMID so later Assign calls on the same port never collide with
// replayed mappings.
func (t *Table) Install(amac ether.Addr, p PMAC, ip netip.Addr) {
	if old, ok := t.byAMAC[amac]; ok {
		delete(t.byPMAC, old.Addr())
	}
	t.byAMAC[amac] = p
	t.byPMAC[p.Addr()] = Host{AMAC: amac, PMAC: p, IP: ip}
	if next := t.nextVMID[p.Port]; p.VMID >= next {
		t.nextVMID[p.Port] = p.VMID + 1
	}
}

// LookupAMAC returns the PMAC previously assigned to amac.
func (t *Table) LookupAMAC(amac ether.Addr) (PMAC, bool) {
	p, ok := t.byAMAC[amac]
	return p, ok
}

// LookupPMAC returns the host behind a PMAC address.
func (t *Table) LookupPMAC(addr ether.Addr) (Host, bool) {
	h, ok := t.byPMAC[addr]
	return h, ok
}

// SetIP records ip as the IP of the host behind p and reports whether
// that changed it. A PMAC that maps to no host is left alone.
func (t *Table) SetIP(p PMAC, ip netip.Addr) bool {
	h, ok := t.byPMAC[p.Addr()]
	if !ok || h.IP == ip {
		return false
	}
	h.IP = ip
	t.byPMAC[p.Addr()] = h
	return true
}

// Hosts returns every mapping, sorted by AMAC.
func (t *Table) Hosts() []Host {
	out := make([]Host, 0, len(t.byPMAC))
	for _, h := range t.byPMAC {
		out = append(out, h)
	}
	slices.SortFunc(out, func(a, b Host) int { return bytes.Compare(a.AMAC[:], b.AMAC[:]) })
	return out
}

// Remove deletes a mapping (VM migrated away or host unplugged).
func (t *Table) Remove(amac ether.Addr) {
	if p, ok := t.byAMAC[amac]; ok {
		delete(t.byAMAC, amac)
		delete(t.byPMAC, p.Addr())
	}
}

// Len returns the number of live mappings — the edge switch's
// PMAC-table state, reported by the Table 1 experiment.
func (t *Table) Len() int { return len(t.byAMAC) }
