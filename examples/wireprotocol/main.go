// Wireprotocol: the switch ↔ fabric-manager control plane is a real
// wire protocol, not an in-process shortcut. This example serves the
// fabric manager on a loopback TCP socket and drives it from a client
// that speaks only bytes — Hello, location report, PMAC registration,
// pod assignment and proxy ARP — the way an out-of-simulator switch
// (or an operator tool) would.
package main

import (
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/fabricmgr"
)

func main() {
	mgr := fabricmgr.New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	fmt.Printf("fabric manager listening on %s\n", ln.Addr())

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// One session per switch connection, handler closed over
			// the session it feeds. Only one switch connects here, so
			// its read goroutine is the manager's only caller; a server
			// of many switches serializes Handle (cmd/fabricmgrd).
			ready := make(chan struct{})
			var sess *fabricmgr.Session
			tc := ctrlnet.NewTCPConn(conn, func(m ctrlmsg.Msg) {
				<-ready
				sess.Handle(m)
			})
			sess = mgr.NewSession(tc)
			close(ready)
		}
	}()

	// The "switch": a TCP client speaking the binary control protocol.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	replies := make(chan ctrlmsg.Msg, 16)
	sw := ctrlnet.NewTCPConn(raw, func(m ctrlmsg.Msg) { replies <- m })
	defer sw.Close()

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	wait := func() ctrlmsg.Msg {
		select {
		case m := <-replies:
			return m
		case <-time.After(5 * time.Second):
			log.Fatal("timed out waiting for the fabric manager")
			return nil
		}
	}

	must(sw.Send(ctrlmsg.Hello{Switch: 7}))
	must(sw.Send(ctrlmsg.LocationReport{Switch: 7, Loc: ctrlmsg.Loc{Level: ctrlmsg.LevelEdge, Pod: 0, Pos: 0}}))
	fmt.Println("→ hello + location report sent")

	must(sw.Send(ctrlmsg.PodRequest{Switch: 7}))
	fmt.Printf("← %v\n", wait()) // PodAssign

	ip := netip.MustParseAddr("10.0.0.42")
	pm := ether.Addr{0x00, 0x00, 0x00, 0x02, 0x00, 0x01}
	must(sw.Send(ctrlmsg.PMACRegister{Switch: 7, IP: ip, AMAC: ether.Addr{2, 0, 0, 0, 0, 42}, PMAC: pm}))
	must(sw.Send(ctrlmsg.ARPQuery{Switch: 7, QueryID: 1, TargetIP: ip}))
	ans := wait().(ctrlmsg.ARPAnswer)
	fmt.Printf("← proxy ARP answer: found=%v %v is at PMAC %v\n", ans.Found, ip, ans.PMAC)

	stats := sw.Stats()
	fmt.Printf("\nwire traffic: %d messages, %d bytes — all through the length-prefixed binary codec\n",
		stats.Msgs, stats.Bytes)
}
