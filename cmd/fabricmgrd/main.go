// Command fabricmgrd runs the PortLand fabric manager as a standalone
// network daemon: switches (or operator tooling) connect over TCP and
// speak the binary control protocol. This is the deployment shape the
// paper describes — a logically centralized manager on the control
// network, holding only soft state that reconnecting switches rebuild.
//
// Usage:
//
//	fabricmgrd -listen 127.0.0.1:7000 -stats 5s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/fabricmgr"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7000", "address to serve the control protocol on")
		statsIvl = flag.Duration("stats", 10*time.Second, "interval between stats lines (0 disables)")
	)
	flag.Parse()

	d := &daemon{mgr: fabricmgr.New()}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("fabric manager serving on %s", ln.Addr())

	if *statsIvl > 0 {
		go func() {
			for range time.Tick(*statsIvl) {
				log.Print(d.statsLine())
			}
		}()
	}

	for {
		conn, err := ln.Accept()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		go d.serve(conn)
	}
}

// daemon serves one fabric manager to every switch connection. The
// manager is not safe for concurrent use, so mu serializes each
// session's Handle and the stats line's read of the counters.
type daemon struct {
	mu  sync.Mutex
	mgr *fabricmgr.Manager
}

// statsLine renders the manager's registry size and counters.
func (d *daemon) statsLine() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Sprintf("stats: hosts=%d %+v", d.mgr.NumHosts(), d.mgr.Stats)
}

// serve binds one switch connection to a manager session and pumps it
// until the peer disconnects.
func (d *daemon) serve(conn net.Conn) {
	log.Printf("switch connected from %s", conn.RemoteAddr())
	ready := make(chan struct{})
	var sess *fabricmgr.Session
	tc := ctrlnet.NewTCPConn(conn, func(m ctrlmsg.Msg) {
		<-ready
		d.mu.Lock()
		defer d.mu.Unlock()
		sess.Handle(m)
	})
	sess = d.mgr.NewSession(tc)
	close(ready)
	<-tc.Done() // read loop exits on disconnect or protocol error
	if err := tc.ReadErr(); err != nil {
		log.Printf("switch %s: %v", conn.RemoteAddr(), err)
	}
	log.Printf("switch %s disconnected", conn.RemoteAddr())
}
