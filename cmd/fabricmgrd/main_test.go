package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/netip"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/fabricmgr"
)

// TestServeConcurrentSessions runs two switch sessions against one
// daemon at once, each registering hosts while the stats line renders
// in a loop. Under `go test -race` it is the daemon's lock gate: every
// manager access — each Handle and the stats line's counter read —
// must sit inside the daemon's mutex.
func TestServeConcurrentSessions(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	const perSwitch = 50
	d := &daemon{mgr: fabricmgr.New()}

	var wg, served sync.WaitGroup
	errs := make(chan error, 2)
	for sw := 1; sw <= 2; sw++ {
		srv, cli := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			d.serve(srv)
		}()
		wg.Add(1)
		go func(sw int) {
			defer wg.Done()
			errs <- drive(cli, ctrlmsg.SwitchID(sw), perSwitch)
		}(sw)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for rendering := true; rendering; {
		select {
		case <-done:
			rendering = false
		default:
			d.statsLine()
		}
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if want := fmt.Sprintf("hosts=%d ", 2*perSwitch); !strings.Contains(d.statsLine(), want) {
		t.Fatalf("stats line %q, want %s", d.statsLine(), want)
	}
	served.Wait() // each serve returns once its switch hangs up
}

// drive plays one switch over conn: Hello, n PMAC registrations, then
// an ARP query for the last host, whose answer proves every earlier
// message on the connection was handled.
func drive(conn net.Conn, sw ctrlmsg.SwitchID, n int) error {
	answers := make(chan ctrlmsg.ARPAnswer, 1)
	c := ctrlnet.NewTCPConn(conn, func(m ctrlmsg.Msg) {
		if a, ok := m.(ctrlmsg.ARPAnswer); ok {
			answers <- a
		}
	})
	defer c.Close()
	msgs := []ctrlmsg.Msg{ctrlmsg.Hello{Switch: sw}}
	var ip netip.Addr
	for i := range n {
		ip = netip.AddrFrom4([4]byte{10, byte(sw), 0, byte(i)})
		pmac := ether.Addr{0, byte(sw), 0, 0, 0, byte(i)}
		msgs = append(msgs, ctrlmsg.PMACRegister{Switch: sw, IP: ip, AMAC: ether.Addr{2, byte(sw), 0, 0, 0, byte(i)}, PMAC: pmac})
	}
	msgs = append(msgs, ctrlmsg.ARPQuery{Switch: sw, QueryID: 1, TargetIP: ip})
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			return err
		}
	}
	select {
	case a := <-answers:
		if !a.Found {
			return fmt.Errorf("switch %d: last host %v not registered", sw, ip)
		}
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("switch %d: no ARP answer", sw)
	}
}
