package faultinject

import (
	"bufio"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer echoes lines back and counts what reaches it: connections
// accepted and connections whose far end went away.
type echoServer struct {
	ln       net.Listener
	accepted atomic.Int32
	ended    chan struct{}
}

func newEchoServer(t *testing.T) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := &echoServer{ln: ln, ended: make(chan struct{}, 16)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.accepted.Add(1)
			go func() {
				defer func() { e.ended <- struct{}{} }()
				defer c.Close()
				r := bufio.NewReader(c)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if _, err := c.Write([]byte(line)); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return e
}

func (e *echoServer) addr() string { return e.ln.Addr().String() }

// roundTrip dials addr, echoes one line and returns the live connection.
func roundTrip(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(c).ReadString('\n'); err != nil || line != "ping\n" {
		t.Fatalf("echo through %s = %q, %v", addr, line, err)
	}
	return c
}

// severed requires that c's peer closed it.
func severed(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Fatalf("connection still open after the cut (read err %v)", err)
	}
}

// TestTCPProxyCutHealPoint pins the one cuttable link every partition
// goes through: Cut severs live connections toward both ends and refuses
// new ones, Heal restores the link, and point follows a node rebooted on
// a new port.
func TestTCPProxyCutHealPoint(t *testing.T) {
	first := newEchoServer(t)
	p, err := newTCPProxy(first.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	live := roundTrip(t, p.addr())

	p.Cut()
	severed(t, live)
	select {
	case <-first.ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the cut left the upstream connection open")
	}
	refused, err := net.Dial("tcp", p.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer refused.Close()
	severed(t, refused)
	if n := first.accepted.Load(); n != 1 {
		t.Fatalf("the cut link reached the node %d times, want only the first connection", n)
	}

	p.Heal()
	roundTrip(t, p.addr())

	first.ln.Close()
	second := newEchoServer(t)
	p.point(second.addr())
	roundTrip(t, p.addr())
	if n := second.accepted.Load(); n != 1 {
		t.Fatalf("the rebooted node saw %d connections through the re-pointed link, want 1", n)
	}
}
