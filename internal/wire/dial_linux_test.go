package wire

import (
	"errors"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// fullBacklogListener listens on loopback with an accept backlog of
// zero and never accepts, then queues connections until the backlog is
// full. From then on the kernel drops every SYN to the address, as a
// host that black-holes connects would.
func fullBacklogListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := os.NewFile(uintptr(fd), "listener")
	defer f.Close()
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	l, err := net.FileListener(f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	addr := l.Addr().String()
	// A backlog of zero holds one connection; the loop bound only guards
	// against a kernel that holds a few more.
	for i := 0; i < 8; i++ {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			return addr
		}
		t.Cleanup(func() { _ = conn.Close() })
	}
	t.Fatalf("the backlog of %s never filled", addr)
	return ""
}

// TestDialTimesOutOnDroppedConnect: a connect the peer never completes
// fails the dial at its timeout instead of waiting out the kernel's SYN
// retries.
func TestDialTimesOutOnDroppedConnect(t *testing.T) {
	addr := fullBacklogListener(t)
	client, err := dial(addr, 100*time.Millisecond)
	if err == nil {
		_ = client.Close()
		t.Fatal("dial succeeded against a full backlog")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("dial = %v, want a timeout error", err)
	}
}
