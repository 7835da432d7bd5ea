package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// oneShot runs a single-request session against a fresh server over an
// in-memory pipe and returns the response, once through the JSON line
// codec and once through the negotiated binary framing, so the two
// transports can be compared byte for byte.
func oneShot(tb testing.TB, line []byte, binaryFraming bool) (Response, error) {
	tb.Helper()
	cli, srvConn := net.Pipe()
	defer cli.Close()
	srv := NewServer(fuzzNetwork(tb))
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeSession(srvConn, srv.dispatch, SessionOptions{})
	}()
	defer func() { _ = srvConn.Close(); <-done }()
	_ = cli.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(cli)
	if !binaryFraming {
		if _, err := cli.Write(append(append([]byte(nil), line...), '\n')); err != nil {
			return Response{}, err
		}
		respLine, err := readLimitedLine(br)
		if err != nil {
			return Response{}, err
		}
		var resp Response
		if err := json.Unmarshal(respLine, &resp); err != nil {
			return Response{}, err
		}
		return resp, nil
	}
	if _, err := fmt.Fprintf(cli, "{\"op\":\"hello\",\"proto\":\"binary\"}\n"); err != nil {
		return Response{}, err
	}
	helloLine, err := readLimitedLine(br)
	if err != nil {
		return Response{}, err
	}
	var hello Response
	if err := json.Unmarshal(helloLine, &hello); err != nil {
		return Response{}, err
	}
	if !hello.OK || hello.Proto != ProtoBinary {
		return Response{}, fmt.Errorf("hello refused: %+v", hello)
	}
	const tag = 7
	if _, err := cli.Write(appendBinFrame(nil, tag, line)); err != nil {
		return Response{}, err
	}
	gotTag, payload, err := readBinFrame(br)
	if err != nil {
		return Response{}, err
	}
	if gotTag != tag {
		return Response{}, fmt.Errorf("response tag %d, want %d", gotTag, tag)
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// FuzzCodecParity is the differential fuzzer pinning the tentpole's
// compatibility claim: for any request payload, the JSON line codec and
// the negotiated binary framing produce the same response from the same
// server state. The transports may differ only in framing, never in
// meaning.
func FuzzCodecParity(f *testing.F) {
	f.Add([]byte(`{"op": "setup", "request": {"id": "press-42", "spec": {"pcr": 0.5, "scr": 0.05, "mbs": 8, "cdvt": 12}, "priority": 1, "route": [{"switch": "ring00", "in": 1, "out": 0}, {"switch": "ring01", "in": 0, "out": 0}], "delayBound": 64, "sourceCDV": 0}}`))
	f.Add([]byte(`{"op": "teardown", "id": "conn-id"}`))
	f.Add([]byte(`{"op": "list"}`))
	f.Add([]byte(`{"op": "bound", "route": [{"switch": "ring00", "in": 1, "out": 0}], "priority": 1}`))
	f.Add([]byte(`{"op": "inspect"}`))
	f.Add([]byte(`{"op": "audit"}`))
	f.Add([]byte(`{"op": "health"}`))
	f.Add([]byte(`{"op": "batch-setup", "requests": [{"id": "a", "spec": {"pcr": 0.1}, "priority": 1, "route": [{"switch": "ring00", "in": 1, "out": 0}]}]}`))
	f.Add([]byte(`{"op": "batch-teardown", "ids": ["a", "b"]}`))
	f.Add([]byte(`{"op": "setup"}`))
	f.Add([]byte(`{"op": ""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte("\x00\xff{"))

	f.Fuzz(func(t *testing.T, line []byte) {
		if len(line) == 0 || len(line) >= MaxLineBytes || bytes.ContainsAny(line, "\n\r") {
			// A newline is framing on the JSON side and payload on the
			// binary side; parity is only defined for one-line payloads.
			return
		}
		var probe Request
		if err := json.Unmarshal(line, &probe); err == nil {
			if probe.Op == OpHello {
				// Negotiation is transport-specific by design: the JSON
				// loop switches codecs, the binary loop answers in-band.
				return
			}
			if probe.TimeoutMillis != 0 {
				// A propagated deadline races the handler; outcomes are
				// legitimately timing-dependent.
				return
			}
		}
		jsonResp, jsonErr := oneShot(t, line, false)
		binResp, binErr := oneShot(t, line, true)
		if (jsonErr == nil) != (binErr == nil) {
			t.Fatalf("transport divergence for %q: json err=%v, binary err=%v", line, jsonErr, binErr)
		}
		if jsonErr != nil {
			return
		}
		jb, err := json.Marshal(jsonResp)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := json.Marshal(binResp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jb, bb) {
			t.Fatalf("codec parity broken for %q:\n  json:   %s\n  binary: %s", line, jb, bb)
		}
	})
}

// TestHelloNegotiatesBinary: Dial against a default server lands on the
// binary framing and the client works end to end on it.
func TestHelloNegotiatesBinary(t *testing.T) {
	client, route := startServer(t, nil)
	if client.Proto() != ProtoBinary {
		t.Fatalf("negotiated proto = %q, want binary", client.Proto())
	}
	adm, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	})
	if err != nil {
		t.Fatal(err)
	}
	if adm.ID != "c1" {
		t.Fatalf("admission = %+v", adm)
	}
	if err := client.Teardown(context.Background(), "c1"); err != nil {
		t.Fatal(err)
	}
}

// helloPeer is a server that predates or refuses the binary framing: it
// answers the first line of one connection with reply (nothing at all
// when reply is empty), then reads until the client closes, which it
// reports on closed. rest holds what it read after the hello; read it
// only once closed is.
func helloPeer(t *testing.T, reply string) (addr string, closed <-chan struct{}, rest *bytes.Buffer) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	done := make(chan struct{})
	rest = new(bytes.Buffer)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.ReadString('\n'); err != nil {
			return
		}
		if reply != "" {
			if _, err := fmt.Fprintln(conn, reply); err != nil {
				return
			}
		}
		_, _ = io.Copy(rest, br)
		close(done)
	}()
	return l.Addr().String(), done, rest
}

// awaitClosed fails the test unless the client closed its end of the
// peer's connection.
func awaitClosed(t *testing.T, closed <-chan struct{}) {
	t.Helper()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Dial left the refused connection open")
	}
}

// TestDialFailsOnRefusedHello: a server that answers the hello with a
// refusal — unknown-op from a server that predates the framing,
// unsupported-proto from one that will not speak it — fails Dial with an
// error naming the address and the server's code, and the connection is
// closed.
func TestDialFailsOnRefusedHello(t *testing.T) {
	for _, tc := range []struct{ code, reply string }{
		{CodeUnknownOp, `{"ok":false,"error":"unknown op \"hello\"","code":"unknown-op"}`},
		{CodeUnsupportedProto, `{"ok":false,"error":"binary framing disabled","code":"unsupported-proto","proto":"json"}`},
	} {
		t.Run(tc.code, func(t *testing.T) {
			addr, closed, _ := helloPeer(t, tc.reply)
			client, err := Dial(addr)
			if err == nil {
				_ = client.Close()
				t.Fatal("Dial succeeded against a server refusing the binary framing")
			}
			var re *RemoteError
			if !errors.As(err, &re) || re.Code != tc.code {
				t.Fatalf("Dial = %v, want a RemoteError with code %s", err, tc.code)
			}
			if !strings.Contains(err.Error(), addr) {
				t.Fatalf("Dial error %q does not name %s", err, addr)
			}
			awaitClosed(t, closed)
		})
	}
}

// TestHelloUnknownProtoRefused: an unrecognized protocol name draws
// unsupported-proto, and the connection stays usable on JSON.
func TestHelloUnknownProtoRefused(t *testing.T) {
	client, _ := startServer(t, nil)
	conn, err := net.Dial("tcp", clientAddr(t, client))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "{\"op\":\"hello\",\"proto\":\"carrier-pigeon\"}\n"); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, CodeUnsupportedProto) {
		t.Fatalf("response = %q, want %s", line, CodeUnsupportedProto)
	}
	if _, err := fmt.Fprintf(conn, "{\"op\":\"list\"}\n"); err != nil {
		t.Fatal(err)
	}
	line, err = br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"ok":true`) {
		t.Fatalf("connection unusable after refused hello: %q", line)
	}
}

// lineCall writes req as one JSON line on a raw connection and decodes
// the one response line.
func lineCall(t *testing.T, conn net.Conn, br *bufio.Reader, req Request) Response {
	t.Helper()
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("response %q: %v", line, err)
	}
	return resp
}

// TestLineProtocolOverListener: a peer that never sends the hello (nc,
// a script) is served newline-delimited JSON for the whole connection.
func TestLineProtocolOverListener(t *testing.T) {
	client, route := startServer(t, nil)
	conn, err := net.Dial("tcp", clientAddr(t, client))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	req := core.ConnRequest{ID: "line", Spec: traffic.CBR(0.1), Priority: 1, Route: route}
	if resp := lineCall(t, conn, br, Request{Op: OpSetup, Request: &req}); !resp.OK || resp.Admission == nil || resp.Admission.ID != "line" {
		t.Fatalf("setup = %+v", resp)
	}
	if resp := lineCall(t, conn, br, Request{Op: OpList}); !resp.OK || len(resp.Connections) != 1 || resp.Connections[0] != "line" {
		t.Fatalf("list = %+v", resp)
	}
	if resp := lineCall(t, conn, br, Request{Op: OpTeardown, ID: "line"}); !resp.OK {
		t.Fatalf("teardown = %+v", resp)
	}
	if resp := lineCall(t, conn, br, Request{Op: OpList}); !resp.OK || len(resp.Connections) != 0 {
		t.Fatalf("list after teardown = %+v", resp)
	}
}

// TestDialFailsOnSilentServer: a listener that accepts but never answers
// the hello fails Dial once helloTimeout has passed — it does not hang —
// and the connection is closed.
func TestDialFailsOnSilentServer(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the hello timeout")
	}
	addr, closed, _ := helloPeer(t, "")
	start := time.Now()
	client, err := Dial(addr)
	if err == nil {
		_ = client.Close()
		t.Fatal("Dial succeeded against a silent server")
	}
	if elapsed := time.Since(start); elapsed > helloTimeout+5*time.Second {
		t.Fatalf("Dial took %v, want ~%v", elapsed, helloTimeout)
	}
	if !strings.Contains(err.Error(), addr) {
		t.Fatalf("Dial error %q does not name %s", err, addr)
	}
	awaitClosed(t, closed)
}

// TestPipelinedClientConcurrency hammers one binary connection from many
// goroutines: every request must get its own response back (tags never
// cross-wire) with no head-of-line blocking deadlocks.
func TestPipelinedClientConcurrency(t *testing.T) {
	client, route := startServer(t, map[core.Priority]float64{1: 1 << 20})
	if client.Proto() != ProtoBinary {
		t.Fatalf("proto = %q, want binary", client.Proto())
	}
	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				id := core.ConnID(fmt.Sprintf("p%d-%d", w, k))
				r := make(core.Route, len(route))
				copy(r, route)
				for h := range r {
					r[h].In = core.PortID(w + 1)
				}
				adm, err := client.Setup(context.Background(), core.ConnRequest{
					ID: id, Spec: traffic.CBR(0.0001), Priority: 1, Route: r,
				})
				if err != nil {
					errs <- fmt.Errorf("setup %s: %w", id, err)
					return
				}
				if adm.ID != id {
					errs <- fmt.Errorf("tag cross-wire: asked %s, got admission for %s", id, adm.ID)
					return
				}
				if err := client.Teardown(context.Background(), id); err != nil {
					errs <- fmt.Errorf("teardown %s: %w", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ids, err := client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("connections left behind: %v", ids)
	}
}

// TestPipelinedCancellationLeavesConnectionUsable: abandoning a waiter on
// context cancellation must not kill the connection.
func TestPipelinedCancellationLeavesConnectionUsable(t *testing.T) {
	client, route := startServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Setup(ctx, core.ConnRequest{
		ID: "gone", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled setup = %v, want context.Canceled", err)
	}
	// The connection still works; the abandoned response was dropped.
	for i := 0; i < 3; i++ {
		if _, err := client.List(context.Background()); err != nil {
			t.Fatalf("connection dead after cancellation: %v", err)
		}
	}
}

// TestBinaryCorruptFrameKillsConnection: a frame whose CRC does not match
// its payload is a hard protocol error — the stream position is gone, so
// the server must drop the connection rather than guess.
func TestBinaryCorruptFrameKillsConnection(t *testing.T) {
	client, _ := startServer(t, nil)
	conn, err := net.Dial("tcp", clientAddr(t, client))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "{\"op\":\"hello\",\"proto\":\"binary\"}\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := readLimitedLine(br); err != nil {
		t.Fatal(err)
	}
	frame := appendBinFrame(nil, 1, []byte(`{"op":"list"}`))
	frame[binCRCOff] ^= 0xff
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := readBinFrame(br); err == nil {
		t.Fatal("server answered a corrupt frame")
	}
}

// TestBinaryOversizedFrameRefused: a length prefix beyond MaxLineBytes is
// refused without allocating or reading the payload.
func TestBinaryOversizedFrameRefused(t *testing.T) {
	client, _ := startServer(t, nil)
	conn, err := net.Dial("tcp", clientAddr(t, client))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "{\"op\":\"hello\",\"proto\":\"binary\"}\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := readLimitedLine(br); err != nil {
		t.Fatal(err)
	}
	var hdr [binHdrSize]byte
	binary.BigEndian.PutUint32(hdr[binLenOff:], MaxLineBytes+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := readBinFrame(br); err == nil {
		t.Fatal("server accepted an oversized frame header")
	}
}

// appendBinFrame appends one binary frame carrying payload under tag.
func appendBinFrame(dst []byte, tag uint64, payload []byte) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, binHdrSize)...), payload...)
	sealBinFrame(dst[start:], tag)
	return dst
}

// TestBinFrameRoundTrip pins the frame layout: length, CRC and tag are
// big-endian at fixed offsets, and a frame survives append/read.
func TestBinFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"op":"list"}`)
	frame := appendBinFrame(nil, 0xdeadbeefcafe, payload)
	if len(frame) != binHdrSize+len(payload) {
		t.Fatalf("frame length %d, want %d", len(frame), binHdrSize+len(payload))
	}
	if got := binary.BigEndian.Uint32(frame[binLenOff:]); got != uint32(len(payload)) {
		t.Fatalf("length field = %d", got)
	}
	tag, back, err := readBinFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if tag != 0xdeadbeefcafe || !bytes.Equal(back, payload) {
		t.Fatalf("round trip: tag=%x payload=%q", tag, back)
	}
}
