// Binary framing, the per-connection session loop and the accept loop
// shared by the CAC server and the shard coordinator's wire front end.
//
// The wire protocol starts every connection in the newline-delimited
// JSON codec. The client (Dial) sends a hello line
// ({"op":"hello","proto":"binary"}); the server accepts, both sides
// switch, and every subsequent request and response is one
// length-prefixed frame:
//
//	[4B big-endian payload length][4B IEEE CRC32(payload)][8B tag][payload]
//
// — the journal's CRC32 record framing (internal/journal) extended with
// a tag. What the framing buys is integrity (CRC), no line-scanning, and
// above all pipelining: the tag names the request, responses echo it, and
// may arrive out of order. The payload is the JSON object the line
// protocol carries, unless the hello also agreed on compact payloads
// ("compact":true both ways): then every request and every response
// without a report struct is the fixed binary layout of compact.go,
// told apart from JSON by its first byte. A peer that never sends a
// hello (nc, socat, a script) is served JSON lines for the life of the
// connection.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// Protocol names negotiated by the hello exchange.
const (
	ProtoJSON   = "json"
	ProtoBinary = "binary"
)

// OpHello negotiates the connection's framing. It is handled by the
// session loop itself, before dispatch: a hello never reaches the
// overload limiter or the admission plane.
const OpHello = "hello"

// CodeUnsupportedProto marks a hello naming a framing this server does
// not speak. The response is always sent in the JSON codec and the
// connection stays on JSON lines.
const CodeUnsupportedProto = "unsupported-proto"

// Binary frame header layout: 4B payload length, 4B CRC32, 8B tag.
const (
	binLenOff  = 0
	binCRCOff  = 4
	binTagOff  = 8
	binHdrSize = 16
)

// defaultPipelineDepth bounds concurrently-executing requests per binary
// connection; excess frames wait in the reader.
const defaultPipelineDepth = 32

var errFrameTooLong = fmt.Errorf("%w: frame exceeds %d bytes", ErrProtocol, MaxLineBytes)

// sealBinFrame fills in the header of frame, whose payload follows the
// binHdrSize bytes reserved at its start.
func sealBinFrame(frame []byte, tag uint64) {
	payload := frame[binHdrSize:]
	binary.BigEndian.PutUint32(frame[binLenOff:], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[binCRCOff:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint64(frame[binTagOff:], tag)
}

// readBinFrame reads one binary frame. A corrupt or oversized frame is a
// hard protocol error: unlike the journal's torn-tail scan there is no
// "rest of file" to preserve — the stream position is lost, so the
// connection must die.
func readBinFrame(br *bufio.Reader) (tag uint64, payload []byte, err error) {
	var hdr [binHdrSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[binLenOff:])
	if n > MaxLineBytes {
		return 0, nil, errFrameTooLong
	}
	tag = binary.BigEndian.Uint64(hdr[binTagOff:])
	payload = make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated frame: %v", ErrProtocol, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(hdr[binCRCOff:]); got != want {
		return 0, nil, fmt.Errorf("%w: frame crc mismatch (got %08x want %08x)", ErrProtocol, got, want)
	}
	return tag, payload, nil
}

// SessionOptions configures ServeSession.
type SessionOptions struct {
	// IOTimeout bounds each request read and response write; zero means
	// no deadline.
	IOTimeout time.Duration
	// MaxPipeline bounds concurrently-executing requests on a binary
	// connection; zero selects defaultPipelineDepth. JSON connections
	// are always serial.
	MaxPipeline int
}

// ServeSession runs one connection's request loop against handle,
// including the hello negotiation: it starts in the JSON line codec and
// switches to binary framing when the client asks. JSON requests are
// handled serially in arrival order; binary requests are pipelined — a
// reader goroutine decodes frames and fans them out to bounded concurrent
// handler goroutines, and a writer goroutine serializes responses back as
// they finish, each echoing its request's tag. ServeSession returns when
// the connection errors or closes; closing the conn from another
// goroutine (server shutdown) unblocks it.
func ServeSession(conn net.Conn, handle func(Request) Response, opts SessionOptions) {
	br := bufio.NewReaderSize(conn, 64<<10)
	enc := json.NewEncoder(conn)
	for {
		if opts.IOTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(opts.IOTimeout))
		}
		line, err := readLimitedLine(br)
		if err != nil {
			// An oversized line gets an explicit protocol error before
			// the connection closes — never a silent truncation or hang.
			if errors.Is(err, bufio.ErrTooLong) {
				_ = enc.Encode(Response{
					Error: fmt.Sprintf("request too large: line exceeds %d bytes", MaxLineBytes),
					Code:  CodeProtocol,
				})
			}
			return
		}
		var req Request
		resp := Response{}
		// The newline is framing, not payload: decoding the bare payload
		// keeps a malformed line's error identical to the same payload's
		// in a binary frame.
		parseErr := json.Unmarshal(bytes.TrimSuffix(line, []byte{'\n'}), &req)
		switch {
		case parseErr != nil:
			resp.Error = fmt.Sprintf("malformed request: %v", parseErr)
			resp.Code = CodeProtocol
		case req.Op == OpHello:
			var switching bool
			resp, switching = helloResponse(req)
			if switching {
				if opts.IOTimeout > 0 {
					_ = conn.SetWriteDeadline(time.Now().Add(opts.IOTimeout))
				}
				if err := enc.Encode(resp); err != nil {
					return
				}
				// The bufio.Reader carries over: bytes the client
				// pipelined behind its hello are already binary frames.
				serveBinary(conn, br, handle, opts, resp.Compact)
				return
			}
		default:
			resp = handle(req)
		}
		if opts.IOTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(opts.IOTimeout))
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// helloResponse answers one hello request and reports whether the
// connection switches to binary framing after the response is written.
// A binary hello that offers compact payloads is granted them.
func helloResponse(req Request) (Response, bool) {
	switch req.Proto {
	case "", ProtoJSON:
		return Response{OK: true, Proto: ProtoJSON}, false
	case ProtoBinary:
		return Response{OK: true, Proto: ProtoBinary, Compact: req.Compact}, true
	default:
		return Response{
			Error: fmt.Sprintf("unsupported protocol %q", req.Proto),
			Code:  CodeUnsupportedProto,
			Proto: ProtoJSON,
		}, false
	}
}

// readLimitedLine reads one newline-terminated line of at most
// MaxLineBytes, returning bufio.ErrTooLong beyond that (mirroring the
// bufio.Scanner contract serveConn historically relied on). A final
// unterminated line before EOF is returned as-is.
func readLimitedLine(br *bufio.Reader) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		// ReadSlice's return is only valid until the next read; the line
		// must be accumulated when it spans buffer fills.
		if buf == nil && err == nil {
			return chunk, nil
		}
		buf = append(buf, chunk...)
		switch {
		case err == nil:
			return buf, nil
		case errors.Is(err, bufio.ErrBufferFull):
			// A full buffer with no newline at the cap is oversized: the
			// scanner this replaced errored as soon as its MaxLineBytes
			// buffer filled, so waiting for more bytes here would hang a
			// peer that stopped exactly at the limit.
			if len(buf) >= MaxLineBytes {
				return nil, bufio.ErrTooLong
			}
		case errors.Is(err, io.EOF) && len(buf) > 0:
			return buf, nil
		default:
			return nil, err
		}
	}
}

// taggedResponse pairs a finished response with the request tag it
// answers.
type taggedResponse struct {
	tag  uint64
	resp Response
}

// serveBinary runs the pipelined binary loop: this goroutine reads and
// decodes frames, a bounded pool of handler goroutines executes them
// concurrently, and one writer goroutine serializes completed responses
// back in completion order. compact says the hello agreed on compact
// payloads.
func serveBinary(conn net.Conn, br *bufio.Reader, handle func(Request) Response, opts SessionOptions, compact bool) {
	depth := opts.MaxPipeline
	if depth <= 0 {
		depth = defaultPipelineDepth
	}
	out := make(chan taggedResponse, depth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var frame []byte
		for tr := range out {
			var err error
			frame, err = appendResponse(append(frame[:0], make([]byte, binHdrSize)...), &tr.resp, compact)
			if err != nil {
				// An unencodable response kills the connection, exactly
				// as in the JSON loop; the fuzzer pins that responses
				// always encode.
				_ = conn.Close()
				continue // drain the channel so handlers never block
			}
			sealBinFrame(frame, tr.tag)
			if opts.IOTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(opts.IOTimeout))
			}
			if _, err := conn.Write(frame); err != nil {
				// Reader sees the closed conn and stops feeding us.
				_ = conn.Close()
			}
		}
	}()

	var wg sync.WaitGroup
	sem := make(chan struct{}, depth)
	for {
		if opts.IOTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(opts.IOTimeout))
		}
		tag, payload, err := readBinFrame(br)
		if err != nil {
			break
		}
		req, uerr := decodeRequest(payload, compact)
		if uerr != nil {
			out <- taggedResponse{tag, Response{
				Error: fmt.Sprintf("malformed request: %v", uerr),
				Code:  CodeProtocol,
			}}
			continue
		}
		if req.Op == OpHello {
			// Re-negotiation inside a binary stream is meaningless;
			// answer in-band rather than killing the pipeline.
			resp, _ := helloResponse(req)
			resp.Proto, resp.Compact = ProtoBinary, compact
			out <- taggedResponse{tag, resp}
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(tag uint64, req Request) {
			defer wg.Done()
			resp := handle(req)
			<-sem
			out <- taggedResponse{tag, resp}
		}(tag, req)
	}
	wg.Wait()
	close(out)
	<-writerDone
}

// Sessions is the accept loop the CAC server and the shard coordinator's
// front end share: it runs ServeSession on every accepted connection and
// tracks the live ones, so Close can end them all. The zero value is
// ready to use.
type Sessions struct {
	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// Serve accepts connections on l until Close, serving each with
// ServeSession(conn, handle, opts). It always returns a non-nil error
// (ErrServerClosed after Close).
func (s *Sessions) Serve(l net.Listener, handle func(Request) Response, opts SessionOptions) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		s.mu.Lock()
		closed := s.closed
		if err == nil && !closed {
			if s.conns == nil {
				s.conns = make(map[net.Conn]struct{})
			}
			s.conns[conn] = struct{}{}
			s.wg.Add(1)
		}
		s.mu.Unlock()
		switch {
		case closed:
			if err == nil {
				_ = conn.Close()
			}
			return ErrServerClosed
		case err != nil:
			return fmt.Errorf("wire: accept: %w", err)
		}
		go func() {
			defer func() {
				_ = conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.wg.Done()
			}()
			ServeSession(conn, handle, opts)
		}()
	}
}

// stop closes the listener and marks the loop closed, so Serve returns
// and tracks no further connection. It returns the sessions live at that
// moment with the listener's close error; ok is false when the loop was
// already stopped.
func (s *Sessions) stop() (conns []net.Conn, ok bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, nil
	}
	s.closed = true
	l := s.listener
	conns = make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		err = l.Close()
	}
	return conns, true, err
}

// end closes conns and waits for every session goroutine to finish.
func (s *Sessions) end(conns []net.Conn) {
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// Close stops accepting, closes every live session and waits for their
// goroutines to finish. A second Close is a no-op.
func (s *Sessions) Close() error {
	conns, ok, err := s.stop()
	if ok {
		s.end(conns)
	}
	return err
}
