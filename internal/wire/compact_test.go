package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// valueGen builds protocol values from fuzz bytes. It reaches every field
// of the compact layout, nil and empty slices, nil and zero pointers, -0,
// integers of every width and strings that are not valid UTF-8. An
// exhausted input reads as zeros.
type valueGen struct{ b []byte }

func (g *valueGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	v := g.b[0]
	g.b = g.b[1:]
	return v
}

func (g *valueGen) bool() bool { return g.byte()&1 == 1 }

// u64 reads 0 to 8 bytes, so small and full-width values are both common.
func (g *valueGen) u64() uint64 {
	var v uint64
	for n := g.byte() % 9; n > 0; n-- {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

func (g *valueGen) i64() int64 { return int64(g.u64()) }

func (g *valueGen) str() string {
	n := int(g.byte() % 8)
	if n > len(g.b) {
		n = len(g.b)
	}
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

func (g *valueGen) f64() float64 {
	switch g.byte() % 4 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(int8(g.byte())) / 4
	default:
		return math.Float64frombits(g.u64())
	}
}

// n reads a slice length; -1 stands for a nil slice.
func (g *valueGen) n() int { return int(g.byte()%4) - 1 }

func (g *valueGen) route() core.Route {
	n := g.n()
	if n < 0 {
		return nil
	}
	r := make(core.Route, n)
	for i := range r {
		r[i] = core.Hop{Switch: g.str(), In: core.PortID(g.i64()), Out: core.PortID(g.i64())}
	}
	return r
}

func (g *valueGen) conn() core.ConnRequest {
	return core.ConnRequest{
		ID:         core.ConnID(g.str()),
		Spec:       traffic.Spec{PCR: g.f64(), SCR: g.f64(), MBS: g.f64(), CDVT: g.f64()},
		Priority:   core.Priority(g.i64()),
		Route:      g.route(),
		DelayBound: g.f64(),
		SourceCDV:  g.f64(),
	}
}

func (g *valueGen) ids() []core.ConnID {
	n := g.n()
	if n < 0 {
		return nil
	}
	ids := make([]core.ConnID, n)
	for i := range ids {
		ids[i] = core.ConnID(g.str())
	}
	return ids
}

func (g *valueGen) floats() []float64 {
	n := g.n()
	if n < 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = g.f64()
	}
	return fs
}

func (g *valueGen) admission() *Admission {
	if !g.bool() {
		return nil
	}
	return &Admission{
		ID:                 core.ConnID(g.str()),
		PerHopGuaranteed:   g.floats(),
		PerHopComputed:     g.floats(),
		EndToEndGuaranteed: g.f64(),
		EndToEndComputed:   g.f64(),
	}
}

func (g *valueGen) request() Request {
	r := Request{Op: g.str()}
	if g.bool() {
		c := g.conn()
		r.Request = &c
	}
	r.ID = core.ConnID(g.str())
	r.Route = g.route()
	r.Priority = core.Priority(g.i64())
	r.Switch, r.From, r.To = g.str(), g.str(), g.str()
	r.TimeoutMillis = g.i64()
	r.Txn = g.str()
	r.TTLMillis = g.i64()
	r.PrepareEpoch, r.CoordEpoch = g.u64(), g.u64()
	r.Proto = g.str()
	if n := g.n(); n >= 0 {
		r.Requests = make([]core.ConnRequest, n)
		for i := range r.Requests {
			r.Requests[i] = g.conn()
		}
	}
	r.IDs = g.ids()
	r.Compact = g.bool()
	return r
}

// response builds a Response that sets only the fields compact payloads
// carry.
func (g *valueGen) response() Response {
	r := Response{OK: g.bool(), Error: g.str(), Rejected: g.bool(), Code: g.str()}
	r.Admission = g.admission()
	r.Connections = g.ids()
	r.Bound = g.f64()
	r.Warning = g.str()
	r.Overloaded = g.bool()
	r.RetryAfterMillis = g.i64()
	if g.bool() {
		r.Prepared = &PrepareReport{Txn: g.str(), Epoch: g.u64(), Admission: g.admission()}
	}
	if n := g.n(); n >= 0 {
		r.Results = make([]BatchResult, n)
		for i := range r.Results {
			r.Results[i] = BatchResult{
				ID: core.ConnID(g.str()), OK: g.bool(), Error: g.str(), Rejected: g.bool(),
				Code: g.str(), Admission: g.admission(), Warning: g.str(),
			}
		}
	}
	return r
}

// jsonRoundTrip is json.Marshal of v's JSON round trip into a fresh T.
func jsonRoundTrip[T any](t *testing.T, data []byte) []byte {
	t.Helper()
	var back T
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("json round trip: %v\n%s", err, data)
	}
	out, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxAllocPerByte bounds what a decode may allocate per payload byte: a
// zero core.ConnRequest (96 bytes in memory) is one mask byte on the
// wire, and no element is larger for its encoding.
const maxAllocPerByte = 128

// compactSeeds are payloads of the hot operations, so the decoder half
// of FuzzCompactParity mutates valid layouts as well as noise.
func compactSeeds() [][]byte {
	route := core.Route{{Switch: "ring00", In: 1, Out: 0}, {Switch: "ring01"}, {Switch: "ring02", Out: 3}}
	conn := core.ConnRequest{ID: "press-42", Spec: traffic.VBR(0.5, 0.05, 8).WithCDVT(12), Priority: 1, Route: route, DelayBound: 64}
	adm := &Admission{ID: "press-42", PerHopGuaranteed: []float64{32, 32, 32}, PerHopComputed: []float64{0, 1.5, math.Copysign(0, -1)}, EndToEndGuaranteed: 96, EndToEndComputed: 1.5}
	reqs := []Request{
		{Op: OpSetup, Request: &conn, TimeoutMillis: 5000},
		{Op: OpTeardown, ID: "press-42"},
		{Op: OpBatchSetup, Requests: []core.ConnRequest{conn, {ID: "b", Route: core.Route{}}}},
		{Op: OpBatchTeardown, IDs: []core.ConnID{"a", ""}},
		{Op: OpBound, Route: route, Priority: 2},
		{Op: OpShardCommit, Txn: "x1", Request: &conn, PrepareEpoch: 3, CoordEpoch: 1 << 40},
		{Op: OpHello, Proto: ProtoBinary, Compact: true},
	}
	resps := []Response{
		{OK: true, Admission: adm},
		{Error: "rejected", Rejected: true, Code: "delay-bound"},
		{OK: true, Connections: []core.ConnID{"a", "b"}, Bound: 12.25},
		{Error: "busy", Code: "overloaded-rate", Overloaded: true, RetryAfterMillis: 20},
		{OK: true, Prepared: &PrepareReport{Txn: "x1", Epoch: 2, Admission: adm}, Warning: "w"},
		{OK: true, Results: []BatchResult{{ID: "a", OK: true, Admission: adm}, {ID: "b", Error: "e", Rejected: true, Code: "c"}}},
	}
	var seeds [][]byte
	for i := range reqs {
		seeds = append(seeds, appendCompactRequest(nil, &reqs[i]))
	}
	for i := range resps {
		seeds = append(seeds, appendCompactResponse(nil, &resps[i]))
	}
	return seeds
}

// FuzzCompactParity is the oracle of the compact payload codec, in two
// halves. First, for any Request, and any Response that sets only the
// fields compact payloads carry, that json.Marshal accepts, the value
// read back from its compact payload marshals to the same JSON as the
// value read back from its JSON payload: the compact codec means what
// the JSON codec means. Second, arbitrary bytes fed to either decoder
// never panic and never allocate more than maxAllocPerByte per input
// byte, and whatever they decode to survives a compact round trip.
func FuzzCompactParity(f *testing.F) {
	for _, seed := range compactSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{compactV1})
	f.Add([]byte{compactV1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte("\x00\xff{\xc3\x28 not utf-8"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g := valueGen{data}
		req, resp := g.request(), g.response()
		if reqJSON, err := json.Marshal(req); err == nil {
			back, err := decodeCompactRequest(appendCompactRequest(nil, &req))
			if err != nil {
				t.Fatalf("compact request does not decode: %v\n%s", err, reqJSON)
			}
			if got, want := mustMarshal(t, back), jsonRoundTrip[Request](t, reqJSON); !bytes.Equal(got, want) {
				t.Fatalf("request parity broken:\n  compact: %s\n  json:    %s", got, want)
			}
		}
		if respJSON, err := json.Marshal(resp); err == nil {
			back, err := decodeCompactResponse(appendCompactResponse(nil, &resp))
			if err != nil {
				t.Fatalf("compact response does not decode: %v\n%s", err, respJSON)
			}
			if got, want := mustMarshal(t, back), jsonRoundTrip[Response](t, respJSON); !bytes.Equal(got, want) {
				t.Fatalf("response parity broken:\n  compact: %s\n  json:    %s", got, want)
			}
		}

		limit := uint64(maxAllocPerByte*len(data) + 1<<10)
		var reqErr, respErr error
		if n := allocatedBytes(func() { req, reqErr = decodeCompactRequest(data) }); n > limit {
			t.Fatalf("request decode of %d bytes allocated %d", len(data), n)
		}
		if n := allocatedBytes(func() { resp, respErr = decodeCompactResponse(data) }); n > limit {
			t.Fatalf("response decode of %d bytes allocated %d", len(data), n)
		}
		if reqErr == nil {
			again, err := decodeCompactRequest(appendCompactRequest(nil, &req))
			if err != nil || !bytes.Equal(mustMarshal(t, again), mustMarshal(t, req)) {
				t.Fatalf("decoded request %+v does not survive a round trip (err %v)", req, err)
			}
		}
		if respErr == nil {
			again, err := decodeCompactResponse(appendCompactResponse(nil, &resp))
			if err != nil || !bytes.Equal(mustMarshal(t, again), mustMarshal(t, resp)) {
				t.Fatalf("decoded response %+v does not survive a round trip (err %v)", resp, err)
			}
		}
	})
}

// TestCompactDecodeRefusesHostileInput: lengths beyond the payload,
// unknown mask bits, non-finite floats and trailing bytes are errors.
func TestCompactDecodeRefusesHostileInput(t *testing.T) {
	list := appendCompactRequest(nil, &Request{Op: OpList})
	nan := appendCompactRequest(nil, &Request{Op: OpSetup, Request: &core.ConnRequest{Spec: traffic.CBR(0.5)}})
	nan = append(nan[:len(nan)-8], 0, 0, 0, 0, 0, 0, 0xf8, 0x7f) // the PCR's bits become NaN
	for name, payload := range map[string][]byte{
		"empty":           {},
		"json":            []byte(`{"op":"list"}`),
		"string too long": {compactV1, 0x01, 0x40, 'l'},
		"huge count":      {compactV1, 0x80, 0x80, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"unknown field":   {compactV1, 0x80, 0x80, 0x08},
		"trailing bytes":  append(append([]byte(nil), list...), 0),
		"truncated":       list[:len(list)-1],
		"non-finite":      nan,
	} {
		if _, err := decodeCompactRequest(payload); err == nil {
			t.Errorf("%s: decoded %x", name, payload)
		}
	}
}

// setNonZero gives v a value other than its zero value.
func setNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(-3)
	case reflect.Uint64:
		v.SetUint(3)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	default:
		panic("setNonZero: unhandled kind " + v.Kind().String())
	}
}

// TestCompactCoversEveryField: every Request field, and every Response
// field that compactable lets through, survives a compact round trip, so
// a field added to either struct cannot silently drop off compact
// connections.
func TestCompactCoversEveryField(t *testing.T) {
	for i := 0; i < reflect.TypeOf(Request{}).NumField(); i++ {
		var req Request
		setNonZero(reflect.ValueOf(&req).Elem().Field(i))
		back, err := decodeCompactRequest(appendCompactRequest(nil, &req))
		if err != nil || !bytes.Equal(mustMarshal(t, back), mustMarshal(t, req)) {
			t.Errorf("Request.%s: compact round trip gave %+v (err %v)", reflect.TypeOf(req).Field(i).Name, back, err)
		}
	}
	for i := 0; i < reflect.TypeOf(Response{}).NumField(); i++ {
		var resp Response
		setNonZero(reflect.ValueOf(&resp).Elem().Field(i))
		if !compactable(&resp) {
			continue
		}
		back, err := decodeCompactResponse(appendCompactResponse(nil, &resp))
		if err != nil || !bytes.Equal(mustMarshal(t, back), mustMarshal(t, resp)) {
			t.Errorf("Response.%s: compact round trip gave %+v (err %v)", reflect.TypeOf(resp).Field(i).Name, back, err)
		}
	}
}

// TestCompactSetupAllocs pins the cost of the hot path: decoding a
// compact 3-hop setup request allocates only the connection request, its
// ID, its route and its three switch names, and the client encodes it
// into its frame with at most one allocation.
func TestCompactSetupAllocs(t *testing.T) {
	req := Request{Op: OpSetup, Request: &core.ConnRequest{
		ID: "press-42", Spec: traffic.VBR(0.5, 0.05, 8), Priority: 1, DelayBound: 64,
		Route: core.Route{{Switch: "ring00", In: 1}, {Switch: "ring01"}, {Switch: "ring02"}},
	}}
	payload := appendCompactRequest(nil, &req)
	var sink Request
	if got := testing.AllocsPerRun(200, func() { sink, _ = decodeCompactRequest(payload) }); got > 6 {
		t.Errorf("decoding a 3-hop setup allocates %.0f times, want at most 6", got)
	}
	if sink.Request == nil || len(sink.Request.Route) != 3 {
		t.Fatalf("decoded %+v", sink)
	}
	c := &Client{compact: true}
	if got := testing.AllocsPerRun(200, func() { _, _ = c.encode(&req) }); got > 1 {
		t.Errorf("encoding a 3-hop setup allocates %.0f times, want at most 1", got)
	}
}

// TestDialFallsBackToJSONPayloads: a server whose hello answer lacks
// "compact" (one that predates compact payloads) is sent JSON payloads.
func TestDialFallsBackToJSONPayloads(t *testing.T) {
	addr, closed, rest := helloPeer(t, `{"ok":true,"proto":"binary"}`)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if client.compact {
		t.Fatal("client negotiated compact payloads with a server that never offered them")
	}
	// The peer never answers; the request is on the wire before the
	// call starts waiting.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.List(ctx); err == nil {
		t.Fatal("List answered by a peer that never answers")
	}
	_ = client.Close()
	awaitClosed(t, closed)
	_, payload, err := readBinFrame(bufio.NewReader(rest))
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil || req.Op != OpList {
		t.Fatalf("payload %q is not the JSON list request (%v)", payload, err)
	}
}

// rawBinary opens a raw connection to client's server and sends hello,
// returning the reader positioned after the hello answer.
func rawBinary(t *testing.T, client *Client, hello string) (net.Conn, *bufio.Reader, Response) {
	t.Helper()
	conn, err := net.Dial("tcp", clientAddr(t, client))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintln(conn, hello); err != nil {
		t.Fatal(err)
	}
	line, err := readLimitedLine(br)
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	return conn, br, resp
}

// rawCall sends one frame and returns the answer's raw payload.
func rawCall(t *testing.T, conn net.Conn, br *bufio.Reader, tag uint64, payload []byte) []byte {
	t.Helper()
	if _, err := conn.Write(appendBinFrame(nil, tag, payload)); err != nil {
		t.Fatal(err)
	}
	got, answer, err := readBinFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if got != tag {
		t.Fatalf("answer tag %d, want %d", got, tag)
	}
	return answer
}

// TestCompactNegotiation drives a new server with raw binary clients. One
// without the capability gets JSON frames. One with it gets compact
// answers, JSON for a report, and a malformed compact payload draws the
// protocol error while the connection keeps serving.
func TestCompactNegotiation(t *testing.T) {
	client, _ := startServer(t, nil)
	if !client.compact {
		t.Fatal("Dial did not negotiate compact payloads with a new server")
	}

	conn, br, hello := rawBinary(t, client, `{"op":"hello","proto":"binary"}`)
	if !hello.OK || hello.Compact {
		t.Fatalf("hello without the capability answered %+v", hello)
	}
	if p := rawCall(t, conn, br, 1, []byte(`{"op":"list"}`)); !bytes.HasPrefix(p, []byte("{")) {
		t.Fatalf("JSON client answered %x", p)
	}

	conn, br, hello = rawBinary(t, client, `{"op":"hello","proto":"binary","compact":true}`)
	if !hello.OK || !hello.Compact {
		t.Fatalf("hello with the capability answered %+v", hello)
	}
	decode := func(p []byte) Response {
		t.Helper()
		resp, err := decodeResponse(p)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	list := appendCompactRequest(nil, &Request{Op: OpList})
	if p := rawCall(t, conn, br, 2, list); p[0] != compactV1 || !decode(p).OK {
		t.Fatalf("compact list answered %x", p)
	}
	if p := rawCall(t, conn, br, 3, appendCompactRequest(nil, &Request{Op: OpHealth})); p[0] != '{' || decode(p).Health == nil {
		t.Fatalf("health report answered %x, want JSON", p)
	}
	for i, bad := range [][]byte{[]byte(`{"op":"list"}`), append(list, 0)} {
		resp := decode(rawCall(t, conn, br, uint64(4+i), bad))
		if resp.Code != CodeProtocol || !strings.HasPrefix(resp.Error, "malformed request") {
			t.Fatalf("malformed compact payload %x answered %+v", bad, resp)
		}
	}
	if p := rawCall(t, conn, br, 9, list); !decode(p).OK {
		t.Fatalf("connection unusable after a malformed payload: %x", p)
	}
}

// BenchmarkBatchPayloadCodec times the payload codec alone on one
// 64-request batch-setup round trip: the request and its response, each
// encoded and decoded once, as JSON and as compact payloads.
func BenchmarkBatchPayloadCodec(b *testing.B) {
	req := Request{Op: OpBatchSetup, Requests: make([]core.ConnRequest, 64)}
	resp := Response{OK: true, Results: make([]BatchResult, 64)}
	for i := range req.Requests {
		route := make(core.Route, 15)
		for h := range route {
			route[h] = core.Hop{Switch: fmt.Sprintf("ring%02d", h), In: core.PortID(1 + h%2), Out: 1}
		}
		id := core.ConnID(fmt.Sprintf("conn-%06d", i))
		req.Requests[i] = core.ConnRequest{ID: id, Spec: traffic.VBR(0.01, 0.002, 8), Priority: 1, Route: route}
		perHop := make([]float64, len(route))
		for h := range perHop {
			perHop[h] = 32
		}
		resp.Results[i] = BatchResult{ID: id, OK: true, Admission: &Admission{
			ID: id, PerHopGuaranteed: perHop, PerHopComputed: perHop, EndToEndGuaranteed: 480, EndToEndComputed: 17.25,
		}}
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reqData, _ := json.Marshal(&req)
			if _, err := decodeRequest(reqData, false); err != nil {
				b.Fatal(err)
			}
			respData, _ := appendResponse(nil, &resp, false)
			if _, err := decodeResponse(respData); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(reqData) + len(respData)))
		}
	})
	b.Run("compact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reqData := appendCompactRequest(nil, &req)
			if _, err := decodeRequest(reqData, true); err != nil {
				b.Fatal(err)
			}
			respData, _ := appendResponse(nil, &resp, true)
			if _, err := decodeResponse(respData); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(reqData) + len(respData)))
		}
	})
}
