// Compact payloads: the fixed binary layout a binary connection carries
// in place of JSON once both ends agree to it in the hello
// (docs/PROTOCOL.md, "Compact payloads").
//
// A compact payload is compactV1 and then the message. Every struct in
// it is a uvarint presence mask, bit i for its i-th field in declaration
// order, followed by its present fields in that order: strings as a
// uvarint length and the bytes, integers as varints, floats as their 8
// IEEE bytes (little-endian), slices as a uvarint count and the
// elements, a pointer as its struct, a bool as its mask bit alone. A
// field is absent when it is zero: "", 0, false, nil, or a float whose
// bits are all zero (so -0 survives). A nil slice or pointer is thus
// distinct from an empty slice or a pointer to a zero value, as a JSON
// round trip leaves them. A core.ConnRequest's traffic.Spec fields sit
// inline between its ID and its Priority; a Response's mask numbers only
// the fields compactable allows.
//
// Each payload stands alone: there is no per-connection codec state.
// The decoder checks every length against the bytes that remain before
// it allocates, and refuses unknown mask bits, non-finite floats and
// trailing bytes.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"unicode/utf8"

	"atmcac/internal/core"
)

// compactV1 opens every compact payload. No JSON text starts with it
// (JSON starts with whitespace, '{', '[', '"', a digit, '-', 't', 'f' or
// 'n'), and it is not valid UTF-8 either.
const compactV1 = 0xc1

// compactable reports whether resp fits the compact layout: it sets none
// of the report fields nor the hello's, which always go as JSON.
func compactable(resp *Response) bool {
	return len(resp.Ports) == 0 && len(resp.Violations) == 0 && resp.Failover == nil &&
		resp.Health == nil && resp.Replication == nil && resp.Shard == nil &&
		len(resp.Shards) == 0 && resp.Proto == "" && !resp.Compact
}

// appendResponse appends resp's payload to dst: compact when the
// connection negotiated it and resp fits the layout, JSON otherwise.
func appendResponse(dst []byte, resp *Response, compact bool) ([]byte, error) {
	if compact && compactable(resp) {
		return appendCompactResponse(dst, resp), nil
	}
	payload, err := json.Marshal(resp)
	return append(dst, payload...), err
}

// decodeRequest decodes one request payload of a binary connection: every
// payload of a compact connection is compact, every other one JSON.
func decodeRequest(payload []byte, compact bool) (Request, error) {
	if compact {
		return decodeCompactRequest(payload)
	}
	var req Request
	err := json.Unmarshal(payload, &req)
	return req, err
}

// decodeResponse decodes one response payload, telling the encodings
// apart by the first byte.
func decodeResponse(payload []byte) (Response, error) {
	if len(payload) > 0 && payload[0] == compactV1 {
		return decodeCompactResponse(payload)
	}
	var resp Response
	err := json.Unmarshal(payload, &resp)
	return resp, err
}

func appendCompactRequest(dst []byte, req *Request) []byte {
	c := codec{b: append(dst, compactV1)}
	c.request(req)
	return c.b
}

// appendCompactResponse is for a resp that compactable accepts.
func appendCompactResponse(dst []byte, resp *Response) []byte {
	c := codec{b: append(dst, compactV1)}
	c.response(resp)
	return c.b
}

func decodeCompactRequest(payload []byte) (Request, error) {
	var req Request
	c := decoding(payload)
	c.request(&req)
	return req, c.done()
}

func decodeCompactResponse(payload []byte) (Response, error) {
	var resp Response
	c := decoding(payload)
	c.response(&resp)
	return resp, c.done()
}

// codec walks a message's fields in layout order, appending them to b
// when encoding and reading them from b when decoding, so the layout is
// written once for both directions. When decoding, the first error
// sticks and empties b, so every later read fails without allocating.
type codec struct {
	decode bool
	b      []byte
	err    error
}

// fields is one struct's presence mask: the bits set so far when
// encoding, the bits read when decoding.
type fields struct {
	start int // where the struct's bytes begin, when encoding
	mask  uint64
	next  uint // the bit of the next field
}

func (c *codec) begin() fields {
	if c.decode {
		return fields{mask: c.uvarint()}
	}
	return fields{start: len(c.b)}
}

// end puts the presence mask in front of an encoded struct, and refuses
// a decoded mask with bits beyond the struct's fields.
func (c *codec) end(f *fields) {
	if c.decode {
		if f.mask>>f.next != 0 {
			c.fail("unknown field in presence mask")
		}
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], f.mask)
	c.b = append(c.b, buf[:n]...)
	copy(c.b[f.start+n:], c.b[f.start:len(c.b)-n])
	copy(c.b[f.start:], buf[:n])
}

// present takes the next field's presence bit: whether its value is
// set, when encoding, or whether the payload carries it, when decoding.
func (f *fields) present(c *codec, set bool) bool {
	bit := uint64(1) << f.next
	f.next++
	if c.decode {
		return f.mask&bit != 0
	}
	if set {
		f.mask |= bit
	}
	return set
}

// decoding starts decoding payload after its leading compactV1 byte.
func decoding(payload []byte) codec {
	c := codec{decode: true}
	if len(payload) == 0 || payload[0] != compactV1 {
		c.fail("not a compact payload")
	} else {
		c.b = payload[1:]
	}
	return c
}

func (c *codec) fail(msg string) {
	if c.err == nil {
		c.err = errors.New("compact payload: " + msg)
	}
	c.b = nil
}

// done reports the first decode error, or trailing bytes.
func (c *codec) done() error {
	if c.err == nil && len(c.b) > 0 {
		c.fail("trailing bytes")
	}
	return c.err
}

func (c *codec) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("bad uvarint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// raw reads a string's bytes without copying them.
func (c *codec) raw() []byte {
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.fail("string exceeds payload")
		return nil
	}
	raw := c.b[:n]
	c.b = c.b[n:]
	return raw
}

// hotOps are the operations whose names decode as the package's
// constants, so decoding them allocates nothing.
var hotOps = [...]string{OpSetup, OpTeardown, OpBatchSetup, OpBatchTeardown,
	OpBound, OpList, OpShardPrepare, OpShardCommit, OpShardAbort}

// utf8String copies raw into a string, unless it names a hot operation.
// Bytes that are not valid UTF-8 become U+FFFD, one for each byte, as
// encoding/json makes them on either end, so a string reads the same
// whichever encoding carried it.
func utf8String(raw []byte) string {
	for _, op := range hotOps {
		if string(raw) == op {
			return op
		}
	}
	if utf8.Valid(raw) {
		return string(raw)
	}
	var sb strings.Builder
	for len(raw) > 0 {
		r, size := utf8.DecodeRune(raw)
		if r == utf8.RuneError && size == 1 {
			sb.WriteRune(utf8.RuneError)
		} else {
			sb.Write(raw[:size])
		}
		raw = raw[size:]
	}
	return sb.String()
}

// text reads or writes one string that is always present.
func (c *codec) text(s *string) {
	if c.decode {
		*s = utf8String(c.raw())
		return
	}
	c.b = binary.AppendUvarint(c.b, uint64(len(*s)))
	c.b = append(c.b, *s...)
}

// float reads or writes one float that is always present. A decoded NaN
// or infinity is refused: JSON carries neither, so neither reaches a
// handler.
func (c *codec) float(v *float64) {
	if !c.decode {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
		return
	}
	if len(c.b) < 8 {
		c.fail("truncated float")
		return
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
	if math.IsNaN(*v) || math.IsInf(*v, 0) {
		c.fail("non-finite float")
	}
}

func (c *codec) str(f *fields, s *string) {
	if f.present(c, *s != "") {
		c.text(s)
	}
}

// num walks an integer field as a zigzag varint; a uint64 travels as the
// int64 with its bits.
func num[T ~int | ~int64 | ~uint64](c *codec, f *fields, v *T) {
	switch {
	case !f.present(c, *v != 0):
	case c.decode:
		u := c.uvarint()
		*v = T(int64(u>>1) ^ -int64(u&1))
	default:
		c.b = binary.AppendVarint(c.b, int64(*v))
	}
}

func (c *codec) f64(f *fields, v *float64) {
	if f.present(c, math.Float64bits(*v) != 0) {
		c.float(v)
	}
}

func (c *codec) flag(f *fields, v *bool) {
	if f.present(c, *v) && c.decode {
		*v = true
	}
}

// ptr takes a pointer field's presence bit, allocating the struct it
// points to when decoding; the caller walks the struct when it is there.
func ptr[T any](c *codec, f *fields, p **T) bool {
	if !f.present(c, *p != nil) {
		return false
	}
	if c.decode {
		*p = new(T)
	}
	return true
}

// items takes a slice field's presence bit and its length, allocating
// the slice when decoding; the caller walks the elements. Elements take
// at least minSize bytes each, so a decoded count the remaining bytes
// cannot hold is refused before anything is allocated.
func items[S ~[]T, T any](c *codec, f *fields, s *S, minSize int) bool {
	if !f.present(c, *s != nil) {
		return false
	}
	if !c.decode {
		c.b = binary.AppendUvarint(c.b, uint64(len(*s)))
		return true
	}
	n := c.uvarint()
	if n > uint64(len(c.b)/minSize) {
		c.fail("count exceeds payload")
		return false
	}
	*s = make(S, n)
	return true
}

func (c *codec) route(f *fields, r *core.Route) {
	if items(c, f, r, 1) {
		for i := range *r {
			c.hop(&(*r)[i])
		}
	}
}

func (c *codec) ids(f *fields, ids *[]core.ConnID) {
	if items(c, f, ids, 1) {
		for i := range *ids {
			c.text((*string)(&(*ids)[i]))
		}
	}
}

func (c *codec) floats(f *fields, fs *[]float64) {
	if items(c, f, fs, 8) {
		for i := range *fs {
			c.float(&(*fs)[i])
		}
	}
}

func (c *codec) request(r *Request) {
	f := c.begin()
	c.str(&f, &r.Op)
	if ptr(c, &f, &r.Request) {
		c.conn(r.Request)
	}
	c.str(&f, (*string)(&r.ID))
	c.route(&f, &r.Route)
	num(c, &f, &r.Priority)
	c.str(&f, &r.Switch)
	c.str(&f, &r.From)
	c.str(&f, &r.To)
	num(c, &f, &r.TimeoutMillis)
	c.str(&f, &r.Txn)
	num(c, &f, &r.TTLMillis)
	num(c, &f, &r.PrepareEpoch)
	num(c, &f, &r.CoordEpoch)
	c.str(&f, &r.Proto)
	if items(c, &f, &r.Requests, 1) {
		for i := range r.Requests {
			c.conn(&r.Requests[i])
		}
	}
	c.ids(&f, &r.IDs)
	c.flag(&f, &r.Compact)
	c.end(&f)
}

func (c *codec) conn(r *core.ConnRequest) {
	f := c.begin()
	c.str(&f, (*string)(&r.ID))
	c.f64(&f, &r.Spec.PCR)
	c.f64(&f, &r.Spec.SCR)
	c.f64(&f, &r.Spec.MBS)
	c.f64(&f, &r.Spec.CDVT)
	num(c, &f, &r.Priority)
	c.route(&f, &r.Route)
	c.f64(&f, &r.DelayBound)
	c.f64(&f, &r.SourceCDV)
	c.end(&f)
}

func (c *codec) hop(h *core.Hop) {
	f := c.begin()
	c.str(&f, &h.Switch)
	num(c, &f, &h.In)
	num(c, &f, &h.Out)
	c.end(&f)
}

func (c *codec) response(r *Response) {
	f := c.begin()
	c.flag(&f, &r.OK)
	c.str(&f, &r.Error)
	c.flag(&f, &r.Rejected)
	c.str(&f, &r.Code)
	if ptr(c, &f, &r.Admission) {
		c.admission(r.Admission)
	}
	c.ids(&f, &r.Connections)
	c.f64(&f, &r.Bound)
	c.str(&f, &r.Warning)
	c.flag(&f, &r.Overloaded)
	num(c, &f, &r.RetryAfterMillis)
	if ptr(c, &f, &r.Prepared) {
		c.prepared(r.Prepared)
	}
	if items(c, &f, &r.Results, 1) {
		for i := range r.Results {
			c.result(&r.Results[i])
		}
	}
	c.end(&f)
}

func (c *codec) admission(a *Admission) {
	f := c.begin()
	c.str(&f, (*string)(&a.ID))
	c.floats(&f, &a.PerHopGuaranteed)
	c.floats(&f, &a.PerHopComputed)
	c.f64(&f, &a.EndToEndGuaranteed)
	c.f64(&f, &a.EndToEndComputed)
	c.end(&f)
}

func (c *codec) prepared(p *PrepareReport) {
	f := c.begin()
	c.str(&f, &p.Txn)
	num(c, &f, &p.Epoch)
	if ptr(c, &f, &p.Admission) {
		c.admission(p.Admission)
	}
	c.end(&f)
}

func (c *codec) result(r *BatchResult) {
	f := c.begin()
	c.str(&f, (*string)(&r.ID))
	c.flag(&f, &r.OK)
	c.str(&f, &r.Error)
	c.flag(&f, &r.Rejected)
	c.str(&f, &r.Code)
	if ptr(c, &f, &r.Admission) {
		c.admission(r.Admission)
	}
	c.str(&f, &r.Warning)
	c.end(&f)
}
