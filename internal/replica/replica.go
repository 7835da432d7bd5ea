// Package replica is the fleet's one replication stream: log shipping
// from a Primary to a Standby, for every record schema over
// journal.FrameLog — the admission journal of a wire.Server and the
// intent log of a shard coordinator. The primary streams every durable
// record — the exact payload bytes, re-framed with the journal's
// length+CRC32 header — over a persistent connection to a standby, which
// appends them to its own log byte-identically. The standby applies every
// record it has already read without fsyncing, then syncs once and
// acknowledges the highest, so an acknowledgement never covers a record
// that is not on its disk. If that sync fails the standby stops: it acks
// nothing more and never promotes over what its disk may have dropped.
// The configured Mode decides how long the
// primary's write path blocks on the acknowledgements before acking its
// own client.
//
// Failover is fenced by a monotonic epoch carried in every shipped
// record: promotion bumps the epoch and persists it before the new
// primary writes, and any node that observes a higher epoch fences itself
// out of the write path, so a partitioned ex-primary can never apply a
// split-brain mutation. A promoted standby tells the old primary with a
// fence message, the first and only one it sends on a fresh connection.
//
// The package owns only the transport: handshake, catch-up delivery,
// record/ack framing, reconnect backoff and the failover timer. All
// state decisions (what to ship, how to apply, when an epoch is stale)
// live behind two seams: a Source on the primary side and a Sink on the
// standby side. NewPrimary and NewStandby bind them to a wire.Server.
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"atmcac/internal/journal"
	"atmcac/internal/wire"
)

// writeTimeout bounds every stream write, and the primary's wait for a
// hello: a peer stalled by TCP backpressure surfaces as a dead session,
// not a wedged writer.
const writeTimeout = 5 * time.Second

// Mode is the replication acknowledgement discipline.
type Mode string

const (
	// ModeAsync ships records without waiting: the primary acks its
	// client as soon as the record is locally durable. A failover can
	// lose the acked tail that never reached the standby.
	ModeAsync Mode = "async"
	// ModeSemiSync ships and then waits until the standby's
	// acknowledged watermark is within MaxLag records of the shipped
	// one — bounding, but not eliminating, acked-operation loss.
	ModeSemiSync Mode = "semi-sync"
	// ModeSync waits for the standby to acknowledge this very record
	// before the primary acks its client: zero acked-operation loss on
	// failover, at one replication round-trip per mutation.
	ModeSync Mode = "sync"
)

// ParseMode validates a mode string from a flag or config file.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeAsync, ModeSemiSync, ModeSync:
		return Mode(s), nil
	}
	return "", fmt.Errorf("replica: unknown replication mode %q (want async, semi-sync or sync)", s)
}

// Message types of the replication stream. Every message is a JSON
// Msg wrapped in a journal frame (length + CRC32), so stream corruption
// is caught by the same checksum discipline as the journal itself.
const (
	// MsgHello opens a standby's session: Epoch and Seq carry its
	// current term and journal watermark; Code "full" requests a full
	// state resync regardless of the watermark.
	MsgHello = "hello"
	// MsgState carries the primary's full durable state (payload:
	// wire.PersistentState JSON; Epoch/Seq: its term and watermark) —
	// the catch-up path when the journal delta is compacted away or the
	// standby diverged.
	MsgState = "state"
	// MsgRecord carries one journal record: Seq and Epoch from the
	// record, payload the exact journal payload bytes.
	MsgRecord = "record"
	// MsgAck acknowledges that the record at Seq (and everything below
	// it) is durable and applied on the standby.
	MsgAck = "ack"
	// MsgReject refuses the session or a record with a typed Code
	// (wire.CodeFenced for epoch conflicts, CodeResync for divergence).
	MsgReject = "reject"
	// MsgFence tells an ex-primary that the sender was promoted at
	// Epoch; the receiver fences itself.
	MsgFence = "fence"
	// MsgHeartbeat keeps the session alive and feeds the standby's
	// failover timer.
	MsgHeartbeat = "heartbeat"
)

// Reject codes internal to the replication stream (epoch conflicts
// reuse wire.CodeFenced).
const (
	// CodeResync asks the primary for a full-state session: the standby
	// could not apply a shipped record and considers itself diverged.
	CodeResync = "resync"
	// CodeCatchUp reports a primary-side catch-up failure.
	CodeCatchUp = "catch-up-failed"
)

// ErrStream reports a malformed replication message (bad frame, bad
// JSON, unknown type) — distinct from transport errors so callers can
// tell corruption from disconnection.
var ErrStream = errors.New("replica: malformed stream message")

// Msg is the replication stream envelope.
type Msg struct {
	Type    string          `json:"type"`
	Epoch   uint64          `json:"epoch,omitempty"`
	Seq     uint64          `json:"seq,omitempty"`
	Code    string          `json:"code,omitempty"`
	Text    string          `json:"msg,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// WriteMsg frames and writes one message.
func WriteMsg(w io.Writer, m Msg) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("replica: encode %s message: %w", m.Type, err)
	}
	return journal.WriteFrame(w, data)
}

// ReadMsg reads and decodes one framed message. A clean EOF at a frame
// boundary is io.EOF; a bad checksum or undecodable body is ErrStream.
func ReadMsg(r io.Reader) (Msg, error) {
	payload, err := journal.ReadFrame(r)
	if err != nil {
		if errors.Is(err, journal.ErrFrame) {
			return Msg{}, fmt.Errorf("%w: %v", ErrStream, err)
		}
		return Msg{}, err
	}
	var m Msg
	if err := json.Unmarshal(payload, &m); err != nil {
		return Msg{}, fmt.Errorf("%w: %v", ErrStream, err)
	}
	if m.Type == "" {
		return Msg{}, fmt.Errorf("%w: missing type", ErrStream)
	}
	return m, nil
}

// Status combines the primary- and standby-side report decorators for a
// node that may play either role (a standby keeps its Primary listener
// so it can serve a new standby after promotion). Each decorator fires
// only for the role the wire layer reports, so the fields never mix.
func Status(p *Primary, sb *Standby) func(*wire.ReplicationReport) {
	return func(rep *wire.ReplicationReport) {
		if sb != nil && rep.Role == "standby" {
			sb.decorate(rep)
		}
		if p != nil && rep.Role == "primary" {
			p.decorate(rep)
		}
	}
}
