package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/wire"
)

// Server fronts a Coordinator with the standard wire protocol, so the
// ordinary client (and cacctl) can set up and tear down cross-shard
// connections without knowing the map. Reads that aggregate cleanly
// (list, health) fan out to the shards; everything else is answered
// with unknown-op — per-shard inspection goes to the shard directly.
type Server struct {
	coord    *Coordinator
	sessions wire.Sessions
}

// NewServer returns a wire front end over coord.
func NewServer(coord *Coordinator) *Server {
	return &Server{coord: coord}
}

// Serve accepts connections on l until Close. It always returns a
// non-nil error (wire.ErrServerClosed after a clean shutdown).
func (s *Server) Serve(l net.Listener) error {
	return s.sessions.Serve(l, s.handle, wire.SessionOptions{})
}

// Close stops accepting and closes every client connection.
func (s *Server) Close() error { return s.sessions.Close() }

// errorResponse maps a coordinator error onto the wire taxonomy,
// preserving the shard's typed code when one traveled back.
func errorResponse(err error) wire.Response {
	resp := wire.Response{Error: err.Error(), Rejected: errors.Is(err, core.ErrRejected)}
	var re *wire.RemoteError
	switch {
	case errors.Is(err, ErrInDoubt):
		resp.Code = wire.CodeInDoubt
	case errors.Is(err, ErrCoordFenced):
		resp.Code = wire.CodeFenced
	case errors.As(err, &re):
		resp.Code = re.Code
	default:
		resp.Code = core.ErrorCode(err)
	}
	return resp
}

func (s *Server) handle(req wire.Request) wire.Response {
	ctx := context.Background()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	switch req.Op {
	case wire.OpSetup:
		if req.Request == nil {
			return wire.Response{Error: "setup requires a request body", Code: wire.CodeProtocol}
		}
		adm, err := s.coord.Setup(ctx, *req.Request)
		if err != nil {
			return errorResponse(err)
		}
		return wire.Response{OK: true, Admission: adm}
	case wire.OpTeardown:
		if req.ID == "" {
			return wire.Response{Error: "teardown requires an id", Code: wire.CodeProtocol}
		}
		if err := s.coord.Teardown(ctx, req.ID); err != nil {
			return errorResponse(err)
		}
		return wire.Response{OK: true}
	case wire.OpList:
		ids, err := s.coord.List(ctx)
		if err != nil {
			return errorResponse(err)
		}
		return wire.Response{OK: true, Connections: ids}
	case wire.OpHealth:
		// The coordinator's health is the fleet's: how many connections
		// the shards carry and how many transactions are unresolved.
		ids, err := s.coord.List(ctx)
		if err != nil {
			return errorResponse(err)
		}
		role := "coordinator"
		if s.coord.Fenced() {
			role = "fenced"
		}
		return wire.Response{OK: true, Health: &wire.HealthReport{
			Connections: len(ids),
			Role:        role,
			Epoch:       s.coord.Epoch(),
			Prepared:    len(s.coord.InDoubt()),
		}}
	case wire.OpShardStatus:
		// Answer with the coordinator's own identity plus a fleet
		// fan-out: one report per shard pair, each carrying the active
		// member's role/epoch/holds and the probed peer. cacctl shard
		// status renders the whole cluster from this one call.
		self := s.coord.SelfStatus()
		fleet, err := s.coord.Status(ctx)
		if err != nil {
			// A dead pair must not blank the coordinator's own report;
			// degrade to identity-only with the failure as a warning.
			return wire.Response{OK: true, Shard: &self, Warning: err.Error()}
		}
		return wire.Response{OK: true, Shard: &self, Shards: fleet}
	default:
		return wire.Response{
			Error: fmt.Sprintf("unknown op %q (coordinator speaks setup, teardown, list, health)", req.Op),
			Code:  wire.CodeUnknownOp,
		}
	}
}
