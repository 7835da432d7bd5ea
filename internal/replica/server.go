package replica

import (
	"encoding/json"
	"fmt"

	"atmcac/internal/journal"
	"atmcac/internal/wire"
)

// wireSource ships a wire.Server's admission journal; its full state is
// the JSON wire.PersistentState.
type wireSource struct{ *wire.Server }

func (s wireSource) Watermark() uint64 { return s.JournalWatermark() }

func (s wireSource) CatchUp(afterSeq uint64, full bool, record, state func(seq, epoch uint64, payload []byte) error, attach func()) error {
	return s.Server.CatchUp(afterSeq, full,
		func(st wire.PersistentState) error {
			data, err := json.Marshal(st)
			if err != nil {
				return err
			}
			return state(st.LastSeq, st.Epoch, data)
		},
		func(entries []journal.Entry) error {
			for _, e := range entries {
				if err := record(e.Seq, e.Rec.Epoch, e.Payload); err != nil {
					return err
				}
			}
			return nil
		},
		attach)
}

// wireSink tails into a wire.Server: journal records through
// ApplyShipped, full states through InstallState.
type wireSink struct{ *wire.Server }

func (s wireSink) Watermark() uint64 { return s.JournalWatermark() }

func (s wireSink) Apply(seq, _ uint64, payload []byte) error {
	var rec journal.Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("%w: record seq %d: %v", ErrStream, seq, err)
	}
	if rec.Seq != seq {
		return fmt.Errorf("%w: record seq %d shipped as %d", ErrStream, rec.Seq, seq)
	}
	return s.ApplyShipped(rec, payload)
}

func (s wireSink) Sync() error { return s.SyncShipped() }

func (s wireSink) Install(_, epoch uint64, payload []byte) error {
	var st wire.PersistentState
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("%w: state payload: %v", ErrStream, err)
	}
	st.Epoch = epoch
	return s.InstallState(st)
}
