package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"streambox/internal/metrics"
	"streambox/internal/netio"
	"streambox/internal/wal"
)

// checkpoint is the recovery metadata persisted beside the log
// segments, JSON-encoded inside internal/wal's checksummed frame. Its
// members are declared where their data lives — netio.SessionState,
// netio.WindowResult — and stored as they are. SealedWM is the
// watermark through which every window has been published and is
// captured in Windows; on recovery the runtime suppresses re-publication
// of anything sealed at or before it, and frames feeding only sealed
// windows are skipped during replay.
type checkpoint struct {
	SealedWM   uint64               `json:"sealed_wm"`
	HighTs     uint64               `json:"high_ts"`
	NextConnID int64                `json:"next_conn_id"`
	Sessions   []netio.SessionState `json:"sessions,omitempty"`
	Windows    []netio.WindowResult `json:"windows,omitempty"`
}

// readCheckpoint loads dir's checkpoint; a directory without one reads
// as the zero checkpoint, from which recovery rebuilds everything out
// of the segments alone. A checkpoint that fails its frame check or
// does not decode is an error, never a fresh start.
func readCheckpoint(dir string) (checkpoint, error) {
	var ck checkpoint
	payload, err := wal.ReadCheckpoint(dir)
	if err != nil || payload == nil {
		return ck, err
	}
	if err := json.Unmarshal(payload, &ck); err != nil {
		return ck, fmt.Errorf("serve: checkpoint decode: %w", err)
	}
	return ck, nil
}

// recoverState rebuilds the serving state a crash interrupted: the
// checkpoint seeds the result store, the feed's high-water mark and
// every checkpointed session's watermark cursor; then the write-ahead
// log replays every frame feeding a still-unsealed window through the
// normal ingest path. Sessions are the checkpoint's with the log folded
// in — a session's durable ack is the max of its checkpointed ack and
// the newest logged frame, a session logged open with no frame resumes
// at sequence 0, and sessions that ended for good (clean EOS, expiry)
// stay ended. A session the log names only after another's
// frames has no cursor until then, so a placeholder cursor holds the
// watermark until the replay is in: otherwise the sessions read first
// could close a window the later one also feeds, and its frames would
// arrive behind the watermark. It returns the resumable sessions and
// the highest connection id seen, and records the server's recovery
// facts.
func (s *Server) recoverState(ck checkpoint) (sessions []netio.SessionState, nextID int64, err error) {
	t0 := time.Now()
	feed := s.feed
	for _, w := range ck.Windows {
		s.store.Publish(w.Sink, w.Start, w.End, w.Rows)
	}
	feed.SeedHighTs(ck.HighTs)
	nextID = ck.NextConnID
	byToken := make(map[uint64]*netio.SessionState)
	for i := range ck.Sessions {
		st := &ck.Sessions[i]
		// Floor the restored cursor at the sealed watermark. The
		// checkpointed cursor can sit past the end of a window that
		// was still open (unsealed) at checkpoint time; restoring it
		// verbatim would let the watermark close that window the
		// moment replay delivers its first batch, splitting its
		// aggregate across one partial publish per redelivered
		// frame. Capped at SealedWM, unsealed windows stay open
		// until replay and resumed clients genuinely re-deliver
		// past them, while every window the cap could close early
		// is sealed — suppressed from the sink anyway.
		st.CursorTs = min(st.CursorTs, ck.SealedWM)
		feed.Restore(*st)
		byToken[st.Token] = st
		nextID = max(nextID, st.Conn)
	}
	// The placeholder: conn 0, never a connection's id, at time 0.
	feed.Restore(netio.SessionState{})
	ended := make(map[uint64]bool)
	_, err = s.wal.ReplayExisting(func(rec *wal.Record) error {
		if rec.Kind == wal.KindSessionEnd {
			ended[rec.Token] = true
			return nil
		}
		nextID = max(nextID, rec.Conn)
		if rec.Token == 0 {
			// Every stream is a session, so the server logs no such
			// record; restoring one would need the retired sessionless
			// rules (a cursor no client can resume). Refuse rather than
			// mis-restore it as session 0.
			return fmt.Errorf("record for connection %d carries session token 0: written by the retired sessionless wire mode, not recoverable", rec.Conn)
		}
		st := byToken[rec.Token]
		if st == nil {
			// Every session seen in the log gets a cursor even when its
			// frames need no replay, or it has none, so the watermark
			// keeps waiting for a resumable session's late data.
			st = &netio.SessionState{Token: rec.Token, Conn: rec.Conn}
			feed.Restore(*st)
			byToken[rec.Token] = st
		}
		if rec.Kind == wal.KindSessionOpen {
			return nil
		}
		st.LastSeq = max(st.LastSeq, rec.Seq)
		// A frame only feeds windows ending by MaxTs+Size; when the
		// checkpoint sealed all of them, the frame's effects are
		// already durable in the result snapshot.
		if rec.MaxTs+s.win.Size <= ck.SealedWM {
			return nil
		}
		// wal.Open checked that every logged frame holds the plan's
		// columns; a log written under another plan may hold more.
		cols := rec.Project(s.fields, feed.BorrowCols(rec.NRows))
		if !feed.Inject(rec.Conn, cols, rec.MaxTs) {
			return fmt.Errorf("feed shut down during replay")
		}
		s.replayedFrames.Add(1)
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("streambox: wal replay: %w", err)
	}
	feed.Retire(0) // behind the last replayed batch
	for token, st := range byToken {
		if ended[token] {
			// A session that ended for good can never see another byte:
			// the retire sentinel rides the feed behind the replayed data.
			feed.Retire(st.Conn)
			continue
		}
		sessions = append(sessions, *st)
	}
	s.recoveredSessions.Add(int64(len(sessions)))
	s.recoveryNs = time.Since(t0).Nanoseconds()
	return sessions, nextID, nil
}

// checkpointLoop periodically persists the recovery metadata and
// retires log segments the latest checkpoint makes redundant, until the
// engine is done: Shutdown writes the checkpoint that seals the run.
func (s *Server) checkpointLoop(interval time.Duration) {
	metrics.StageCheckpoint.Enter()
	defer close(s.ckDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.exec.Done():
			return
		case <-t.C:
			s.writeCheckpoint()
		}
	}
}

// writeCheckpoint persists one recovery checkpoint: the sealed
// watermark, the session table and the sealed result windows. Only
// after the checkpoint is durable does it retire the log segments whose
// every window it seals.
func (s *Server) writeCheckpoint() error {
	// Read the sealed watermark first: sessions and windows snapshotted
	// after it can only be newer, and recovery floors and filters by it.
	// It never claims past the last window holding data: the drain
	// pushes the watermark to the end of time, and a restart that
	// inherited that would seal every window its new data fills.
	sealedWM := s.exec.SealedWatermark()
	// Roll completes the active segment: segments complete before the
	// session snapshot hold only the open records of sessions it names
	// (or that ended), so only they may retire.
	mark := s.wal.Roll()
	highTs := s.feed.HighTs()
	sealedWM = min(sealedWM, s.win.End(s.win.WindowOf(highTs)))
	ck := checkpoint{
		SealedWM:   sealedWM,
		HighTs:     highTs,
		NextConnID: s.ingest.NextID(),
		Sessions:   s.ingest.SessionSnapshot(),
	}
	// Persist sealed windows only: anything newer will be rebuilt from
	// the log on recovery, and persisting it here would double-publish
	// rows when the rebuilt window merges into the restored store.
	for _, w := range s.store.Snapshot() {
		if w.End <= sealedWM {
			ck.Windows = append(ck.Windows, w)
		}
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	if err := s.wal.WriteCheckpoint(payload); err != nil {
		return err
	}
	if sealedWM > s.win.Size {
		if _, err := s.wal.RetireThrough(sealedWM-s.win.Size, mark); err != nil {
			return err
		}
	}
	return nil
}
