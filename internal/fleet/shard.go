package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"

	"afs/internal/cda"
	"afs/internal/faults"
	"afs/internal/stream"
)

// DefaultCheckpointEvery is the per-stream checkpoint cadence in rounds. It
// bounds the router's replay journal (and so the worst-case recovery work
// per stream) without putting a snapshot on every round's wire.
const DefaultCheckpointEvery = 64

// maxStreamID bounds the stream ids a shard admits. The session indexes its
// streams by id, so the bound caps what one open can make it allocate.
const maxStreamID = 1 << 20

// ShardConfig configures one decode shard.
type ShardConfig struct {
	// Blocks is the number of CDA decoder blocks the shard is provisioned
	// with; its admission cap is cda.AdmissionCap(Blocks, CDA) streams, and
	// opens past the cap are refused so the router places the stream on a
	// shard that still has a Gr-Gen slot instead of overcommitting the
	// shared pipeline units. Blocks <= 0 disables admission control.
	Blocks int
	// CDA is the block configuration behind the cap; the zero value is the
	// paper's N=2 design point.
	CDA cda.Config
	// CheckpointEvery is the per-stream checkpoint cadence in rounds; 0
	// selects DefaultCheckpointEvery.
	CheckpointEvery int
	// Logf, when non-nil, receives session lifecycle messages (accepted,
	// closed, protocol errors). The decode path never logs.
	Logf func(format string, args ...any)
}

func (c ShardConfig) ckptEvery() int {
	if c.CheckpointEvery <= 0 {
		return DefaultCheckpointEvery
	}
	return c.CheckpointEvery
}

func (c ShardConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Serve runs a decode shard on l until the listener is closed, handling one
// router session at a time. A session owns its streams exclusively: when the
// connection drops (router crash, network fault) the shard discards all
// per-stream state and the next session starts empty — the router holds the
// checkpoints and the round journal, so it re-opens each stream with a
// snapshot and replays the tail. That asymmetry is deliberate: shards are
// the crash domain under test, and keeping them stateless across sessions
// means a kill -9'd shard and a cleanly restarted one look identical to the
// recovery protocol.
func Serve(l net.Listener, cfg ShardConfig) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		cfg.logf("fleet shard: session from %v", conn.RemoteAddr())
		if err := session(conn, cfg); err != nil && err != io.EOF {
			cfg.logf("fleet shard: session ended: %v", err)
		}
		conn.Close()
	}
}

// shardStream is one logical-qubit stream resident on the shard.
type shardStream struct {
	id      uint32
	dec     *stream.Decoder
	per     int
	rounds  uint64 // rounds ingested (resumes from the adopted checkpoint)
	corrSeq uint64 // corrections emitted (resumes likewise)
	ckptAt  uint64 // rounds at the last checkpoint sent
	seen    uint64 // last msgRounds envelope that listed the stream
	out     []int32
}

// shardSession handles one router connection. All message handling is
// single-goroutine, so per-stream decoding is trivially deterministic: the
// shard's outputs are a pure function of the message sequence it reads.
type shardSession struct {
	cfg   ShardConfig
	cap   int
	br    *bufio.Reader
	bw    *bufio.Writer
	rbuf  []byte // envelope read buffer
	wbuf  []byte // envelope write scratch
	pbuf  []byte // payload write scratch
	corrs []byte // pending msgCorrs payload
	werr  error  // sticky write error, surfaced at the next message boundary

	// streams is indexed by stream id (nil where none is open); open counts
	// the non-nil entries against the admission cap.
	streams []*shardStream
	open    int

	// lanes builds, resolves and flushes the session's decoders on its
	// working set. Per-envelope state: the streams an envelope listed
	// (touched, each once), their decoders, and a replayed round's group.
	lanes   *stream.Lanes
	touched []*shardStream
	decs    []*stream.Decoder
	one     [1]*stream.Decoder
	env     uint64
}

func (s *shardSession) send(typ uint8, id uint32, payload []byte) error {
	s.wbuf = appendEnvelope(s.wbuf[:0], typ, id, payload)
	_, err := s.bw.Write(s.wbuf)
	return err
}

func session(conn net.Conn, cfg ShardConfig) error {
	s := &shardSession{
		cfg:   cfg,
		cap:   cda.AdmissionCap(cfg.Blocks, cfg.CDA),
		br:    bufio.NewReaderSize(conn, 1<<16),
		bw:    bufio.NewWriterSize(conn, 1<<16),
		lanes: stream.NewLanes(),
	}
	for {
		// Everything queued for the router goes out before the session
		// blocks on an empty connection: corrections, checkpoints and
		// heartbeat replies must not sit in the buffer while both sides
		// wait on each other.
		if s.br.Buffered() == 0 {
			if err := s.bw.Flush(); err != nil {
				return err
			}
		}
		if s.werr != nil {
			return s.werr
		}
		env, err := readEnvelope(s.br, &s.rbuf)
		if err != nil {
			return err
		}
		if err := s.handle(env); err != nil {
			return err
		}
	}
}

func (s *shardSession) handle(env envelope) error {
	switch env.typ {
	case msgOpen:
		return s.handleOpen(env)
	case msgRounds:
		return s.handleRounds(env.payload)
	case msgClose:
		// The stream moved to another shard (rebalance): drop it without a
		// flush — its state travels in the router's checkpoint + journal,
		// and flushing here would double-count its ledger.
		if s.lookup(env.stream) != nil {
			s.streams[env.stream] = nil
			s.open--
		}
		return nil
	case msgFlush:
		return s.handleFlush()
	case msgPing:
		return s.send(msgPong, env.stream, env.payload)
	default:
		return fmt.Errorf("fleet: shard got unexpected message type %d", env.typ)
	}
}

func (s *shardSession) handleOpen(env envelope) error {
	op, err := decodeOpenPayload(env.payload)
	if err != nil {
		return fmt.Errorf("fleet: malformed open payload: %w", err)
	}
	id := env.stream
	if id >= maxStreamID {
		return s.refuse(id, fmt.Sprintf("stream id %d past the shard's limit %d", id, maxStreamID))
	}
	if s.lookup(id) != nil {
		return s.refuse(id, "stream already open on this shard")
	}
	if s.cap > 0 && s.open >= s.cap {
		fObs.refusals.Inc(0)
		return s.refuse(id, fmt.Sprintf("admission cap %d streams reached (%d CDA blocks)", s.cap, s.cfg.Blocks))
	}
	dec, err := s.lanes.NewRobust(op.Distance, op.Window, op.Commit, stream.Robust{DeadlineNS: op.DeadlineNS, QueueCap: op.QueueCap})
	if err != nil {
		return s.refuse(id, err.Error())
	}
	if len(op.Snapshot) > 0 {
		snap, err := stream.DecodeSnapshot(op.Snapshot)
		if err != nil {
			return s.refuse(id, "malformed snapshot: "+err.Error())
		}
		if err := dec.Restore(snap); err != nil {
			return s.refuse(id, err.Error())
		}
	}
	st := &shardStream{
		id:      id,
		dec:     dec,
		per:     op.Distance * (op.Distance - 1),
		rounds:  op.Rounds,
		corrSeq: op.CorrSeq,
		ckptAt:  op.Rounds,
	}
	// The sink regenerates deterministic per-stream sequence numbers: a
	// replayed round re-emits its corrections with the original seq, which
	// is exactly what lets the router dedup them.
	st.dec.SetSink(func(c stream.Correction) {
		st.corrSeq++
		s.corrs = appendCorrEntry(s.corrs, id, st.corrSeq, c)
		if len(s.corrs) >= maxBatch {
			s.sendCorrs()
		}
	})
	for int(id) >= len(s.streams) {
		s.streams = append(s.streams, nil)
	}
	s.streams[id] = st
	s.open++
	return s.send(msgOpenOK, id, nil)
}

// lookup returns the open stream id, or nil.
func (s *shardSession) lookup(id uint32) *shardStream {
	if int(id) >= len(s.streams) {
		return nil
	}
	return s.streams[id]
}

func (s *shardSession) refuse(id uint32, reason string) error {
	return s.send(msgRefuse, id, []byte(reason))
}

// sendCorrs ships the pending correction batch, if any. A write error
// sticks and surfaces at the next message boundary.
func (s *shardSession) sendCorrs() {
	if len(s.corrs) == 0 {
		return
	}
	if err := s.send(msgCorrs, 0, s.corrs); err != nil && s.werr == nil {
		s.werr = err
	}
	s.corrs = s.corrs[:0]
}

// handleRounds ingests one msgRounds envelope. Every stream defers the
// windows its rounds fill; once every entry is in, the deferred windows
// resolve together through the lane entry point stream.Engine uses — a
// round envelope is the same round-major group the engine batches. (A
// replay envelope carries several rounds of one stream; each later round
// resolves the stream's pending window as a one-lane group, the route a
// solo decoder takes, before charging or ingesting anything.) The
// envelope's corrections then go out as one msgCorrs, and
// only after that any checkpoints the envelope made due: every correction
// a checkpoint's snapshot assumes delivered precedes it on the wire, which
// is what the router's replay dedup relies on. The msgRoundsOK that closes
// the envelope goes last, so when the router counts it everything the
// envelope produced is already ahead of it on the wire.
func (s *shardSession) handleRounds(p []byte) error {
	s.env++
	s.touched, s.decs = s.touched[:0], s.decs[:0]
	for len(p) > 0 {
		id, round, rest, err := nextRoundsEntry(p)
		if err != nil {
			return err
		}
		p = rest
		st := s.lookup(id)
		if st == nil {
			return fmt.Errorf("fleet: round for unknown stream %d", id)
		}
		seq, events, erased, pen, err := decodeRoundPayload(round, st.per, st.out[:0])
		if err != nil {
			return fmt.Errorf("fleet: stream %d round: %w", id, err)
		}
		st.out = events[:0]
		// End-to-end ordering check: the round's sequence number must
		// match the stream's ingest count. A gap here means the transport
		// delivered out of order or the router's journal drifted — either
		// way decoding on would silently corrupt, so the session dies and
		// recovery replays.
		if seq != uint32(st.rounds) {
			return fmt.Errorf("fleet: stream %d got round seq %d, want %d", id, seq, uint32(st.rounds))
		}
		if st.seen == s.env {
			s.one[0] = st.dec
			s.lanes.Resolve(s.one[:])
		}
		st.dec.AddPenaltyNS(pen)
		if erased {
			st.dec.PushErased()
		} else if err := st.dec.PushLayer(events); err != nil {
			return fmt.Errorf("fleet: stream %d: %w", id, err)
		}
		st.rounds++
		if st.seen != s.env {
			st.seen = s.env
			s.touched = append(s.touched, st)
			s.decs = append(s.decs, st.dec)
		}
	}
	s.lanes.Resolve(s.decs)
	s.sendCorrs()
	every := uint64(s.cfg.ckptEvery())
	for _, st := range s.touched {
		if st.rounds-st.ckptAt >= every {
			if err := s.checkpoint(st); err != nil {
				return err
			}
		}
	}
	if s.werr != nil {
		return s.werr
	}
	return s.send(msgRoundsOK, 0, nil)
}

// checkpoint snapshots the stream and ships it to the router, which trims
// its replay journal up to the snapshot's round count on receipt.
func (s *shardSession) checkpoint(st *shardStream) error {
	st.ckptAt = st.rounds
	s.pbuf = appendCkptPayload(s.pbuf[:0], st.rounds, st.corrSeq, nil)
	s.pbuf = stream.AppendSnapshot(s.pbuf, st.dec.Snapshot())
	return s.send(msgCheckpoint, st.id, s.pbuf)
}

// handleFlush ends every stream on the shard: remaining buffered layers are
// decoded as closed windows (their corrections go out as usual), and the
// per-stream decoder ledgers are returned in one msgFlushOK. Streams are
// flushed in ascending id so the correction interleaving on the wire is
// deterministic; the per-stream state is discarded afterwards — a session
// that flushed a stream is done with it, and the router re-opens if it
// wants more.
func (s *shardSession) handleFlush() error {
	ledgers := make(map[uint32]faults.Report, s.open)
	for id, st := range s.streams {
		if st == nil {
			continue
		}
		s.lanes.Flush(st.dec)
		ledgers[uint32(id)] = st.dec.Report()
		s.streams[id] = nil
	}
	s.open = 0
	s.sendCorrs()
	if s.werr != nil {
		return s.werr
	}
	blob, err := json.Marshal(ledgers)
	if err != nil {
		return err
	}
	return s.send(msgFlushOK, 0, blob)
}
