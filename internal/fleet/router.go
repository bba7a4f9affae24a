package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"afs/internal/faults"
	"afs/internal/obs"
	"afs/internal/stream"
)

// Config configures a fleet router.
type Config struct {
	// Network is the socket family ("tcp" or "unix"); Shards the shard
	// addresses. Every shard must be reachable at Dial time.
	Network string
	Shards  []string

	// Streams is the number of logical-qubit streams L; Distance, Window
	// and Commit configure every stream's decoder with the same defaults as
	// stream.New. DeadlineNS and QueueCap are the per-stream Robust
	// settings applied shard-side.
	Streams                  int
	Distance, Window, Commit int
	DeadlineNS               float64
	QueueCap                 int

	// Chaos, when non-nil, injects link faults on every stream's
	// qubit→decoder channel — router-side, before the socket, so the wire
	// carries post-fault syndromes. Each stream's channel is seeded with
	// faults.StreamSeed(Chaos.Seed, i), the same formula stream.Engine
	// uses, so a fleet run and its in-process reference inject identical
	// fault sequences.
	Chaos *faults.Config

	// Sink, when non-nil, receives every committed correction instead of
	// the router retaining it. Calls for one stream arrive in sequence
	// order; the sink runs under the router's lock and must not block.
	Sink func(stream int, c stream.Correction)

	// ReconnectAttempts bounds the dial retries to a crashed shard before
	// the router fails its streams over to the survivors (0 selects 4;
	// negative disables reconnection — immediate failover). The first
	// retry waits reconnectBackoff, doubling per attempt.
	ReconnectAttempts int

	// JournalMaxBytes caps each stream's replay journal (0 selects 4 MiB;
	// negative disables the cap), counted in journalEntryCost units. The
	// journal only trims on shard checkpoints. A shard that stops decoding
	// altogether — stalled decode loop, a kill -STOP — stops acknowledging
	// round envelopes, and the round window sheds it after roundWindow
	// unacknowledged envelopes and waitLimit of silence, long before any
	// cap. What the cap still bounds is a shard that keeps decoding and
	// acknowledging rounds but never checkpoints (a wedged snapshot path):
	// its streams' journals would otherwise grow without bound while the
	// socket and acks stay healthy. Crossing the cap first gives the shard
	// a bounded wait to deliver a trimming checkpoint (it may simply be
	// catching up on a replayed journal); if it falls silent with the
	// journal still over budget, the laggard is shed: the session is
	// declared dead exactly like a crash, and the usual recovery (reconnect
	// or failover, checkpoint restore, journal replay) moves its streams to
	// a shard that makes progress. No rounds are dropped — the journal
	// survives intact through the failover and trims as soon as the
	// adopting shard checkpoints.
	//
	// The journal is round-major: it keeps a round for every stream until
	// every stream's checkpoint has passed it. So a laggard of that kind
	// keeps every stream's rounds alive, not just its own, until its cap
	// sheds it — within about JournalMaxBytes/48 rounds, since each round
	// costs at least 48 units. Retained memory is bounded by that many
	// rounds of the whole fleet.
	JournalMaxBytes int
}

// Fixed router timings: the first reconnect retry's delay (doubling per
// attempt) and the bound on each connection attempt.
const (
	reconnectBackoff = 25 * time.Millisecond
	dialTimeout      = 2 * time.Second
)

func (c Config) reconnectAttempts() int {
	if c.ReconnectAttempts < 0 {
		return 0
	}
	if c.ReconnectAttempts == 0 {
		return 4
	}
	return c.ReconnectAttempts
}

func (c Config) journalMaxBytes() int {
	if c.JournalMaxBytes < 0 {
		return 0 // unlimited
	}
	if c.JournalMaxBytes == 0 {
		return 4 << 20
	}
	return c.JournalMaxBytes
}

// journalEntryCost is the unit Config.JournalMaxBytes caps a stream's
// journal in: 48 per round plus four per retained event. It is an
// accounting charge, not the entry's real size (a block entry takes 32
// bytes plus four per event). Charged when a round is journaled, refunded
// when a checkpoint trims it.
func journalEntryCost(events []int32) int { return 48 + 4*len(events) }

// maxSpareBlocks bounds the recycled-block pool. Steady-state checkpoints
// recycle about one cadence of blocks at a time; a shed laggard can free
// JournalMaxBytes/48 rounds at once, and keeping them all would pin the
// laggard's peak memory for the router's lifetime.
const maxSpareBlocks = 4 * DefaultCheckpointEvery

// journalEntry is one stream's post-chaos round in a journal block:
// exactly what went (or would have gone) on the wire — the delivered
// events (events[off:off+n] of the block's arena), the erasure flag and
// the injected service-time penalty — plus the stream's running total of
// accounted journal bytes through this round. Replaying entries re-uses
// the original fault outcomes instead of rolling new ones, which is what
// keeps recovery byte-identical.
type journalEntry struct {
	off, n  uint32
	erased  bool
	penalty float64
	total   uint64
}

// journalBlock is one journaled round: every stream's entry, in stream
// order, over one shared event arena.
type journalBlock struct {
	round   uint64
	entries []journalEntry
	arena   []int32
}

// events returns e's delivered events.
func (b *journalBlock) events(e *journalEntry) []int32 { return b.arena[e.off : e.off+e.n] }

// streamState is the router's view of one logical-qubit stream.
type streamState struct {
	id   int
	home int // preferred shard (deterministic placement)
	cur  int // shard currently decoding the stream (-1: none)

	ch *faults.Channel // router-side chaos link, nil without Chaos

	delivered uint64 // last correction seq delivered to the sink

	// handed is the stream's watermark on its current session: rounds
	// [0, handed) are on their way to the shard, from live sends or from
	// the replay that opened the session. A recovery triggered mid-round
	// replays that round for every stream it moves, so those streams are
	// already at the router's sent count and must not be handed the round
	// again.
	handed uint64

	// The stream's share of the replay journal: its entries in rounds
	// [jbase, sent), where jbase equals the last received checkpoint's
	// round count and jtrim is the running total of round jbase-1 (the
	// accounted bytes checkpoints have trimmed). ckptSnap is that
	// checkpoint's binary snapshot (nil before the first checkpoint —
	// recovery then re-opens fresh and replays from round 0).
	jbase       uint64
	jtrim       uint64
	ckptCorrSeq uint64
	ckptSnap    []byte

	ledger  faults.Report // decoder ledger received at flush
	flushed bool
}

// link is one shard connection. Writes (rounds, opens, flushes, closes)
// serialize under wmu; reads run on a dedicated goroutine per session.
// Each session has state of its own, so the messages and the death of a
// stale session cannot affect its successor.
type link struct {
	idx  int
	addr string

	// batch is the msgRounds payload RunRounds is filling for this shard,
	// batched its entry count, and shed whether the router shed the
	// session for making no progress (all caller thread only).
	batch   []byte
	batched int
	shed    bool

	wmu  sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	sess *session // the current one; replaced only on the caller thread
	wbuf []byte
	pbuf []byte

	up atomic.Bool
}

// session is what one shard connection has told the router, written by
// the session's reader goroutine; the caller thread only counts sent
// (under the link's wmu, as it hands each msgRounds envelope to the
// writer) and clears verdict before each open. A session's reader holds
// its own session, so a late ack, verdict or flush answer from a dead
// session lands there and never in its successor's.
type session struct {
	// sent and acked count msgRounds envelopes and their msgRoundsOK (the
	// round window); heard counts every envelope the reader has handled.
	sent, acked, heard atomic.Uint64

	// Under the router's mu: the verdict on the open in flight (msgOpenOK
	// or msgRefuse, 0 until it arrives) with its refusal reason, and the
	// msgFlushOK answers handled.
	verdict uint8
	reason  string
	flushes int
}

// unacked is the number of the session's envelopes the shard has not
// acknowledged yet.
func (s *session) unacked() uint64 { return s.sent.Load() - s.acked.Load() }

// roundWindow is how many msgRounds envelopes RunRounds lets a shard
// session leave unacknowledged before it waits. Rounds queued in socket
// buffers are latency every later correction waits behind (the backlog of
// §II-C), so the window bounds the queue to a few rounds per shard; a
// wider window trades latency for fewer wake-ups. On perfbench's fleet
// workload a window of 2 read 0.8× the p90 of a window of 4 at the same
// throughput, and 8 bought a few percent of throughput for twice the
// latency (EXPERIMENTS.md, "Bounded round window"). Replay envelopes
// count too, but only RunRounds waits.
const roundWindow = 2

// RecoveryStats describes the router's last completed crash recovery.
type RecoveryStats struct {
	// Shard is the crashed shard's index; Reconnected reports whether the
	// same shard came back within the backoff budget (false means the
	// streams failed over to survivors).
	Shard       int
	Reconnected bool
	// Streams is how many streams were re-homed; ReplayedRounds how many
	// journal rounds were replayed to restore them.
	Streams        int
	ReplayedRounds int
	// Duration is the wall time from the crash being detected to recovery
	// completing (reconnect/backoff plus adopt and replay for every
	// affected stream).
	Duration time.Duration
}

// Router is the fleet front end: it owns stream placement, the per-stream
// chaos channels, the bounded replay journal, and crash recovery. Router
// methods must not be called concurrently with each other; the concurrency
// inside (a reader goroutine per shard session) is invisible to the caller
// beyond sink invocations.
type Router struct {
	cfg Config
	per int

	links   []*link
	streams []*streamState
	retain  [][]stream.Correction // when cfg.Sink == nil

	// The round-major replay journal: blocks holds rounds
	// [blocks[0].round, sent), one block per round, and spare the recycled
	// blocks. Only the caller thread writes them (blocks and sent under
	// mu); the reader goroutine reads one entry per checkpoint under mu.
	// over is RunRounds' per-round list of streams over the journal budget.
	sent   uint64
	blocks []*journalBlock
	spare  []*journalBlock
	over   []*streamState

	// mu guards stream state (journal marks, checkpoints, delivery
	// counters, flush ledgers), the journal's block list, and each
	// session's verdict and flush answers. Never held across a socket
	// write.
	mu sync.Mutex
	// changed (on mu) is broadcast whenever what awaitShard waits on may
	// have changed: a checkpoint trims a journal, an ack, verdict or flush
	// answer arrives, or a session dies. wake broadcasts it once a wait's
	// deadline passes.
	changed *sync.Cond
	wake    *time.Timer

	recoveries   int
	lastRecovery RecoveryStats
	wireTx       atomic.Uint64
	wireRx       atomic.Uint64

	closed bool
	ended  bool // Flush completed: streams are over
}

var errShardDown = errors.New("fleet: shard down")

// Dial connects to every shard, opens the fleet's streams across them
// (stream i prefers shard i mod N; admission refusals spill to the next
// shard in order), and returns the ready router.
func Dial(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("fleet: no shards configured")
	}
	if cfg.Streams < 1 {
		return nil, errors.New("fleet: need at least one stream")
	}
	if _, err := stream.NewRobust(cfg.Distance, cfg.Window, cfg.Commit, stream.Robust{DeadlineNS: cfg.DeadlineNS, QueueCap: cfg.QueueCap}); err != nil {
		return nil, err
	}
	r := newRouter(cfg)
	for _, l := range r.links {
		if err := r.connect(l); err != nil {
			r.Close()
			return nil, fmt.Errorf("fleet: shard %d (%s): %w", l.idx, l.addr, err)
		}
	}
	// Place every stream in order, one open at a time: place sends an open
	// and waits for its verdict, spilling to the next shard on a refusal.
	for _, st := range r.streams {
		if err := r.place(st); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// newRouter builds a router's unconnected state: links, streams and their
// chaos channels.
func newRouter(cfg Config) *Router {
	r := &Router{
		cfg: cfg,
		per: cfg.Distance * (cfg.Distance - 1),
	}
	r.changed = sync.NewCond(&r.mu)
	r.wake = time.AfterFunc(waitLimit, func() {
		r.mu.Lock()
		r.changed.Broadcast()
		r.mu.Unlock()
	})
	r.wake.Stop()
	if cfg.Sink == nil {
		r.retain = make([][]stream.Correction, cfg.Streams)
	}
	for i, addr := range cfg.Shards {
		r.links = append(r.links, &link{idx: i, addr: addr})
	}
	r.streams = make([]*streamState, cfg.Streams)
	for i := range r.streams {
		st := &streamState{id: i, home: i % len(r.links), cur: -1}
		if cfg.Chaos != nil {
			c := *cfg.Chaos
			c.Seed = faults.StreamSeed(cfg.Chaos.Seed, i)
			st.ch = faults.NewChannel(r.per, c)
		}
		r.streams[i] = st
	}
	return r
}

// connect establishes a fresh session on l.
func (r *Router) connect(l *link) error {
	conn, err := net.DialTimeout(r.cfg.Network, l.addr, dialTimeout)
	if err != nil {
		return err
	}
	r.attach(l, conn)
	return nil
}

// attach makes conn l's new session, which is not shed, and starts its
// reader.
func (r *Router) attach(l *link, conn net.Conn) {
	s := &session{}
	l.shed = false
	l.wmu.Lock()
	l.conn = conn
	l.bw = bufio.NewWriterSize(conn, 1<<16)
	l.sess = s
	l.up.Store(true)
	l.wmu.Unlock()
	shardsUp.Add(1)
	go r.reader(l, conn, s)
}

// markDead tears session s of l down once: later calls for the same
// session, and any call for a stale one, are no-ops. It runs from reader
// goroutines, or from the caller thread on a write error or a shed; actual
// recovery (reconnect, failover, replay) happens only on the caller thread.
func (r *Router) markDead(l *link, s *session) {
	l.wmu.Lock()
	if l.sess != s || !l.up.Load() {
		l.wmu.Unlock()
		return
	}
	l.up.Store(false)
	l.conn.Close()
	l.wmu.Unlock()
	shardsUp.Add(-1)
	fObs.crashes.Inc(l.idx)
	// Wake a waiter so the caller thread can run recovery instead of
	// blocking.
	r.mu.Lock()
	r.changed.Broadcast()
	r.mu.Unlock()
}

// reader drains one session's messages until the session fails. Corrections,
// checkpoints and flush ledgers from a session that died microseconds ago
// are still valid — the shard really did decode them, and replay dedup
// makes re-delivery harmless — and acks, verdicts and flush answers count
// in the session's own state.
func (r *Router) reader(l *link, conn net.Conn, s *session) {
	br := bufio.NewReaderSize(&countingReader{r: conn, shard: l.idx, total: &r.wireRx}, 1<<16)
	var buf []byte
	for {
		env, err := readEnvelope(br, &buf)
		if err == nil {
			s.heard.Add(1)
			err = r.handle(l, s, env)
		}
		if err != nil {
			r.markDead(l, s)
			return
		}
	}
}

// handle applies one envelope that session s of l sent.
func (r *Router) handle(l *link, s *session, env envelope) error {
	switch env.typ {
	case msgCorrs:
		return r.handleCorrs(l, env.payload)
	case msgCheckpoint:
		return r.handleCheckpoint(l, env)
	case msgOpenOK, msgRefuse:
		r.mu.Lock()
		s.verdict, s.reason = env.typ, string(env.payload)
		r.changed.Broadcast()
		r.mu.Unlock()
		return nil
	case msgFlushOK:
		return r.handleFlushOK(l, s, env)
	case msgRoundsOK:
		return r.ack(s)
	}
	return fmt.Errorf("fleet: router got unexpected message type %d", env.typ)
}

// ack counts one msgRoundsOK in its session's window and wakes a waiter.
// An ack for an envelope never sent is a protocol error.
func (r *Router) ack(s *session) error {
	if s.acked.Load() >= s.sent.Load() {
		return errors.New("fleet: shard acknowledged a round envelope it was never sent")
	}
	r.mu.Lock()
	s.acked.Add(1)
	r.changed.Broadcast()
	r.mu.Unlock()
	return nil
}

// handleCorrs delivers one msgCorrs batch under a single lock acquisition.
func (r *Router) handleCorrs(l *link, p []byte) error {
	if len(p)%corrEntryBytes != 0 {
		return ErrEnvelope
	}
	var delivered, dups uint64
	defer func() {
		fObs.corrections.Add(l.idx, delivered)
		fObs.replayDups.Add(l.idx, dups)
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; len(p) > 0; p = p[corrEntryBytes:] {
		id, seq, c, err := decodeCorrEntry(p)
		if err != nil {
			return err
		}
		i := int(id)
		if i >= len(r.streams) {
			return fmt.Errorf("fleet: correction for unknown stream %d", i)
		}
		st := r.streams[i]
		if seq <= st.delivered {
			// A replay regenerated a correction the fleet already
			// delivered: the dedup that makes recovery invisible
			// downstream.
			dups++
			continue
		}
		if seq != st.delivered+1 {
			return fmt.Errorf("fleet: stream %d correction seq %d after %d", i, seq, st.delivered)
		}
		st.delivered = seq
		delivered++
		if r.cfg.Sink != nil {
			r.cfg.Sink(i, c)
		} else {
			r.retain[i] = append(r.retain[i], c)
		}
	}
	return nil
}

func (r *Router) handleCheckpoint(l *link, env envelope) error {
	rounds, corrSeq, snap, err := decodeCkptPayload(env.payload)
	if err != nil {
		return err
	}
	i := int(env.stream)
	if i >= len(r.streams) {
		return fmt.Errorf("fleet: checkpoint for unknown stream %d", i)
	}
	st := r.streams[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	if rounds <= st.jbase {
		// Stale: a late checkpoint from a dying session, or one taken at a
		// round an earlier checkpoint already covered. Nothing to trim.
		return nil
	}
	if rounds > r.sent {
		return fmt.Errorf("fleet: stream %d checkpoint at round %d past %d sent", i, rounds, r.sent)
	}
	st.ckptCorrSeq = corrSeq
	st.ckptSnap = append(st.ckptSnap[:0], snap...)
	// Trim the stream's journal up to the snapshot: those rounds are now
	// durable in the checkpoint and will never need replay. The blocks
	// stay until every stream has passed them; only the marks move.
	st.jtrim = r.block(rounds - 1).entries[i].total
	st.jbase = rounds
	r.changed.Broadcast()
	fObs.checkpoints.Inc(l.idx)
	return nil
}

// handleFlushOK takes one stream's flush answer, which the shard sends
// after the stream's last correction: the first answer for a stream is its
// ledger, and the session counts every answer it sends.
func (r *Router) handleFlushOK(l *link, s *session, env envelope) error {
	var rep faults.Report
	if err := json.Unmarshal(env.payload, &rep); err != nil {
		return err
	}
	i := int(env.stream)
	if i >= len(r.streams) {
		return fmt.Errorf("fleet: flush ledger for unknown stream %d", i)
	}
	st := r.streams[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	if !st.flushed {
		st.ledger, st.flushed = rep, true
		fObs.shedWindows.Add(l.idx, rep.ShedRounds)
	}
	s.flushes++
	r.changed.Broadcast()
	return nil
}

// sendLocked frames one message into l's write buffer and hands it to the
// buffered writer, counting the wire bytes against the router and per-shard
// totals, and a round envelope in the session's window. It is the single
// emit point for every outbound message; callers hold l.wmu.
func (r *Router) sendLocked(l *link, typ uint8, id uint32, payload []byte) error {
	if typ == msgRounds {
		l.sess.sent.Add(1)
	}
	l.wbuf = appendEnvelope(l.wbuf[:0], typ, id, payload)
	n, err := l.bw.Write(l.wbuf)
	r.wireTx.Add(uint64(n))
	fObs.wireTx.Add(l.idx, uint64(n))
	return err
}

// write frames and sends one message on l, counting wire bytes. Returns
// errShardDown (after marking the session dead) on any failure.
func (r *Router) write(l *link, typ uint8, id uint32, payload []byte) error {
	l.wmu.Lock()
	if !l.up.Load() {
		l.wmu.Unlock()
		return errShardDown
	}
	s := l.sess
	err := r.sendLocked(l, typ, id, payload)
	l.wmu.Unlock()
	if err != nil {
		r.markDead(l, s)
		return errShardDown
	}
	return nil
}

// flushLink flushes l's buffered writes to the socket.
func (r *Router) flushLink(l *link) error {
	l.wmu.Lock()
	if !l.up.Load() {
		l.wmu.Unlock()
		return errShardDown
	}
	s := l.sess
	err := l.bw.Flush()
	l.wmu.Unlock()
	if err != nil {
		r.markDead(l, s)
		return errShardDown
	}
	return nil
}

// replayPlan is an atomic capture of a stream's recovery state: the round
// the open's checkpoint resumes from, and the end of the journal. A
// checkpoint that lands while the replay is on the wire only moves the
// stream's marks; blocks are recycled when the caller thread journals its
// next round, which no replay overlaps.
type replayPlan struct {
	base, end uint64
}

// openOn sends one open for st on l and waits for the verdict, returning
// the replay plan captured atomically with the open's checkpoint. A
// session that dies or is shed before it answers reads as errShardDown.
func (r *Router) openOn(st *streamState, l *link) (ok bool, reason string, plan replayPlan) {
	op := openPayload{
		Distance:   r.cfg.Distance,
		Window:     r.cfg.Window,
		Commit:     r.cfg.Commit,
		DeadlineNS: r.cfg.DeadlineNS,
		QueueCap:   r.cfg.QueueCap,
	}
	// The open and the replay plan must be one atomic read of the stream's
	// recovery state: a checkpoint arriving between them would advance
	// jbase past the base the open just promised. Encode inside the lock
	// too — ckptSnap is rewritten in place when the next checkpoint lands.
	s := l.sess
	r.mu.Lock()
	op.Rounds = st.jbase
	op.CorrSeq = st.ckptCorrSeq
	op.Snapshot = st.ckptSnap
	blob := appendOpenPayload(nil, op)
	plan = replayPlan{base: st.jbase, end: r.sent}
	s.verdict = 0
	r.mu.Unlock()
	if r.write(l, msgOpen, uint32(st.id), blob) != nil || r.flushLink(l) != nil ||
		!r.awaitShard(l, fObs.stallSheds, func() bool { return s.verdict != 0 }) {
		return false, errShardDown.Error(), plan
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return s.verdict == msgOpenOK, s.reason, plan
}

// place finds a shard for a homeless stream: its home shard first, then the
// others in deterministic order, skipping dead links and admission
// refusals.
func (r *Router) place(st *streamState) error {
	n := len(r.links)
	var lastReason string
	for k := 0; k < n; k++ {
		l := r.links[(st.home+k)%n]
		if !l.up.Load() {
			lastReason = errShardDown.Error()
			continue
		}
		ok, reason, plan := r.openOn(st, l)
		if ok {
			st.cur = l.idx
			if err := r.replay(st, l, plan); err != nil {
				// The target died mid-replay; try the remaining shards.
				lastReason = err.Error()
				continue
			}
			return nil
		}
		lastReason = reason
	}
	return fmt.Errorf("fleet: no shard admits stream %d: %s", st.id, lastReason)
}

// replay re-sends st's journal to l: rounds [plan.base, plan.end) with
// their original sequence numbers, fault outcomes and penalties, read from
// the blocks and packed as consecutive entries of msgRounds envelopes. The
// shard regenerates any corrections the fleet already delivered; seq dedup
// drops them. On success the session has been handed every round.
func (r *Router) replay(st *streamState, l *link, plan replayPlan) error {
	for k := plan.base; k < plan.end; {
		l.wmu.Lock()
		if !l.up.Load() {
			l.wmu.Unlock()
			return errShardDown
		}
		s := l.sess
		l.pbuf = l.pbuf[:0]
		for ; k < plan.end && len(l.pbuf) < maxBatch; k++ {
			b := r.block(k)
			e := &b.entries[st.id]
			l.pbuf = appendRoundsEntry(l.pbuf, uint32(st.id), uint32(k), b.events(e), e.erased, e.penalty, r.per)
		}
		err := r.sendLocked(l, msgRounds, 0, l.pbuf)
		l.wmu.Unlock()
		if err != nil {
			r.markDead(l, s)
			return errShardDown
		}
	}
	if n := plan.end - plan.base; n > 0 {
		fObs.replayed.Add(l.idx, n)
		fObs.roundsRouted.Add(l.idx, n)
	}
	if err := r.flushLink(l); err != nil {
		return err
	}
	st.handed = plan.end
	return nil
}

// recover handles the death of shard idx: bounded-backoff reconnection,
// then — same shard or survivors — deterministic re-placement of every
// stream it was decoding, restoring each from its last checkpoint and
// replaying its journal. On return every affected stream is live again (or
// an error says the fleet is out of capacity). Streams the shard had
// flushed have left it with their ledgers and do not move.
//
// A session the router shed made no progress, and a shard that still
// answers opens would take its streams back and be shed again every round.
// So the recovery a shed triggers does not reconnect first: the streams
// fail over to the survivors, and the shed shard is reconnected only for
// streams no survivor admits.
func (r *Router) recover(idx int) error {
	start := time.Now()
	l := r.links[idx]
	late := l.shed // reconnect only for a stream no survivor admits
	reconnected := !late && r.reconnect(l)
	var affected []*streamState
	r.mu.Lock()
	for _, st := range r.streams {
		if st.cur == idx {
			st.cur = -1
			if !st.flushed {
				affected = append(affected, st)
			}
		}
	}
	r.mu.Unlock()
	replayedBefore := fObs.replayed.Value()
	for _, st := range affected {
		// place prefers the home shard — reborn or not — and falls back to
		// the survivors if it is dead, refuses or dies again.
		err := r.place(st)
		if err != nil && late {
			late = false
			if reconnected = r.reconnect(l); reconnected {
				err = r.place(st)
			}
		}
		if err != nil {
			return err
		}
		if st.cur != idx {
			fObs.failovers.Inc(idx)
		}
	}
	r.recoveries++
	r.lastRecovery = RecoveryStats{
		Shard:          idx,
		Reconnected:    reconnected,
		Streams:        len(affected),
		ReplayedRounds: int(fObs.replayed.Value() - replayedBefore),
		Duration:       time.Since(start),
	}
	return nil
}

// reconnect redials l's shard with bounded, doubling backoff and reports
// whether it came back.
func (r *Router) reconnect(l *link) bool {
	backoff := reconnectBackoff
	for a := 0; a < r.cfg.reconnectAttempts(); a++ {
		if a > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err := r.connect(l); err == nil {
			fObs.reconnects.Inc(l.idx)
			return true
		}
	}
	return false
}

// block returns the journal block of round k, which must be retained.
func (r *Router) block(k uint64) *journalBlock { return r.blocks[k-r.blocks[0].round] }

// journalBytes is st's accounted journal size: the running total of its
// newest round less that of the last round its checkpoint covers. Callers
// hold r.mu.
func (r *Router) journalBytes(st *streamState) uint64 {
	if r.sent == 0 {
		return 0
	}
	return r.block(r.sent - 1).entries[st.id].total - st.jtrim
}

// journalRound journals round for every stream as one block, in one
// sequential pass: each stream's events from feed, through its chaos
// channel, become a fixed-size entry over the block's event arena.
// Publishing the block under one r.mu acquisition collects the streams it
// puts over the journal budget in r.over and recycles the blocks every
// stream's checkpoint has passed. Journaling before sending means a send
// that dies mid-flight is replayed by the recovery the failure triggers.
func (r *Router) journalRound(round int, feed func(stream, round int) []int32) {
	var b *journalBlock
	if n := len(r.spare); n > 0 {
		b, r.spare = r.spare[n-1], r.spare[:n-1]
		b.arena = b.arena[:0]
	} else {
		b = &journalBlock{entries: make([]journalEntry, len(r.streams))}
	}
	b.round = r.sent
	var prev []journalEntry
	if r.sent > 0 {
		prev = r.block(r.sent - 1).entries
	}
	for i, st := range r.streams {
		events, erased, penalty := feed(st.id, round), false, 0.0
		if st.ch != nil {
			events, erased, penalty = st.ch.Transfer(events)
		}
		if erased {
			events = nil
		}
		e := &b.entries[i]
		*e = journalEntry{off: uint32(len(b.arena)), n: uint32(len(events)), erased: erased, penalty: penalty, total: uint64(journalEntryCost(events))}
		if prev != nil {
			e.total += prev[i].total
		}
		b.arena = append(b.arena, events...)
	}
	budget := uint64(r.cfg.journalMaxBytes())
	r.over = r.over[:0]
	r.mu.Lock()
	defer r.mu.Unlock()
	r.blocks = append(r.blocks, b)
	r.sent++
	low := r.sent
	for i, st := range r.streams {
		if budget > 0 && b.entries[i].total-st.jtrim > budget {
			r.over = append(r.over, st)
		}
		low = min(low, st.jbase)
	}
	// Recycle the blocks below every stream's checkpoint. A checkpoint
	// never passes the round being published, so this block stays.
	k := int(low - r.blocks[0].round)
	r.spare = append(r.spare, r.blocks[:min(k, maxSpareBlocks-len(r.spare))]...)
	n := copy(r.blocks, r.blocks[k:])
	clear(r.blocks[n:])
	r.blocks = r.blocks[:n]
}

// enforceBudget handles a stream whose journal is over budget: its shard
// has taken a cap's worth of rounds without a checkpoint. Flush the link
// (the shard cannot checkpoint rounds still sitting in our write buffer)
// and wait for a trimming checkpoint — a healthy shard that just adopted
// the stream sends one almost immediately. A shard that falls silent
// first is wedged, and the wait sheds it (a journal shed): the session is
// declared dead, so this takes the same recovery as a crash — the journal
// is replayed (nothing sheds data), and the adopting shard's first
// checkpoint trims it.
func (r *Router) enforceBudget(st *streamState) error {
	l := r.links[st.cur]
	budget := uint64(r.cfg.journalMaxBytes())
	if r.flushLink(l) != nil || !r.awaitShard(l, fObs.journalSheds, func() bool { return r.journalBytes(st) <= budget }) {
		return errShardDown
	}
	return nil
}

// shed declares l's live session dead for making no progress, so that
// recovery moves its streams exactly as after a crash, except that it
// fails them over before it tries to reconnect.
func (r *Router) shed(l *link) {
	l.shed = true
	r.markDead(l, l.sess)
}

// sendRound hands the newest journal block to the shards: one msgRounds
// envelope per shard (split at maxBatch), with one entry per stream that
// has not had the round yet. A dead shard triggers recovery, which replays
// the round to every stream it moves.
func (r *Router) sendRound() error {
	b := r.blocks[len(r.blocks)-1]
	for i, st := range r.streams {
		if st.handed == r.sent {
			continue // a recovery this round already replayed it
		}
		e := &b.entries[i]
		l := r.links[st.cur]
		l.batch = appendRoundsEntry(l.batch, uint32(st.id), uint32(st.handed), b.events(e), e.erased, e.penalty, r.per)
		l.batched++
		st.handed++
		if len(l.batch) >= maxBatch {
			if err := r.sendBatch(l); err != nil {
				return err
			}
		}
	}
	for _, l := range r.links {
		if err := r.sendBatch(l); err != nil {
			return err
		}
	}
	return nil
}

// sendBatch writes l's pending msgRounds envelope, if any, recovering the
// shard if the write fails.
func (r *Router) sendBatch(l *link) error {
	if l.batched == 0 {
		return nil
	}
	n := l.batched
	err := r.write(l, msgRounds, 0, l.batch)
	l.batch, l.batched = l.batch[:0], 0
	if err != nil {
		return r.recover(l.idx)
	}
	fObs.roundsRouted.Add(l.idx, uint64(n))
	return nil
}

// waitLimit bounds every wait on a shard session — an open's verdict, a
// full round window, an over-budget journal, a flush: a session that sends
// nothing for this long while the router waits on it is shed. A shard that
// is decoding answers within microseconds of reading an envelope, and one
// flushing many streams answers each stream as it goes, so a quarter
// second of silence means it is not decoding.
const waitLimit = 250 * time.Millisecond

// awaitShard is the router's one wait on a shard session. It blocks the
// caller thread until done holds (it is evaluated under r.mu), l's session
// dies, or the session has sent nothing for waitLimit, which sheds it and
// counts the shed on sheds. It reports whether done holds.
//
// Every envelope the session's reader handles restarts the deadline. Acks,
// checkpoints, verdicts, flush answers and deaths broadcast r.changed, so
// the waiter sees them the moment they land; an envelope that wakes no
// waiter (a correction batch) is seen at the next wake-up, at the latest
// when r.wake fires at the deadline, so a shed session was silent for
// between one and two waitLimits. Wall-clock only affects *when* a silent
// shard is shed, never decode results: the journal replays identically
// either way.
func (r *Router) awaitShard(l *link, sheds *obs.Counter, done func() bool) bool {
	s := l.sess
	r.mu.Lock()
	heard, deadline := s.heard.Load(), time.Now().Add(waitLimit)
	r.wake.Reset(waitLimit)
	for !done() && l.up.Load() {
		if h := s.heard.Load(); h != heard {
			heard, deadline = h, time.Now().Add(waitLimit)
			r.wake.Reset(waitLimit)
		} else if !time.Now().Before(deadline) {
			break
		}
		r.changed.Wait()
	}
	ok := done()
	r.mu.Unlock()
	r.wake.Stop()
	if !ok && l.up.Load() {
		sheds.Inc(l.idx)
		r.shed(l)
	}
	return ok
}

// awaitWindows runs after every round of RunRounds. A live session with
// roundWindow envelopes unacknowledged makes the router flush every link —
// the shards cannot acknowledge rounds still in its write buffers — and
// wait for an ack. A session that dies while it waits, or is shed for
// silence, is recovered like any crash. Flushing only here means a round
// goes out with the others of its window, in one write per shard.
func (r *Router) awaitWindows() error {
	for _, l := range r.links {
		if !l.up.Load() || l.sess.unacked() < roundWindow {
			continue
		}
		fObs.windowWaits.Inc(l.idx)
		if err := r.flushAll(); err != nil {
			return err
		}
		if r.awaitShard(l, fObs.stallSheds, func() bool { return l.sess.unacked() < roundWindow }) {
			continue
		}
		if err := r.recover(l.idx); err != nil {
			return err
		}
	}
	return nil
}

// RunRounds feeds n rounds to every stream, pulling each round's detection
// events from feed(stream, round) — invoked exactly once per (stream,
// round), in round order per stream, exactly like stream.Engine.RunRounds.
// Each round passes through every stream's chaos channel (when
// configured), is journaled for all streams as one block, and goes to
// each shard as one msgRounds envelope holding its streams' rounds; a
// shard crash anywhere in the batch triggers recovery (reconnect or
// failover plus replay) and the batch continues. After each round the
// router waits while any shard has roundWindow envelopes unacknowledged.
// Corrections arrive asynchronously; Flush is the barrier that makes them
// all visible.
func (r *Router) RunRounds(n int, feed func(stream, round int) []int32) error {
	if r.closed || r.ended {
		return errors.New("fleet: router used after Flush or Close")
	}
	for round := 0; round < n; round++ {
		r.journalRound(round, feed)
		for _, st := range r.over {
			if err := r.enforceBudget(st); err != nil {
				if err := r.recover(st.cur); err != nil {
					return err
				}
			}
		}
		if err := r.sendRound(); err != nil {
			return err
		}
		if err := r.awaitWindows(); err != nil {
			return err
		}
	}
	return r.flushAll()
}

// flushAll flushes every live link's write buffer, running recovery for any
// link found dead (crashed between rounds, detected by its reader).
func (r *Router) flushAll() error {
	for _, l := range r.links {
		owns := false
		for _, st := range r.streams {
			if st.cur == l.idx {
				owns = true
				break
			}
		}
		if !owns {
			continue
		}
		if !l.up.Load() || r.flushLink(l) != nil {
			if err := r.recover(l.idx); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush ends every stream: shards decode the remaining buffered layers as
// closed windows, deliver the final corrections, and answer each stream
// with its decoder ledger. A shard that dies or falls silent during the
// flush is recovered like any crash (reconnect or failover, checkpoint +
// replay), and its unanswered streams flush again; answered streams keep
// their ledgers. After Flush the fleet session is over: corrections and ledgers
// are complete and stable.
func (r *Router) Flush() error {
	if r.closed || r.ended {
		return errors.New("fleet: router used after Flush or Close")
	}
	owed := make([]int, len(r.links))
	for try := 0; try <= len(r.links)*(1+r.cfg.reconnectAttempts()); try++ {
		// owed[i] is the count of flush answers link i's session will have
		// sent once it has answered each unflushed stream it decodes, or 0
		// if it decodes none. Every link is asked before any is waited on,
		// so the shards flush in parallel.
		clear(owed)
		left := 0
		r.mu.Lock()
		for _, st := range r.streams {
			if !st.flushed {
				owed[st.cur]++
				left++
			}
		}
		for i, l := range r.links {
			if owed[i] > 0 {
				owed[i] += l.sess.flushes
			}
		}
		r.mu.Unlock()
		if left == 0 {
			r.ended = true
			return nil
		}
		for i, l := range r.links {
			// A failed write kills the session, and the wait below
			// recovers it.
			if owed[i] > 0 && r.write(l, msgFlush, 0, nil) == nil {
				_ = r.flushLink(l)
			}
		}
		for i, l := range r.links {
			s, want := l.sess, owed[i]
			if want > 0 && !r.awaitShard(l, fObs.stallSheds, func() bool { return s.flushes >= want }) {
				if err := r.recover(i); err != nil {
					return err
				}
			}
		}
	}
	return errors.New("fleet: flush did not converge")
}

// Streams returns the fleet size L.
func (r *Router) Streams() int { return len(r.streams) }

// JournalStats reports stream i's replay-journal occupancy: entries not
// yet covered by a shard checkpoint, and their accounted bytes (the
// quantity Config.JournalMaxBytes caps).
func (r *Router) JournalStats(i int) (entries, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.streams[i]
	return int(r.sent - st.jbase), int(r.journalBytes(st))
}

// Committed returns the corrections retained for stream i (router built
// without a sink). Stable only after Flush.
func (r *Router) Committed(i int) []stream.Correction {
	if r.retain == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retain[i]
}

// StreamReport returns stream i's merged ledger: its decoder's runtime
// counters (from the flush ledger) plus its router-side chaos channel's.
// Complete only after Flush.
func (r *Router) StreamReport(i int) faults.Report {
	r.mu.Lock()
	rep := r.streams[i].ledger
	r.mu.Unlock()
	if ch := r.streams[i].ch; ch != nil {
		rep.Merge(ch.Report())
	}
	return rep
}

// FaultReport merges every stream's ledger into one fleet-wide report —
// the same identities as stream.Engine.FaultReport, now closed across
// shard crashes, failovers and replays.
func (r *Router) FaultReport() faults.Report {
	var rep faults.Report
	for i := range r.streams {
		rep.Merge(r.StreamReport(i))
	}
	return rep
}

// Recoveries returns how many crash recoveries the router has completed,
// and LastRecovery the most recent one's statistics.
func (r *Router) Recoveries() int             { return r.recoveries }
func (r *Router) LastRecovery() RecoveryStats { return r.lastRecovery }

// WireBytes returns the total bytes written to and read from shard sockets.
func (r *Router) WireBytes() (tx, rx uint64) { return r.wireTx.Load(), r.wireRx.Load() }

// Rebalance re-homes streams back onto their preferred shards where
// possible: for every dead link it attempts one reconnection, and every
// revived (or already live) home shard adopts its displaced streams via the
// usual checkpoint + replay, with the interim shard told to drop them
// (msgClose) first. Call it after restarting a crashed shard process to
// restore the original placement; streams whose home stays dead are left
// where they are.
func (r *Router) Rebalance() error {
	if r.closed || r.ended {
		return errors.New("fleet: router used after Flush or Close")
	}
	for _, l := range r.links {
		if !l.up.Load() {
			if err := r.connect(l); err != nil {
				continue
			}
			fObs.reconnects.Inc(l.idx)
		}
	}
	for _, st := range r.streams {
		home := r.links[st.home]
		if st.cur == st.home || !home.up.Load() {
			continue
		}
		interim := r.links[st.cur]
		// Tell the interim shard to drop the stream before the home shard
		// adopts it, so a later fleet-wide flush cannot double-count it.
		// The close and any later flush ride the same connection, so
		// ordering is guaranteed; if the interim shard is dead the drop is
		// implicit, and a failed write or flush marks it dead.
		if interim.up.Load() && r.write(interim, msgClose, uint32(st.id), nil) == nil {
			_ = r.flushLink(interim)
		}
		ok, _, plan := r.openOn(st, home)
		if !ok {
			// Home refused (capacity); reopen on the interim shard.
			st.cur = -1
			if err := r.place(st); err != nil {
				return err
			}
			continue
		}
		st.cur = st.home
		if err := r.replay(st, home, plan); err != nil {
			st.cur = -1
			if err := r.place(st); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close tears down every shard session. It does not flush; call Flush first
// for a clean end of stream.
func (r *Router) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.wake.Stop()
	for _, l := range r.links {
		l.wmu.Lock()
		s, up, conn := l.sess, l.up.Load(), l.conn
		l.wmu.Unlock()
		if up {
			r.markDead(l, s)
		} else if conn != nil {
			conn.Close()
		}
	}
}
