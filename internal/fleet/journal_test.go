package fleet

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// silentShard speaks just enough of the wire protocol to look perfectly
// healthy — it admits every open and answers every ping — but swallows
// rounds without decoding, so it never checkpoints and never delivers a
// correction. This is the stalled-but-alive failure mode (wedged decode
// loop, kill -STOP) that neither socket errors nor heartbeats detect: only
// the journal byte cap notices the lack of progress.
type silentShard struct {
	t    *testing.T
	addr string
	ln   net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

func newSilentShard(t *testing.T) *silentShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &silentShard{t: t, addr: ln.Addr().String(), ln: ln}
	go s.serve()
	t.Cleanup(s.close)
	return s
}

func (s *silentShard) serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns = append(s.conns, conn)
		s.mu.Unlock()
		go s.session(conn)
	}
}

// session drains the router's messages (so TCP backpressure never blocks
// the router's writes) and replies only to opens and pings.
func (s *silentShard) session(conn net.Conn) {
	var rbuf, wbuf []byte
	for {
		env, err := readEnvelope(conn, &rbuf)
		if err != nil {
			return
		}
		switch env.typ {
		case msgOpen:
			wbuf = appendEnvelope(wbuf[:0], msgOpenOK, env.stream, nil)
		case msgPing:
			wbuf = appendEnvelope(wbuf[:0], msgPong, 0, nil)
		default:
			continue // rounds, flushes, closes: into the void
		}
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}

func (s *silentShard) close() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
}

// TestJournalBoundedWithSilentShard is the regression test for the
// unbounded replay journal: a stream homed on a shard that accepts rounds
// but never checkpoints must not grow the router's journal without limit.
// The byte cap sheds the silent shard, the stream fails over to the
// survivor with its journal replayed intact, and the delivered corrections
// stay bit-identical to an uninterrupted in-process run.
func TestJournalBoundedWithSilentShard(t *testing.T) {
	const (
		d      = 5
		rounds = 400
		p      = 0.05
		seed   = uint64(7)
		budget = 8 << 10
	)
	silent := newSilentShard(t)
	healthy := newTestShard(t, ShardConfig{CheckpointEvery: 16})
	cfg := Config{
		Network: "tcp", Shards: []string{silent.addr, healthy.addr},
		Streams: 1, Distance: d,
		JournalMaxBytes:   budget,
		ReconnectAttempts: -1, // shed straight to the survivor
		HeartbeatEvery:    -1, // liveness is not what catches this shard
	}
	wantCorrs, _ := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	feed := feedFrom(cfg.Streams, d, p, seed)
	maxBytes := 0
	for done := 0; done < rounds; done += 16 {
		if err := r.RunRounds(16, feed); err != nil {
			t.Fatal(err)
		}
		if _, b := r.JournalStats(0); b > maxBytes {
			maxBytes = b
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	// The hard bound: the configured cap plus one round's worth of slack
	// for the entry that trips the threshold.
	if limit := budget + 512; maxBytes > limit {
		t.Fatalf("journal reached %d bytes, want <= %d (cap %d)", maxBytes, limit, budget)
	}
	if r.Recoveries() == 0 {
		t.Fatal("silent shard was never shed — journal cap did not fire")
	}
	if rec := r.LastRecovery(); rec.Reconnected {
		t.Fatalf("expected failover to the survivor, got reconnection: %+v", rec)
	}
	if got := r.Committed(0); !reflect.DeepEqual(got, wantCorrs[0]) {
		t.Fatalf("corrections diverge after journal shed: got %d, want %d", len(got), len(wantCorrs[0]))
	}
}

// TestJournalRetentionWithLaggard pins the round-major journal's retention
// trade-off: a stream on a silent shard keeps every stream's rounds alive,
// not just its own, until its byte cap sheds it. Eight streams split four
// and four over a silent and a healthy shard. The rounds the router
// retains (its sent count less its oldest block's round) stay within the
// cap's round bound, JournalMaxBytes/48, plus one RunRounds batch; once the
// silent shard's streams have failed over they fall back to the checkpoint
// cadence plus one batch; and every stream's corrections match the
// in-process engine.
func TestJournalRetentionWithLaggard(t *testing.T) {
	const (
		d      = 5
		rounds = 480
		batch  = 16
		every  = 16
		p      = 0.05
		seed   = uint64(11)
		budget = 8 << 10
	)
	silent := newSilentShard(t)
	healthy := newTestShard(t, ShardConfig{CheckpointEvery: every})
	cfg := Config{
		Network: "tcp", Shards: []string{silent.addr, healthy.addr},
		Streams: 8, Distance: d,
		JournalMaxBytes:   budget,
		ReconnectAttempts: -1, // shed straight to the survivor
		HeartbeatEvery:    -1, // liveness is not what catches this shard
	}
	wantCorrs, _ := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	retained := func() uint64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.sent - r.blocks[0].round
	}
	onHealthy := func() bool {
		for _, st := range r.streams {
			if st.cur != 1 {
				return false
			}
		}
		return true
	}
	feed := feedFrom(cfg.Streams, d, p, seed)
	failedOver := false
	for done := 0; done < rounds; done += batch {
		if err := r.RunRounds(batch, feed); err != nil {
			t.Fatal(err)
		}
		n := retained()
		if limit := uint64(budget/48 + batch); n > limit {
			t.Fatalf("after %d rounds the journal retains %d rounds, want <= %d", done+batch, n, limit)
		}
		if limit := uint64(every + batch); failedOver && n > limit {
			t.Fatalf("after %d rounds, past the failover, the journal retains %d rounds, want <= %d", done+batch, n, limit)
		}
		if !failedOver {
			failedOver = onHealthy()
		}
		if failedOver {
			awaitCheckpoints(t, r, every)
		}
	}
	if !failedOver {
		t.Fatal("the silent shard's streams never failed over")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range wantCorrs {
		if got := r.Committed(i); !reflect.DeepEqual(got, wantCorrs[i]) {
			t.Fatalf("stream %d: corrections diverge from the engine: got %d, want %d", i, len(got), len(wantCorrs[i]))
		}
	}
}

// awaitCheckpoints waits until every stream's checkpoint lies within every
// rounds of the router's sent count — the shard has decoded all it was
// sent — failing after a generous deadline.
func awaitCheckpoints(t *testing.T, r *Router, every uint64) {
	t.Helper()
	expired := false
	timer := time.AfterFunc(30*time.Second, func() {
		r.mu.Lock()
		expired = true
		r.mu.Unlock()
		r.trimCond.Broadcast()
	})
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for !expired {
		caught := true
		for _, st := range r.streams {
			caught = caught && st.jbase+every > r.sent
		}
		if caught {
			return
		}
		r.trimCond.Wait()
	}
	t.Fatalf("streams still lack a checkpoint within %d rounds of round %d", every, r.sent)
}

// TestJournalSteadyStateZeroAllocs journals rounds for 256 streams and
// trims them through handleCheckpoint every DefaultCheckpointEvery rounds,
// each stream at its own phase, as a shard at the default cadence would.
// Once warm, journaling and trimming allocate nothing, and after every
// trim each stream's JournalStats equals Σ journalEntryCost over the rounds
// its checkpoint has not covered, recomputed from the feed.
func TestJournalSteadyStateZeroAllocs(t *testing.T) {
	const (
		streams = 256
		every   = DefaultCheckpointEvery
		sizes   = 8 // a round's event count cycles through 0..7 over streams
		lag     = 8 // stream i's checkpoint trails the sent count by i mod lag
	)
	r := newRouter(Config{Shards: []string{"unused"}, Streams: streams, Distance: 11})
	events := make([][]int32, sizes)
	for k := range events {
		for j := 0; j < k; j++ {
			events[k] = append(events[k], int32(7*j+k))
		}
	}
	count := func(s int, round uint64) int { return int((uint64(s) + round) % sizes) }
	feed := func(s, round int) []int32 { return events[count(s, uint64(round))] }
	var ckpt []byte
	cycle := func() {
		for k := 0; k < every; k++ {
			r.journalRound(int(r.sent), feed)
		}
		for i := 0; i < streams; i++ {
			ckpt = appendCkptPayload(ckpt[:0], r.sent-uint64(i%lag), 0, nil)
			if err := r.handleCheckpoint(r.links[0], envelope{typ: msgCheckpoint, stream: uint32(i), payload: ckpt}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < streams; i++ {
			base := r.sent - uint64(i%lag)
			want := 0
			for k := base; k < r.sent; k++ {
				want += journalEntryCost(events[count(i, k)])
			}
			if entries, bytes := r.JournalStats(i); entries != int(r.sent-base) || bytes != want {
				t.Fatalf("round %d, stream %d: JournalStats = (%d, %d), want (%d, %d)", r.sent, i, entries, bytes, r.sent-base, want)
			}
		}
	}
	for w := 0; w < 4; w++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(8, cycle); allocs != 0 {
		t.Fatalf("journal steady state allocates %.0f times per %d rounds, want 0", allocs, every)
	}
}
