package fleet

import (
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// silentShard speaks just enough of the wire protocol to look healthy — it
// admits every open — but swallows rounds without decoding, so it never
// acknowledges a round envelope, never checkpoints and never delivers a
// correction. This is the stalled-but-alive failure mode (wedged decode
// loop, kill -STOP) that no socket error reveals: the router's round
// window notices the missing acks and sheds it. rounds counts the msgRounds
// envelopes it has swallowed across sessions.
type silentShard struct {
	t      *testing.T
	addr   string
	ln     net.Listener
	rounds atomic.Int64

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
// the router's writes) and replies only to opens.
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
		case msgRounds:
			s.rounds.Add(1)
			continue // into the void, unacknowledged
		default:
			continue // flushes, closes: into the void
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
// The silent shard is shed (its round window sees no ack; the byte cap
// here is the backstop for a shard that acks without checkpointing), the
// stream fails over to the survivor with its journal replayed intact, and
// the delivered corrections stay bit-identical to an uninterrupted
// in-process run.
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
		t.Fatal("silent shard was never shed")
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
// not just its own, until the silent shard is shed — by its round window
// long before its byte cap. Eight streams split four and four over a
// silent and a healthy shard. The rounds the router retains (its sent
// count less its oldest block's round) stay within the cap's round bound,
// JournalMaxBytes/48, plus one RunRounds batch; once the silent shard's
// streams have failed over they fall back to the checkpoint cadence plus
// one batch; and every stream's corrections match the in-process engine.
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

// TestJournalDefaultCapShedsSilentShard is the retention bound at the
// default JournalMaxBytes (4 MiB, about 87,000 rounds of every stream
// before a cap could fire): the round window sheds a silent shard after at
// most roundWindow + 1 unacknowledged envelopes, so the journal never
// holds more than roundWindow rounds plus one RunRounds batch, and once
// the silent shard's streams have failed over, no more than the
// checkpoint cadence plus one batch. The shed is a stall shed, not a
// journal one, and every stream's corrections match the engine's. It runs
// with reconnection off and at the default: a shed session is not
// reconnected while a survivor admits its streams, so either way there is
// one shed, one recovery, and a failover off the silent shard — at the
// default, a reconnect-first recovery would hand the streams back to the
// silent shard, which still answers opens, and shed it every round.
func TestJournalDefaultCapShedsSilentShard(t *testing.T) {
	const (
		d      = 5
		rounds = 320
		batch  = 16
		every  = 16
		p      = 0.05
		seed   = uint64(17)
	)
	for _, tc := range []struct {
		name      string
		reconnect int
	}{
		{"no-reconnect", -1},
		{"default-reconnect", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			silent := newSilentShard(t)
			healthy := newTestShard(t, ShardConfig{CheckpointEvery: every})
			cfg := Config{
				Network: "tcp", Shards: []string{silent.addr, healthy.addr},
				Streams: 8, Distance: d,
				ReconnectAttempts: tc.reconnect,
			}
			wantCorrs, _ := runEngine(t, cfg, rounds, seed, p, []int{rounds})
			stalls, journals := fObs.stallSheds.Value(), fObs.journalSheds.Value()

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
			feed := feedFrom(cfg.Streams, d, p, seed)
			failedOver := false
			for done := 0; done < rounds; done += batch {
				if err := r.RunRounds(batch, feed); err != nil {
					t.Fatal(err)
				}
				n := retained()
				if limit := uint64(roundWindow + batch); n > limit {
					t.Fatalf("after %d rounds the journal retains %d rounds, want <= %d", done+batch, n, limit)
				}
				if limit := uint64(every + batch); failedOver && n > limit {
					t.Fatalf("after %d rounds, past the failover, the journal retains %d rounds, want <= %d", done+batch, n, limit)
				}
				if !failedOver {
					failedOver = true
					for _, st := range r.streams {
						failedOver = failedOver && st.cur == 1
					}
				}
				if failedOver {
					awaitCheckpoints(t, r, every)
				}
			}
			if !failedOver {
				t.Fatal("the silent shard was never shed")
			}
			if n := silent.rounds.Load(); n > roundWindow+1 {
				t.Fatalf("the silent shard was sent %d round envelopes before the shed, want <= %d", n, roundWindow+1)
			}
			if got := fObs.stallSheds.Value() - stalls; got != 1 {
				t.Fatalf("%d stall sheds, want 1", got)
			}
			if got := fObs.journalSheds.Value() - journals; got != 0 {
				t.Fatalf("%d journal sheds at the default cap, want 0", got)
			}
			if rec := r.LastRecovery(); r.Recoveries() != 1 || rec.Reconnected || rec.Shard != 0 {
				t.Fatalf("want one failover off shard 0, got %d recoveries, last %+v", r.Recoveries(), rec)
			}
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := range wantCorrs {
				if got := r.Committed(i); !reflect.DeepEqual(got, wantCorrs[i]) {
					t.Fatalf("stream %d: corrections diverge from the engine: got %d, want %d", i, len(got), len(wantCorrs[i]))
				}
			}
		})
	}
}

// TestJournalByteCapShedsNonCheckpointingShard keeps the byte cap's own
// shed path covered: a real shard whose checkpoint cadence exceeds the run
// acknowledges every round envelope, so its window never stalls, but its
// stream's journal is never trimmed. The cap sheds it (a journal shed, not
// a stall shed), the stream fails over with its journal replayed from
// round 0, the journal stays within the cap, and the corrections match
// the engine's.
func TestJournalByteCapShedsNonCheckpointingShard(t *testing.T) {
	const (
		d      = 5
		rounds = 400
		p      = 0.05
		seed   = uint64(19)
		budget = 8 << 10
	)
	lazy := newTestShard(t, ShardConfig{CheckpointEvery: 1 << 20})
	healthy := newTestShard(t, ShardConfig{CheckpointEvery: 16})
	cfg := Config{
		Network: "tcp", Shards: []string{lazy.addr, healthy.addr},
		Streams: 1, Distance: d,
		JournalMaxBytes:   budget,
		ReconnectAttempts: -1, // shed straight to the survivor
	}
	wantCorrs, _ := runEngine(t, cfg, rounds, seed, p, []int{rounds})
	stalls, journals := fObs.stallSheds.Value(), fObs.journalSheds.Value()

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
	if limit := budget + 512; maxBytes > limit {
		t.Fatalf("journal reached %d bytes, want <= %d (cap %d)", maxBytes, limit, budget)
	}
	if got := fObs.journalSheds.Value() - journals; got != 1 {
		t.Fatalf("%d journal sheds, want 1", got)
	}
	if got := fObs.stallSheds.Value() - stalls; got != 0 {
		t.Fatalf("%d stall sheds of a shard that acknowledges every envelope, want 0", got)
	}
	if rec := r.LastRecovery(); r.Recoveries() != 1 || rec.Reconnected || rec.Shard != 0 {
		t.Fatalf("want one failover off shard 0, got %d recoveries, last %+v", r.Recoveries(), rec)
	}
	if got := r.Committed(0); !reflect.DeepEqual(got, wantCorrs[0]) {
		t.Fatalf("corrections diverge after the journal shed: got %d, want %d", len(got), len(wantCorrs[0]))
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
		r.changed.Broadcast()
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
		r.changed.Wait()
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
