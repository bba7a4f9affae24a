package fleet

import (
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"afs/internal/faults"
	"afs/internal/noise"
	"afs/internal/stream"
)

// testShard runs an in-process decode shard that a test can kill abruptly
// (listener and live connections closed with no warning — the in-process
// stand-in for kill -9) and later restart on the same address.
type testShard struct {
	t    *testing.T
	cfg  ShardConfig
	addr string

	mu    sync.Mutex
	ln    net.Listener
	conns []net.Conn
	wg    sync.WaitGroup
}

// trackConns wraps the shard listener so the test can sever live sessions.
type trackConns struct {
	net.Listener
	s *testShard
}

func (t *trackConns) Accept() (net.Conn, error) {
	c, err := t.Listener.Accept()
	if err == nil {
		t.s.mu.Lock()
		t.s.conns = append(t.s.conns, c)
		t.s.mu.Unlock()
	}
	return c, err
}

func newTestShard(t *testing.T, cfg ShardConfig) *testShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &testShard{t: t, cfg: cfg, addr: ln.Addr().String()}
	s.start(ln)
	t.Cleanup(s.crash)
	return s
}

func (s *testShard) start(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		Serve(&trackConns{Listener: ln, s: s}, s.cfg)
	}()
}

// crash kills the shard without ceremony: every live session's socket and
// the listener close at once, and the serve goroutine exits. All decoder
// state is lost, exactly like a killed process.
func (s *testShard) crash() {
	s.mu.Lock()
	ln := s.ln
	conns := s.conns
	s.ln, s.conns = nil, nil
	s.mu.Unlock()
	if ln == nil {
		return
	}
	ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// restart brings the shard back, empty, on its original address.
func (s *testShard) restart() {
	s.t.Helper()
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.start(ln)
}

// feedFrom builds an Engine/Router feed from per-stream round samplers, all
// derived from one base seed — call it twice with the same arguments to
// give the fleet and its in-process reference identical syndrome streams.
func feedFrom(streams, distance int, p float64, seed uint64) func(int, int) []int32 {
	samplers := make([]*noise.RoundSampler, streams)
	for i := range samplers {
		samplers[i] = noise.NewRoundSampler(distance, p, seed, uint64(i)+1)
	}
	return func(i, _ int) []int32 { return samplers[i].SampleRound() }
}

// runEngine decodes the same fleet configuration in-process and returns the
// per-stream corrections and merged reports — the ground truth a fleet run
// must match bit for bit. The engine groups lanes by worker chunk and the
// shards by round envelope, so those checks also compare the two
// groupings end to end.
func runEngine(t *testing.T, cfg Config, rounds int, seed uint64, p float64, chunks []int) ([][]stream.Correction, []faults.Report) {
	t.Helper()
	eng, err := stream.NewEngine(stream.EngineConfig{
		Streams:  cfg.Streams,
		Distance: cfg.Distance,
		Window:   cfg.Window,
		Commit:   cfg.Commit,
		Robust:   stream.Robust{DeadlineNS: cfg.DeadlineNS, QueueCap: cfg.QueueCap},
		Chaos:    cfg.Chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	feed := feedFrom(cfg.Streams, cfg.Distance, p, seed)
	done := 0
	for _, c := range chunks {
		if err := eng.RunRounds(c, feed); err != nil {
			t.Fatal(err)
		}
		done += c
	}
	if done != rounds {
		t.Fatalf("chunks sum to %d, want %d", done, rounds)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	corrs := make([][]stream.Correction, cfg.Streams)
	reps := make([]faults.Report, cfg.Streams)
	for i := 0; i < cfg.Streams; i++ {
		corrs[i] = eng.Committed(i)
		reps[i] = eng.StreamReport(i)
	}
	return corrs, reps
}

// checkIdentical asserts the router's post-Flush corrections and ledgers
// are bit-identical to the in-process reference.
func checkIdentical(t *testing.T, r *Router, wantCorrs [][]stream.Correction, wantReps []faults.Report) {
	t.Helper()
	for i := 0; i < r.Streams(); i++ {
		got := r.Committed(i)
		if len(got) == 0 && len(wantCorrs[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, wantCorrs[i]) {
			t.Fatalf("stream %d: fleet corrections diverge from in-process engine\n got %d corrections, want %d", i, len(got), len(wantCorrs[i]))
		}
	}
	for i := 0; i < r.Streams(); i++ {
		if got := r.StreamReport(i); !reflect.DeepEqual(got, wantReps[i]) {
			t.Fatalf("stream %d ledger diverges:\n got  %+v\nwant %+v", i, got, wantReps[i])
		}
	}
	rep := r.FaultReport()
	if err := rep.CheckFinal(); err != nil {
		t.Fatalf("fleet fault ledger does not close: %v", err)
	}
}

func shardAddrs(shards []*testShard) []string {
	addrs := make([]string, len(shards))
	for i, s := range shards {
		addrs[i] = s.addr
	}
	return addrs
}

func TestFleetMatchesEngine(t *testing.T) {
	const (
		streams = 12
		rounds  = 160
		d       = 5
		p       = 0.01
		seed    = 42
	)
	shards := []*testShard{
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
	}
	cfg := Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: streams, Distance: d,
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RunRounds(rounds, feedFrom(streams, d, p, seed)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
	if rec := r.Recoveries(); rec != 0 {
		t.Fatalf("clean run recovered %d times", rec)
	}
	if tx, rx := r.WireBytes(); tx == 0 || rx == 0 {
		t.Fatalf("wire byte counters did not move: tx=%d rx=%d", tx, rx)
	}
}

func chaosCfg(seed uint64) *faults.Config {
	return &faults.Config{
		Seed:          seed,
		DropRate:      0.02,
		DuplicateRate: 0.01,
		ReorderRate:   0.01,
		CorruptRate:   0.02,
		StallRate:     0.05,
		InflateNS:     20,
		// No retries: a dropped or corrupted round erases outright, so the
		// erased-round wire encoding is exercised by every chaos test —
		// including journal replay of erased rounds after a shard crash.
		RetryBudget: -1,
	}
}

func TestFleetChaosRobustMatchesEngine(t *testing.T) {
	const (
		streams = 9
		rounds  = 200
		d       = 5
		p       = 0.012
		seed    = 7
	)
	shards := []*testShard{
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
	}
	cfg := Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: streams, Distance: d,
		DeadlineNS: 600, QueueCap: 8,
		Chaos: chaosCfg(99),
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RunRounds(rounds, feedFrom(streams, d, p, seed)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
	if rep := r.FaultReport(); rep.Injected.Link() == 0 {
		t.Fatal("chaos injected nothing")
	}
	if rep := r.FaultReport(); rep.ErasedRounds == 0 {
		t.Fatal("chaos dropped nothing — the erased-round wire path went unexercised")
	}
	// A healthy fleet under link chaos must not churn sessions: chaos lives
	// on the syndrome link, not the shard transport. (A protocol bug that
	// kills sessions can hide behind its own recovery machinery — recovery
	// is bit-identical — so assert quiescence explicitly.)
	if rec := r.Recoveries(); rec != 0 {
		t.Fatalf("chaos-only run recovered %d times — sessions are churning", rec)
	}
}

// TestFleetCrashFailoverBitIdentical is the core robustness property: a
// shard killed mid-stream (state gone, listener gone) must not change a
// single correction — the survivors adopt its streams from checkpoints,
// replay the journals, and the fleet's output stays bit-identical to an
// uninterrupted in-process run.
func TestFleetCrashFailoverBitIdentical(t *testing.T) {
	const (
		streams = 12
		d       = 5
		p       = 0.012
		seed    = 11
	)
	chunks := []int{70, 90}
	rounds := 160
	shards := []*testShard{
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
	}
	cfg := Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: streams, Distance: d,
		DeadlineNS: 600, QueueCap: 8,
		Chaos:             chaosCfg(5),
		ReconnectAttempts: -1, // shard stays dead: fail over immediately
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	feed := feedFrom(streams, d, p, seed)
	if err := r.RunRounds(chunks[0], feed); err != nil {
		t.Fatal(err)
	}
	shards[1].crash()
	time.Sleep(20 * time.Millisecond) // let the reader notice the EOF
	if err := r.RunRounds(chunks[1], feed); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
	if r.Recoveries() == 0 {
		t.Fatal("crash went unrecovered")
	}
	rec := r.LastRecovery()
	if rec.Shard != 1 || rec.Reconnected || rec.Streams == 0 {
		t.Fatalf("unexpected recovery stats: %+v", rec)
	}
}

// TestFleetCrashReconnectReplay kills a shard and restarts it (empty)
// before the router's retry budget runs out: the router must re-adopt the
// streams on the reborn shard via checkpoint + replay, bit-identically.
func TestFleetCrashReconnectReplay(t *testing.T) {
	const (
		streams = 8
		d       = 5
		p       = 0.012
		seed    = 23
	)
	rounds := 150
	shards := []*testShard{
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
	}
	cfg := Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: streams, Distance: d,
		Chaos: chaosCfg(17),
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	feed := feedFrom(streams, d, p, seed)
	if err := r.RunRounds(60, feed); err != nil {
		t.Fatal(err)
	}
	shards[0].crash()
	shards[0].restart()
	time.Sleep(20 * time.Millisecond)
	if err := r.RunRounds(rounds-60, feed); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
	if r.Recoveries() == 0 {
		t.Fatal("crash went unrecovered")
	}
	rec := r.LastRecovery()
	if !rec.Reconnected {
		t.Fatalf("expected reconnection to the restarted shard, got %+v", rec)
	}
	if rec.ReplayedRounds == 0 {
		t.Fatalf("reconnection replayed nothing: %+v", rec)
	}
}

// TestFleetRebalance exercises the full kill → failover → restart →
// re-home cycle: after the dead shard's streams fail over, Rebalance moves
// them back to the restarted shard, and the output still matches the
// uninterrupted reference.
func TestFleetRebalance(t *testing.T) {
	const (
		streams = 10
		d       = 5
		p       = 0.012
		seed    = 31
	)
	rounds := 180
	shards := []*testShard{
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
	}
	cfg := Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: streams, Distance: d,
		Chaos:             chaosCfg(3),
		ReconnectAttempts: -1,
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	feed := feedFrom(streams, d, p, seed)
	if err := r.RunRounds(60, feed); err != nil {
		t.Fatal(err)
	}
	shards[2].crash()
	time.Sleep(20 * time.Millisecond)
	if err := r.RunRounds(60, feed); err != nil { // failover period
		t.Fatal(err)
	}
	if r.Recoveries() == 0 {
		t.Fatal("crash went unrecovered")
	}
	shards[2].restart()
	if err := r.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if err := r.RunRounds(rounds-120, feed); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
}

// TestFleetAdmissionSpill gives one shard fewer CDA blocks than its share
// of streams: the refused opens must spill deterministically onto the shard
// with spare block slots, and the run still matches the reference.
func TestFleetAdmissionSpill(t *testing.T) {
	const (
		streams = 5
		d       = 5
		p       = 0.01
		seed    = 13
		rounds  = 80
	)
	shards := []*testShard{
		newTestShard(t, ShardConfig{Blocks: 1, CheckpointEvery: 16}), // cap 2 (N=2 per block)
		newTestShard(t, ShardConfig{Blocks: 2, CheckpointEvery: 16}), // cap 4
	}
	cfg := Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: streams, Distance: d,
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	// Homes: shard0 {0,2,4}, shard1 {1,3}. Shard0 admits two and refuses
	// stream 4, which must land on shard1.
	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.streams[4].cur; got != 1 {
		t.Fatalf("refused stream placed on shard %d, want spill to 1", got)
	}
	if err := r.RunRounds(rounds, feedFrom(streams, d, p, seed)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
}

func TestFleetAdmissionExhausted(t *testing.T) {
	shards := []*testShard{
		newTestShard(t, ShardConfig{Blocks: 1}),
		newTestShard(t, ShardConfig{Blocks: 1}),
	}
	_, err := Dial(Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: 5, Distance: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "no shard admits") {
		t.Fatalf("want admission exhaustion error, got %v", err)
	}
}

// TestFleetThousandStreams is the scale acceptance check: 1000 concurrent
// streams across 3 shard processes, a shard killed mid-soak, and the full
// output still bit-identical to the in-process engine.
func TestFleetThousandStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-stream soak skipped in -short mode")
	}
	const (
		streams = 1000
		d       = 5
		p       = 0.01
		seed    = 101
		rounds  = 60
	)
	shards := []*testShard{
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
	}
	cfg := Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: streams, Distance: d,
		ReconnectAttempts: -1,
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	feed := feedFrom(streams, d, p, seed)
	if err := r.RunRounds(30, feed); err != nil {
		t.Fatal(err)
	}
	shards[1].crash()
	time.Sleep(20 * time.Millisecond)
	if err := r.RunRounds(rounds-30, feed); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
	if rec := r.LastRecovery(); rec.Streams < streams/4 {
		t.Fatalf("crash should have displaced ~a third of the fleet, moved %d", rec.Streams)
	}
}

// TestFleetMidSheddingCrashLedger kills a shard while backpressure shedding
// episodes are in flight. The flushed fleet ledger must still close
// (BacklogSheds == BacklogRecovers, every fault accounted) and match the
// uninterrupted reference — shed windows must be neither lost nor double
// counted across checkpoint, crash, and replay.
func TestFleetMidSheddingCrashLedger(t *testing.T) {
	const (
		streams = 8
		d       = 5
		p       = 0.015
		seed    = 3
	)
	rounds := 180
	shards := []*testShard{
		newTestShard(t, ShardConfig{CheckpointEvery: 8}),
		newTestShard(t, ShardConfig{CheckpointEvery: 8}),
		newTestShard(t, ShardConfig{CheckpointEvery: 8}),
	}
	// Heavy stalls plus a tight queue keep streams inside shedding episodes
	// much of the time, so the crash lands mid-episode with high
	// probability on several streams at once.
	chaos := &faults.Config{Seed: 77, StallRate: 0.4, StallNS: 4000, InflateNS: 100}
	cfg := Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: streams, Distance: d,
		DeadlineNS: 500, QueueCap: 3,
		Chaos:             chaos,
		ReconnectAttempts: -1,
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})
	var totalSheds uint64
	for _, rep := range wantReps {
		totalSheds += rep.BacklogSheds
	}
	if totalSheds == 0 {
		t.Fatal("reference run shed nothing — the test exercises no episode")
	}

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	feed := feedFrom(streams, d, p, seed)
	if err := r.RunRounds(90, feed); err != nil {
		t.Fatal(err)
	}
	shards[0].crash()
	time.Sleep(20 * time.Millisecond)
	if err := r.RunRounds(rounds-90, feed); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
}

// TestFleetCrashFailoverNonRobustBitIdentical is the crash-failover check
// for plain streams: with no deadline or backpressure, shards defer every
// window to their round envelope's lane resolve, and a shard killed
// mid-stream must still leave the fleet's output bit-identical to the
// in-process engine once the survivors have replayed its streams.
func TestFleetCrashFailoverNonRobustBitIdentical(t *testing.T) {
	const (
		streams = 12
		d       = 5
		p       = 0.012
		seed    = 19
		rounds  = 160
	)
	shards := []*testShard{
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
	}
	cfg := Config{
		Network: "tcp", Shards: shardAddrs(shards),
		Streams: streams, Distance: d,
		Chaos:             chaosCfg(5),
		ReconnectAttempts: -1, // shard stays dead: fail over immediately
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	feed := feedFrom(streams, d, p, seed)
	if err := r.RunRounds(70, feed); err != nil {
		t.Fatal(err)
	}
	shards[1].crash()
	time.Sleep(20 * time.Millisecond) // let the reader notice the EOF
	if err := r.RunRounds(rounds-70, feed); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
	rec := r.LastRecovery()
	if r.Recoveries() == 0 || rec.Shard != 1 || rec.Reconnected || rec.Streams == 0 {
		t.Fatalf("unexpected recovery stats after %d recoveries: %+v", r.Recoveries(), rec)
	}
}

// cutProxy relays one shard's sessions and, on the cutAt-th msgRounds
// envelope it relays, forwards only the first half of that envelope's
// entries (re-sealed as a valid envelope) and then severs both sides. The
// shard thus dies having ingested part of a round envelope — some streams
// advanced, their windows unresolved, their corrections and checkpoints
// never sent — while the router believes it sent the whole round.
type cutProxy struct {
	t      *testing.T
	shard  string
	ln     net.Listener
	cutAt  int
	rounds int // msgRounds envelopes relayed so far (proxy goroutine only)
	cut    chan int
	wg     sync.WaitGroup
}

func newCutProxy(t *testing.T, shard string, cutAt int) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{t: t, shard: shard, ln: ln, cutAt: cutAt, cut: make(chan int, 1)}
	p.wg.Add(1)
	go p.serve()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

func (p *cutProxy) serve() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.shard)
		if err != nil {
			down.Close()
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			io.Copy(down, up) // shard → router, verbatim
			down.Close()
			// After a cut, keep reading until the shard hangs up: closing
			// a socket with unread data resets the connection, and the
			// reset could discard the half envelope before the shard
			// reads it.
			io.Copy(io.Discard, up)
			up.Close()
		}()
		if p.relay(down, up) {
			up.(*net.TCPConn).CloseWrite() // the half envelope, then EOF
		} else {
			up.Close()
		}
		down.Close()
	}
}

// relay forwards router → shard messages envelope by envelope until either
// side closes or the cut fires, and reports whether it cut.
func (p *cutProxy) relay(down, up net.Conn) bool {
	var buf, out []byte
	for {
		env, err := readEnvelope(down, &buf)
		if err != nil {
			return false
		}
		payload := env.payload
		cut := false
		if env.typ == msgRounds {
			p.rounds++
			if p.rounds == p.cutAt {
				var n int
				payload, n = firstHalfEntries(payload)
				cut = true
				p.cut <- n
			}
		}
		out = appendEnvelope(out[:0], env.typ, env.stream, payload)
		if _, err := up.Write(out); err != nil {
			return false
		}
		if cut {
			return true
		}
	}
}

// firstHalfEntries returns the prefix of a msgRounds payload holding its
// first half of entries, and how many entries that is.
func firstHalfEntries(p []byte) ([]byte, int) {
	total := 0
	for q := p; len(q) > 0; total++ {
		_, _, rest, err := nextRoundsEntry(q)
		if err != nil {
			return nil, 0
		}
		q = rest
	}
	keep, q := total/2, p
	for i := 0; i < keep; i++ {
		_, _, q, _ = nextRoundsEntry(q)
	}
	return p[:len(p)-len(q)], keep
}

// TestFleetShardDiesMidEnvelope kills a shard partway through a round
// envelope: it has ingested half of the envelope's entries (advancing
// those streams' decoders past what the router has seen corrections or
// checkpoints for) when its session is severed. Recovery must restore
// every stream from its checkpoint, replay the journal — including the
// round the dead shard half-applied — and keep the fleet's output
// bit-identical to the in-process engine.
func TestFleetShardDiesMidEnvelope(t *testing.T) {
	const (
		streams = 12
		d       = 5
		p       = 0.012
		seed    = 29
		rounds  = 120
	)
	shards := []*testShard{
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
		newTestShard(t, ShardConfig{CheckpointEvery: 16}),
	}
	// Round 57 is past three checkpoints and mid-window for every stream.
	proxy := newCutProxy(t, shards[1].addr, 57)
	cfg := Config{
		Network: "tcp", Shards: []string{shards[0].addr, proxy.ln.Addr().String(), shards[2].addr},
		Streams: streams, Distance: d,
		Chaos:             chaosCfg(13),
		ReconnectAttempts: -1,
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RunRounds(rounds, feedFrom(streams, d, p, seed)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
	select {
	case n := <-proxy.cut:
		if n == 0 {
			t.Fatal("the cut envelope had fewer than two entries: nothing was half-processed")
		}
	default:
		t.Fatal("the proxy never cut a round envelope")
	}
	if rec := r.LastRecovery(); r.Recoveries() == 0 || rec.Shard != 1 || rec.ReplayedRounds == 0 {
		t.Fatalf("unexpected recovery stats after %d recoveries: %+v", r.Recoveries(), rec)
	}
}
