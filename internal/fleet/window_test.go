package fleet

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ackGate relays one shard's session and holds the shard's replies back
// from the first msgRoundsOK on while the router still has room in its
// round window, as the gate counts it: msgRounds envelopes relayed toward
// the shard less msgRoundsOK relayed toward the router. Held replies go
// out, in order, once that count reaches roundWindow, or when the router
// sends anything other than a round envelope (an open, a flush). So the
// router sees an ack only once it has filled its window, and must wait on
// it every time. ahead records the largest count seen when a round
// envelope arrived: the router's own count at send time is at least that.
type ackGate struct {
	shard string
	ln    net.Listener
	wg    sync.WaitGroup

	mu     sync.Mutex
	down   net.Conn // router side
	rounds int      // msgRounds relayed toward the shard
	acks   int      // msgRoundsOK relayed toward the router
	held   []byte   // replies held back, in wire order
	heldOK int      // msgRoundsOK among them
	open   bool     // pass replies through until the next msgRounds
	ahead  int
}

func newAckGate(t *testing.T, shard string) *ackGate {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &ackGate{shard: shard, ln: ln, open: true}
	g.wg.Add(1)
	go g.serve()
	t.Cleanup(func() {
		ln.Close()
		g.mu.Lock()
		if g.down != nil {
			g.down.Close()
		}
		g.mu.Unlock()
		g.wg.Wait()
	})
	return g
}

func (g *ackGate) serve() {
	defer g.wg.Done()
	down, err := g.ln.Accept()
	if err != nil {
		return
	}
	up, err := net.Dial("tcp", g.shard)
	if err != nil {
		down.Close()
		return
	}
	g.mu.Lock()
	g.down = down
	g.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.replies(up)
		down.Close()
	}()
	var buf, out []byte
	for {
		env, err := readEnvelope(down, &buf)
		if err != nil {
			break
		}
		g.mu.Lock()
		if env.typ == msgRounds {
			g.rounds++
			g.ahead = max(g.ahead, g.rounds-g.acks)
			g.open = false
		} else {
			g.open = true
		}
		g.releaseLocked()
		g.mu.Unlock()
		out = appendEnvelope(out[:0], env.typ, env.stream, env.payload)
		if _, err := up.Write(out); err != nil {
			break
		}
	}
	up.Close()
}

// replies relays the shard's messages toward the router through the gate.
func (g *ackGate) replies(up net.Conn) {
	var buf []byte
	for {
		env, err := readEnvelope(up, &buf)
		if err != nil {
			return
		}
		g.mu.Lock()
		if env.typ == msgRoundsOK || len(g.held) > 0 {
			g.held = appendEnvelope(g.held, env.typ, env.stream, env.payload)
			if env.typ == msgRoundsOK {
				g.heldOK++
			}
		} else {
			g.down.Write(appendEnvelope(nil, env.typ, env.stream, env.payload))
		}
		g.releaseLocked()
		g.mu.Unlock()
	}
}

// releaseLocked sends the held replies once the router's window is full
// or the gate is open.
func (g *ackGate) releaseLocked() {
	if len(g.held) == 0 || !(g.open || g.rounds-g.acks >= roundWindow) {
		return
	}
	g.down.Write(g.held)
	g.acks += g.heldOK
	g.held, g.heldOK = g.held[:0], 0
}

// TestWindowBoundsRoundsInFlight checks the round window from both sides
// of the wire. A gate in front of one shard withholds its acks until the
// router has filled its window, so RunRounds waits on it after every
// window's worth of rounds. Whenever the router journals a round, no
// shard session has roundWindow envelopes unacknowledged; the gate never
// sees the router more than roundWindow envelopes ahead of the acks it let
// through, and sees it exactly that far ahead, so the router did wait;
// every envelope is acknowledged once; and the corrections and ledgers
// match the in-process engine.
func TestWindowBoundsRoundsInFlight(t *testing.T) {
	const (
		streams = 6
		rounds  = 160
		batch   = 20
		d       = 5
		p       = 0.012
		seed    = 37
	)
	gated := newTestShard(t, ShardConfig{CheckpointEvery: 16})
	plain := newTestShard(t, ShardConfig{CheckpointEvery: 16})
	gate := newAckGate(t, gated.addr)
	cfg := Config{
		Network: "tcp", Shards: []string{gate.ln.Addr().String(), plain.addr},
		Streams: streams, Distance: d,
		DeadlineNS: 600, QueueCap: 8,
		Chaos:          chaosCfg(41),
		HeartbeatEvery: -1, // a ping would open the gate
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})
	waits, stalls := fObs.windowWaits.Value(), fObs.stallSheds.Value()

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	inner := feedFrom(streams, d, p, seed)
	worst := uint64(0)
	feed := func(s, round int) []int32 {
		if s == 0 { // journalRound is starting a new round
			for _, l := range r.links {
				worst = max(worst, l.win.unacked())
			}
		}
		return inner(s, round)
	}
	for done := 0; done < rounds; done += batch {
		if err := r.RunRounds(batch, feed); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, r, wantCorrs, wantReps)
	if worst >= roundWindow {
		t.Fatalf("a round was journaled with %d envelopes unacknowledged, want < %d", worst, roundWindow)
	}
	gate.mu.Lock()
	ahead, sent, acked := gate.ahead, gate.rounds, gate.acks
	gate.mu.Unlock()
	if ahead != roundWindow {
		t.Fatalf("the router ran %d envelopes ahead of the acks it was sent, want exactly %d", ahead, roundWindow)
	}
	if sent != rounds || acked != sent {
		t.Fatalf("gate relayed %d round envelopes and %d acks, want %d of each", sent, acked, rounds)
	}
	if w := fObs.windowWaits.Value() - waits; w < rounds/roundWindow {
		t.Fatalf("RunRounds waited on a full window %d times, want >= %d", w, rounds/roundWindow)
	}
	if s := fObs.stallSheds.Value() - stalls; s != 0 || r.Recoveries() != 0 {
		t.Fatalf("%d stall sheds and %d recoveries in a healthy run", s, r.Recoveries())
	}
}

// TestWindowKillWhileBlocked kills a shard while RunRounds is blocked on
// its window: the silent shard never acknowledges, so once it has read
// roundWindow envelopes the router has flushed and is waiting. The kill
// waits until the healthy shard has acknowledged everything it was sent,
// so that no ack or checkpoint can wake the router; closing the silent
// shard's sessions must then wake it through markDead at once — not at
// the journalTrimWait deadline, and not as a stall shed — and the
// recovery must keep the fleet's output bit-identical to the in-process
// engine.
func TestWindowKillWhileBlocked(t *testing.T) {
	const (
		streams = 6
		rounds  = 120
		d       = 5
		p       = 0.012
		seed    = 43
	)
	silent := newSilentShard(t)
	healthy := newTestShard(t, ShardConfig{CheckpointEvery: 16})
	cfg := Config{
		Network: "tcp", Shards: []string{silent.addr, healthy.addr},
		Streams: streams, Distance: d,
		Chaos:             chaosCfg(47),
		ReconnectAttempts: -1,
		HeartbeatEvery:    -1,
	}
	wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})
	stalls := fObs.stallSheds.Value()

	r, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var killedAt, resumedAt atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		drained := r.links[1].win
		for silent.rounds.Load() < roundWindow || drained.unacked() > 0 {
			time.Sleep(time.Millisecond)
		}
		killedAt.Store(time.Now().UnixNano())
		silent.close()
	}()
	inner := feedFrom(streams, d, p, seed)
	feed := func(s, round int) []int32 {
		if s == 0 && killedAt.Load() != 0 && resumedAt.Load() == 0 {
			resumedAt.Store(time.Now().UnixNano())
		}
		return inner(s, round)
	}
	if err := r.RunRounds(rounds, feed); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	<-done
	checkIdentical(t, r, wantCorrs, wantReps)
	if n := silent.rounds.Load(); n != roundWindow {
		t.Fatalf("the silent shard read %d round envelopes, want %d", n, roundWindow)
	}
	if s := fObs.stallSheds.Value() - stalls; s != 0 {
		t.Fatalf("the killed shard was stall-shed %d times", s)
	}
	if rec := r.LastRecovery(); r.Recoveries() != 1 || rec.Shard != 0 || rec.Reconnected {
		t.Fatalf("want one failover off shard 0, got %d recoveries, last %+v", r.Recoveries(), rec)
	}
	if resumedAt.Load() == 0 {
		t.Fatal("RunRounds journaled no round after the kill")
	}
	if gap := time.Duration(resumedAt.Load() - killedAt.Load()); gap >= journalTrimWait/2 {
		t.Fatalf("RunRounds resumed %v after the kill: the death did not wake its window wait", gap)
	}
}

// gatedConn is a router-side session connection whose Read blocks until
// release is closed, then returns data once and io.EOF after that
// (closing read). Close does not unblock it: it stands for bytes that were
// already buffered when the session died. Writes are discarded.
type gatedConn struct {
	net.Conn
	release chan struct{}
	data    []byte
	read    chan struct{}
	once    sync.Once
}

func (c *gatedConn) Read(p []byte) (int, error) {
	<-c.release
	if len(c.data) > 0 {
		n := copy(p, c.data)
		c.data = c.data[n:]
		return n, nil
	}
	c.once.Do(func() { close(c.read) })
	return 0, io.EOF
}

func (c *gatedConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *gatedConn) Close() error                { return nil }

// TestWindowStaleAckIgnored delivers an ack from a dead session after its
// successor has filled its window: the ack counts in the dead session's
// own window and leaves the successor's full.
func TestWindowStaleAckIgnored(t *testing.T) {
	r := newRouter(Config{Shards: []string{"unused"}, Streams: 1, Distance: 5, HeartbeatEvery: -1})
	defer r.Close()
	l := r.links[0]
	old := &gatedConn{release: make(chan struct{}), data: appendEnvelope(nil, msgRoundsOK, 0, nil), read: make(chan struct{})}
	r.attach(l, old)
	stale := l.win
	if err := r.write(l, msgRounds, 0, nil); err != nil {
		t.Fatal(err)
	}
	r.shed(l, errStalled) // the session dies with its ack still unread

	next := &gatedConn{release: make(chan struct{}), read: make(chan struct{})}
	defer close(next.release)
	r.attach(l, next)
	for i := 0; i < roundWindow; i++ {
		if err := r.write(l, msgRounds, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(old.release)
	<-old.read // the dead session's reader has handled the ack and hit EOF

	if got := stale.acked.Load(); got != 1 {
		t.Fatalf("the dead session's window counted %d acks, want 1", got)
	}
	if got := l.win.unacked(); got != roundWindow {
		t.Fatalf("a stale ack opened the successor's window: %d unacknowledged, want %d", got, roundWindow)
	}
	if !l.up.Load() {
		t.Fatal("the stale session's end killed its successor")
	}
}
