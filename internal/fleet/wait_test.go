package fleet

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// freezeProxy relays one shard's sessions envelope by envelope and stalls
// or severs the first session that reaches a chosen point. With freezeAt
// set, it freezes the session as it relays a router message of that type:
// from then on nothing crosses either way, and both sockets stay open, as
// when a shard hangs with its connection up. With killAfter set, it
// severs the session once it has relayed that many msgFlushOK answers to
// the router, as when a shard dies partway through a flush. Later
// sessions relay normally. With pace set, it holds every session's
// msgFlushOK answers back by pace each, as a shard flushing slowly would.
type freezeProxy struct {
	shard     string
	ln        net.Listener
	freezeAt  uint8
	killAfter int
	pace      time.Duration
	fired     atomic.Bool
	wg        sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func newFreezeProxy(t *testing.T, shard string, freezeAt uint8, killAfter int, pace time.Duration) *freezeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &freezeProxy{shard: shard, ln: ln, freezeAt: freezeAt, killAfter: killAfter, pace: pace}
	p.wg.Add(1)
	go p.serve()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return p
}

func (p *freezeProxy) serve() {
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
		p.mu.Lock()
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		frozen := new(atomic.Bool)
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			p.toShard(down, up, frozen)
			up.Close()
			down.Close()
		}()
		go func() {
			defer p.wg.Done()
			p.toRouter(up, down, frozen)
			up.Close()
		}()
	}
}

// toShard relays the router's messages to the shard. The first freezeAt
// message freezes the session before it is relayed, so not even the
// shard's answer to it gets through; once frozen, the router's messages
// are read and dropped.
func (p *freezeProxy) toShard(down, up net.Conn, frozen *atomic.Bool) {
	var buf, out []byte
	for {
		env, err := readEnvelope(down, &buf)
		if err != nil {
			return
		}
		if env.typ == p.freezeAt && p.fired.CompareAndSwap(false, true) {
			frozen.Store(true)
		} else if frozen.Load() {
			continue
		}
		out = appendEnvelope(out[:0], env.typ, env.stream, env.payload)
		if _, err := up.Write(out); err != nil {
			return
		}
	}
}

// toRouter relays the shard's messages to the router, dropping them once
// the session is frozen, and severs the session after the killAfter-th
// msgFlushOK: the router reads every answer relayed so far, then EOF.
func (p *freezeProxy) toRouter(up, down net.Conn, frozen *atomic.Bool) {
	var buf, out []byte
	answers := 0
	for {
		env, err := readEnvelope(up, &buf)
		if err != nil {
			return
		}
		if frozen.Load() {
			continue
		}
		if env.typ == msgFlushOK {
			time.Sleep(p.pace)
			answers++
		}
		out = appendEnvelope(out[:0], env.typ, env.stream, env.payload)
		if _, err := down.Write(out); err != nil {
			return
		}
		if p.killAfter > 0 && answers == p.killAfter && p.fired.CompareAndSwap(false, true) {
			down.(*net.TCPConn).CloseWrite()
			return
		}
	}
}

// TestWaitShedsSilentShard covers each wait on a shard session with a
// shard that stops answering in it. Frozen at its first open, the shard is
// shed and Dial places the stream on the next shard; frozen at the flush,
// it is shed and its streams fail over and flush again; killed after
// answering part of a flush, the streams it answered keep their ledgers
// and only the rest recover (through a reconnect, since a death is not a
// shed). A shard whose flush answers come 120 ms apart, a flush longer
// than waitLimit, is not shed: every answer restarts the wait's deadline.
// In every row the corrections and ledgers match the in-process engine,
// the fleet ledger closes, and Dial and Flush each return within a
// second.
func TestWaitShedsSilentShard(t *testing.T) {
	const (
		streams = 6
		rounds  = 60
		d       = 5
		p       = 0.012
		seed    = 53
	)
	for _, tc := range []struct {
		name        string
		freezeAt    uint8         // router message the proxy freezes the session at
		killAfter   int           // flush answers the proxy relays before it severs the session
		pace        time.Duration // the proxy's delay before each flush answer
		sheds       uint64
		recoveries  int
		reconnected bool
	}{
		{name: "frozen-at-open", freezeAt: msgOpen, sheds: 1},
		{name: "frozen-at-flush", freezeAt: msgFlush, sheds: 1, recoveries: 1},
		{name: "killed-mid-flush", killAfter: 2, recoveries: 1, reconnected: true},
		{name: "slow-flush", pace: 120 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxied := newTestShard(t, ShardConfig{CheckpointEvery: 16})
			healthy := newTestShard(t, ShardConfig{CheckpointEvery: 16})
			proxy := newFreezeProxy(t, proxied.addr, tc.freezeAt, tc.killAfter, tc.pace)
			cfg := Config{
				Network: "tcp", Shards: []string{proxy.ln.Addr().String(), healthy.addr},
				Streams: streams, Distance: d,
				DeadlineNS: 600, QueueCap: 8,
				Chaos: chaosCfg(59),
			}
			wantCorrs, wantReps := runEngine(t, cfg, rounds, seed, p, []int{rounds})
			stalls := fObs.stallSheds.Value()

			start := time.Now()
			r, err := Dial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if took := time.Since(start); took >= time.Second {
				t.Fatalf("Dial took %v, want < 1s", took)
			}
			if tc.freezeAt == msgOpen && r.streams[0].cur != 1 {
				t.Fatalf("stream 0 placed on shard %d, want the next shard, 1", r.streams[0].cur)
			}
			if err := r.RunRounds(rounds, feedFrom(streams, d, p, seed)); err != nil {
				t.Fatal(err)
			}
			owned := 0 // streams the proxied shard decodes going into the flush
			for _, st := range r.streams {
				if st.cur == 0 {
					owned++
				}
			}
			start = time.Now()
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took >= time.Second {
				t.Fatalf("Flush took %v, want < 1s", took)
			}
			checkIdentical(t, r, wantCorrs, wantReps)
			if got := fObs.stallSheds.Value() - stalls; got != tc.sheds {
				t.Fatalf("%d stall sheds, want %d", got, tc.sheds)
			}
			if r.Recoveries() != tc.recoveries {
				t.Fatalf("%d recoveries, want %d", r.Recoveries(), tc.recoveries)
			}
			if tc.recoveries == 0 {
				return
			}
			// Only the streams the shard had not answered move.
			rec := r.LastRecovery()
			if rec.Shard != 0 || rec.Reconnected != tc.reconnected || rec.Streams != owned-tc.killAfter {
				t.Fatalf("recovery %+v, want shard 0, reconnected %v, %d of its %d streams moved", rec, tc.reconnected, owned-tc.killAfter, owned)
			}
		})
	}
}
