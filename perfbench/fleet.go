package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"afs/internal/compress"
	"afs/internal/fleet"
	"afs/internal/stream"
)

// fleetBatch is the rounds per Router.RunRounds call in the closed loop.
const fleetBatch = 32

// shard is one in-process fleet.Serve decode shard on an abstract unix
// socket (no file is created).
type shard struct {
	addr string
	ln   net.Listener
	done sync.WaitGroup
	io   *ioStats // non-nil when the listener is wrapped for timing
}

var shardSeq atomic.Int64

func startShard(timed bool) (*shard, error) {
	addr := fmt.Sprintf("@afs-perfbench-%d-%d", os.Getpid(), shardSeq.Add(1))
	ln, err := net.Listen("unix", addr)
	if err != nil {
		return nil, fmt.Errorf("shard listen: %w", err)
	}
	s := &shard{addr: addr, ln: ln}
	served := ln
	if timed {
		s.io = &ioStats{}
		served = &timingListener{Listener: ln, st: s.io}
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		_ = fleet.Serve(served, fleet.ShardConfig{}) // returns once the listener closes
	}()
	return s, nil
}

// stop closes the listener and waits for Serve to return; routers must be
// closed first so the session ends.
func (s *shard) stop() {
	s.ln.Close()
	s.done.Wait()
}

// ioStats is the shard side's socket ledger: calls and time spent blocked
// in Read and Write, across sessions.
type ioStats struct {
	reads, writes, blockedNS atomic.Int64
}

type ioSnap struct{ at, calls, blocked int64 }

func (st *ioStats) snap() ioSnap {
	return ioSnap{at: nowNS(), calls: st.reads.Load() + st.writes.Load(), blocked: st.blockedNS.Load()}
}

// timingListener hands fleet.Serve connections that time every Read and
// Write, without any change to the shard.
type timingListener struct {
	net.Listener
	st *ioStats
}

func (l *timingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timingConn{Conn: c, st: l.st}, nil
}

type timingConn struct {
	net.Conn
	st *ioStats
}

func (c *timingConn) Read(p []byte) (int, error) {
	t0 := nowNS()
	n, err := c.Conn.Read(p)
	c.st.blockedNS.Add(nowNS() - t0)
	c.st.reads.Add(1)
	return n, err
}

func (c *timingConn) Write(p []byte) (int, error) {
	t0 := nowNS()
	n, err := c.Conn.Write(p)
	c.st.blockedNS.Add(nowNS() - t0)
	c.st.writes.Add(1)
	return n, err
}

// fleetFeed serves pregenerated rounds to Router.RunRounds and stamps the
// hand-off time of every window-closing round into a per-stream ring the
// correction sink reads from the router's reader goroutine.
type fleetFeed struct {
	rs    *roundSet
	base  int  // global round of the current RunRounds call's round 0
	stamp bool // record hand-offs (timed phase only)
	ring  [][64]atomic.Uint64
}

const (
	winBits = 24
	nsBits  = 40
)

func newFleetFeed(rs *roundSet) *fleetFeed {
	return &fleetFeed{rs: rs, ring: make([][64]atomic.Uint64, rs.streams)}
}

func (f *fleetFeed) feed(s, r int) []int32 {
	t := f.base + r
	if f.stamp {
		if k, ok := closing(t); ok {
			f.ring[s][k&63].Store(uint64(k&(1<<winBits-1))<<nsBits | uint64(nowNS()))
		}
	}
	return f.rs.at(t)[s]
}

// handoff returns when window k's closing round was handed to the router
// for stream s (ok=false if it was not stamped or its slot was reused).
func (f *fleetFeed) handoff(s, k int) (int64, bool) {
	v := f.ring[s][k&63].Load()
	if v == 0 || int(v>>nsBits) != k&(1<<winBits-1) {
		return 0, false
	}
	return int64(v & (1<<nsBits - 1)), true
}

// fleetRun is one router session's timed phase.
type fleetRun struct {
	warm, rounds int
	ns           int64 // timed RunRounds calls plus the final Flush
	run, flush   callTimer
	failed       uint64
	recoveries   int
	tx, rx       uint64 // wire bytes during the timed phase
	lat          latHist
	dig          *digests
	io0, io1     ioSnap
	checkpoints  float64
	refusals     float64
	err          error // first RunRounds or Flush error
}

func dialFleet(sh *shard, streams int, sink func(int, stream.Correction)) (*fleet.Router, error) {
	return fleet.Dial(fleet.Config{
		Network: "unix", Shards: []string{sh.addr},
		Streams: streams, Distance: streamD, Window: streamW, Commit: streamC,
		Sink: sink,
	})
}

// fleetSession dials sh setupK times (the median is the set-up time, every
// router but the last closed), warms the last one up, and runs the closed
// loop: RunRounds calls of fleetBatch rounds until budget has elapsed (or
// exactly n rounds), then Flush. Latency samples run from the hand-off of
// a window's closing round to the window's first correction at the sink.
func fleetSession(sh *shard, rs *roundSet, setupK, warm, n int, budget time.Duration) (*fleetRun, float64, error) {
	fr := &fleetRun{warm: warm}
	ff := newFleetFeed(rs)
	router, setup, err := medianSetup(setupK, func() (*fleet.Router, error) {
		fc, dig := newFirstCorr(rs.streams), newDigests(rs.streams)
		fr.dig = dig
		return dialFleet(sh, rs.streams, func(s int, c stream.Correction) {
			dig.add(s, c)
			if k, ok := fc.see(s, c); ok {
				if at, ok := ff.handoff(s, k); ok {
					fr.lat.add(nowNS() - at)
				}
			}
		})
	}, (*fleet.Router).Close)
	if err != nil {
		return nil, 0, err
	}
	defer router.Close()

	before := scrapeObs()
	if err := router.RunRounds(warm, ff.feed); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	ff.base = warm
	runtime.GC()
	tx0, rx0 := router.WireBytes()
	if sh.io != nil {
		fr.io0 = sh.io.snap()
	}
	ff.stamp = true
	start := nowNS()
	for n == 0 || fr.rounds < n {
		if n == 0 && fr.rounds > 0 && time.Duration(nowNS()-start) >= budget {
			break
		}
		t0 := nowNS()
		err := router.RunRounds(fleetBatch, ff.feed)
		fr.run.add(t0, nowNS())
		ff.base += fleetBatch
		fr.rounds += fleetBatch
		if err != nil {
			fr.failed += uint64(fleetBatch * rs.streams)
			fr.err = fmt.Errorf("RunRounds: %w", err)
			break
		}
	}
	t0 := nowNS()
	if err := router.Flush(); err != nil && fr.err == nil {
		fr.err = fmt.Errorf("Flush: %w", err)
	}
	end := nowNS()
	fr.flush.add(t0, end)
	fr.ns = end - start
	if sh.io != nil {
		fr.io1 = sh.io.snap()
	}
	tx1, rx1 := router.WireBytes()
	fr.tx, fr.rx = tx1-tx0, rx1-rx0
	fr.recoveries = router.Recoveries()
	after := scrapeObs()
	fr.checkpoints = delta(before, after, "afs_fleet_checkpoints_total")
	fr.refusals = delta(before, after, "afs_fleet_admission_refusals_total")
	// Each admission refusal and each recovery counts as one failed op.
	fr.failed += uint64(fr.refusals) + uint64(fr.recoveries)
	return fr, setup, nil
}

// fleetProcs is the Go processor count the fleet family runs at: the router
// and the shard share one vCPU, so ops_per_s is the inverse of the fleet's
// whole per-round CPU cost. With two, throughput hung on cross-vCPU
// wake-ups between router and shard goroutines (about a fifth of the CPU
// sat idle) and swung by ±40% from run to run on a shared host.
const fleetProcs = 1

// referenceEngine decodes rounds [0, rounds) of the streams in which
// in-process with a stream.Engine of the given workers, returning its
// digests (indexed like rs's streams) and throughput.
func referenceEngine(rs *roundSet, which []int, rounds, workers int) (*digests, float64, error) {
	dig := newDigests(rs.streams)
	eng, err := stream.NewEngine(engineConfig(len(which), workers, func(j int, c stream.Correction) { dig.add(which[j], c) }))
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	t0 := nowNS()
	if err := eng.RunRounds(rounds, func(j, r int) []int32 { return rs.at(r)[which[j]] }); err != nil {
		return nil, 0, err
	}
	if err := eng.Flush(); err != nil {
		return nil, 0, err
	}
	return dig, float64(rounds*len(which)) / (float64(nowNS()-t0) / 1e9), nil
}

func accountFleet(rep *report, fr *fleetRun, streams int, ref *digests, which []int) {
	rep.ops(uint64(fr.rounds*streams), fr.failed)
	if fr.err != nil {
		rep.fail("fleet: %v", fr.err)
	}
	if fr.refusals > 0 || fr.recoveries > 0 {
		rep.fail("fleet: %v admission refusals, %d recoveries", fr.refusals, fr.recoveries)
	}
	checkDigests(rep, "fleet", fr.dig, ref, which, fr.rounds)
}

// runFleet is the untraced fleet workload.
func runFleet(cfg config, rep *report) error {
	streams, rounds := streamSizes(cfg.small)
	rs := genRounds(streams, rounds, cfg.seed)
	sh, err := startShard(false)
	if err != nil {
		return err
	}
	defer sh.stop()
	procs := runtime.GOMAXPROCS(fleetProcs)
	fr, setup, err := fleetSession(sh, rs, setupReps(cfg.small), warmRounds(cfg.small), cfg.fleetRounds(), cfg.budget())
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s")
	ops := float64(fr.rounds * streams)
	rep.set("ops_per_s", ops/(float64(fr.ns)/1e9), "ops/s")
	rep.set("latency_p50_us", fr.lat.quantile(0.50)/1e3, "us")
	rep.set("latency_p90_us", fr.lat.quantile(0.90)/1e3, "us")
	which := checkedStreams(streams)
	ref, _, err := referenceEngine(rs, which, fr.warm+fr.rounds, streamWorkers)
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	accountFleet(rep, fr, streams, ref, which)
	rep.details["latency_samples"] = float64(fr.lat.n)
	rep.details["input"] = float64(rs.events())
	rep.details["corrections"] = float64(fr.dig.corrections())
	return nil
}

// traceFleet measures the fleet layers within budget: Dial, an untraced
// session, a session whose shard socket is timed and whose RunRounds and
// Flush calls are spanned, the feed callback alone, the round frame codec,
// and a one-worker in-process engine on the same rounds — all at
// fleetProcs, so the fleet and the engine get the same CPU.
func traceFleet(cfg config, rep *report, rec *recorder, parent int, budget time.Duration, home bool) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(fleetProcs))
	fam := rec.begin("fleet", parent)
	streams, rounds := streamSizes(cfg.small)
	sp := rec.begin("inputs", fam)
	rs := genRounds(streams, rounds, cfg.seed)
	rec.end(sp)
	warm := warmRounds(cfg.small)

	plain, err := startShard(false)
	if err != nil {
		return err
	}
	sp = rec.begin("fleet.untraced", fam)
	fu, setup, err := fleetSession(plain, rs, tracedSetupReps(cfg.small), warm, cfg.fleetRounds(), budget/3)
	plain.stop()
	if err != nil {
		return err
	}
	rec.end(sp)
	rep.set("setup.dial_ms", setup*1e3, "ms")
	opsU := float64(fu.rounds*streams) / (float64(fu.ns) / 1e9)

	timed, err := startShard(true)
	if err != nil {
		return err
	}
	sp = rec.begin("fleet.traced", fam)
	ft, _, err := fleetSession(timed, rs, 1, warm, fu.rounds, 0)
	timed.stop()
	if err != nil {
		return err
	}
	rec.end(sp)
	ft.run.record(rec, "fleet.Router.RunRounds", sp)
	ft.flush.record(rec, "fleet.Router.Flush", sp)
	n := float64(ft.rounds * streams)
	opsT := n / (float64(ft.ns) / 1e9)

	// The feed callback alone over the same stream-rounds.
	ff := newFleetFeed(rs)
	ff.stamp = true
	sp = rec.begin("bench.feed", fam)
	for t := warm; t < warm+ft.rounds; t++ {
		for s := 0; s < streams; s++ {
			ff.feed(s, t)
		}
	}
	feedNS := rec.end(sp)
	rep.set("router.send_ns_per_round", float64(ft.run.busy-feedNS)/n, "ns")
	rep.set("router.flush_ms", float64(ft.flush.busy)/1e6, "ms")
	rep.set("wire.tx_bytes_per_round", float64(ft.tx)/n, "bytes")
	rep.set("wire.rx_bytes_per_round", float64(ft.rx)/n, "bytes")
	rep.set("fleet.checkpoints_per_kround", ft.checkpoints*1000/n, "count")
	wall := float64(ft.io1.at - ft.io0.at)
	rep.set("shard.busy_frac", 1-float64(ft.io1.blocked-ft.io0.blocked)/wall, "ratio")
	rep.set("shard.syscalls_per_round", float64(ft.io1.calls-ft.io0.calls)/n, "count")

	// The round frame codec on the fleet's rounds.
	per := streamD * (streamD - 1)
	frames := make([][]byte, 0, rs.rounds*streams)
	var buf []byte
	sp = rec.begin("compress.AppendRoundFrame", fam)
	for r := 0; r < rs.rounds; r++ {
		for _, ev := range rs.ev[r] {
			start := len(buf)
			buf = compress.AppendRoundFrame(buf, uint32(r), ev, per)
			frames = append(frames, buf[start:len(buf):len(buf)])
		}
	}
	encNS := rec.end(sp)
	var out []int32
	sp = rec.begin("compress.DecodeRoundFrame", fam)
	for i, f := range frames {
		var err error
		_, out, err = compress.DecodeRoundFrame(f, per, out)
		if err != nil {
			rep.fail("frame %d: %v", i, err)
			break
		}
	}
	decNS := rec.end(sp)
	rep.set("frame.encode_ns_per_round", float64(encNS)/float64(len(frames)), "ns")
	rep.set("frame.decode_ns_per_round", float64(decNS)/float64(len(frames)), "ns")

	sp = rec.begin("stream.Engine(reference)", fam)
	all := allStreams(streams)
	ref, opsE, err := referenceEngine(rs, all, warm+fu.rounds, fleetProcs)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	accountFleet(rep, fu, streams, ref, all)
	accountFleet(rep, ft, streams, ref, all)
	rep.set("fleet.gap_vs_engine", opsE/opsU, "ratio")
	if home {
		rep.set("trace.overhead_frac", opsU/opsT-1, "ratio")
		rep.set("latency_p99_us", fu.lat.quantile(0.99)/1e3, "us")
	}
	rec.end(fam)
	return nil
}
