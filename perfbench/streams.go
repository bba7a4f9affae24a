package main

import (
	"fmt"
	"runtime"
	"time"

	"afs/internal/noise"
	"afs/internal/stats"
	"afs/internal/stream"
)

// Stream workloads: L logical-qubit streams at d=11, p=1e-3, window W=11
// and commit C=5, fed in lockstep from pregenerated rounds.
const (
	streamD       = 11
	streamP       = 1e-3
	streamW       = 11
	streamC       = 5
	streamWorkers = 2
)

// roundSet holds R pregenerated detector rounds for L streams; global round
// t is round t mod R, so a run of any length replays deterministically.
type roundSet struct {
	streams, rounds int
	ev              [][][]int32 // ev[r][s]: stream s's detection events in round r
}

func streamSizes(small bool) (streams, rounds int) {
	if small {
		return 16, 64
	}
	return 256, 1000
}

// genRounds samples the rounds: stream s draws from its own
// noise.RoundSampler seeded (seed, s+1).
func genRounds(streams, rounds int, seed uint64) *roundSet {
	rs := &roundSet{streams: streams, rounds: rounds, ev: make([][][]int32, rounds)}
	var flat []int32
	idx := make([][2]int, 0, streams*rounds)
	for s := 0; s < streams; s++ {
		smp := noise.NewRoundSampler(streamD, streamP, seed, uint64(s)+1)
		for r := 0; r < rounds; r++ {
			ev := smp.SampleRound()
			idx = append(idx, [2]int{len(flat), len(flat) + len(ev)})
			flat = append(flat, ev...)
		}
	}
	for r := range rs.ev {
		rs.ev[r] = make([][]int32, streams)
		for s := 0; s < streams; s++ {
			x := idx[s*rounds+r]
			rs.ev[r][s] = flat[x[0]:x[1]:x[1]]
		}
	}
	return rs
}

func (rs *roundSet) at(t int) [][]int32 { return rs.ev[t%rs.rounds] }

// events counts the detection events in rounds [0, R), a fingerprint of the
// inputs.
func (rs *roundSet) events() int {
	n := 0
	for _, r := range rs.ev {
		for _, e := range r {
			n += len(e)
		}
	}
	return n
}

// closing reports whether global round t completes a sliding window, and
// which: window k closes at round W-1+kC and commits rounds [kC, (k+1)C).
func closing(t int) (k int, ok bool) {
	if t < streamW-1 || (t-(streamW-1))%streamC != 0 {
		return 0, false
	}
	return (t - (streamW - 1)) / streamC, true
}

// firstCorr tracks, per stream, the first correction of each window — the
// event a round-to-correction latency sample ends on. Calls for one stream
// are serialized by every system under test; distinct streams may run
// concurrently.
type firstCorr struct {
	lastWin []int
	atNS    []int64 // arrival of the current window's first correction, 0 once consumed
}

func newFirstCorr(streams int) *firstCorr {
	f := &firstCorr{lastWin: make([]int, streams), atNS: make([]int64, streams)}
	for i := range f.lastWin {
		f.lastWin[i] = -1
	}
	return f
}

// see reports whether c opens a new window for stream s, and that
// window's index.
func (f *firstCorr) see(s int, c stream.Correction) (int, bool) {
	k := c.Round / streamC
	if k <= f.lastWin[s] {
		return k, false
	}
	f.lastWin[s] = k
	return k, true
}

func engineConfig(streams, workers int, sink func(int, stream.Correction)) stream.EngineConfig {
	return stream.EngineConfig{Streams: streams, Distance: streamD, Window: streamW, Commit: streamC, Workers: workers, Sink: sink}
}

// setupReps is how many times an untraced run builds the system under test
// to take the median set-up time; traced runs build it tracedSetupReps
// times.
func setupReps(small bool) int {
	if small {
		return 2
	}
	return 7
}

func tracedSetupReps(small bool) int { return min(3, setupReps(small)) }

// engineRun is one stream.Engine pass over rounds [0, n) — or, when n is 0,
// over as many rounds as fit in budget after warm rounds of warm-up.
type engineRun struct {
	rounds, warm int   // timed rounds, warm-up rounds before them
	ns           int64 // wall time of the timed PushRound calls
	failed       uint64
	lat          latHist
	dig          *digests
	err          error
}

// runEngine drives eng (built by newEngine on fc and dig) with one
// PushRound per detector round. Latency samples run from a window's
// closing PushRound call to each stream's first correction of that window.
func runEngine(eng *stream.Engine, rs *roundSet, fc *firstCorr, dig *digests, warm, n int, budget time.Duration, timed func(t0, t1 int64)) *engineRun {
	er := &engineRun{warm: warm, dig: dig}
	t := 0
	for ; t < warm; t++ {
		if err := eng.PushRound(rs.at(t)); err != nil {
			er.err = err
			return er
		}
	}
	// Warm-up windows are not latency samples.
	for s := range fc.atNS {
		fc.atNS[s] = 0
	}
	runtime.GC()
	start := nowNS()
	for ; n == 0 || t < warm+n; t++ {
		if n == 0 && t > warm && time.Duration(nowNS()-start) >= budget {
			break
		}
		_, win := closing(t)
		t0 := nowNS()
		err := eng.PushRound(rs.at(t))
		if timed != nil {
			timed(t0, nowNS())
		}
		if err != nil {
			er.failed += uint64(rs.streams)
			er.err = err
		}
		if win {
			for s, at := range fc.atNS {
				if at != 0 {
					er.lat.add(at - t0)
					fc.atNS[s] = 0
				}
			}
		}
	}
	er.ns = nowNS() - start
	er.rounds = t - warm
	if err := eng.Flush(); err != nil {
		er.err = err
	}
	return er
}

// newEngine builds an engine whose sink folds digests and marks first
// corrections.
func newEngine(streams, workers int, fc *firstCorr, dig *digests) (*stream.Engine, error) {
	return stream.NewEngine(engineConfig(streams, workers, func(s int, c stream.Correction) {
		dig.add(s, c)
		if _, ok := fc.see(s, c); ok {
			fc.atNS[s] = nowNS()
		}
	}))
}

// replay decodes rounds [0, n) of the given streams with one stream.Decoder
// each on the calling goroutine, round-major like the engine, then flushes
// them: the single-thread reference the engine must match bit for bit.
// When ingest and window are non-nil it times the rounds that close no
// window as whole-fleet batches and every window-closing PushLayer call
// individually.
func replay(rs *roundSet, which []int, n int, ingest *callTimer, window *callTimer, wh *latHist) (*digests, error) {
	dig := newDigests(rs.streams)
	decs := make([]*stream.Decoder, len(which))
	for j, s := range which {
		dec, err := stream.New(streamD, streamW, streamC)
		if err != nil {
			return nil, err
		}
		s := s
		dec.SetSink(func(c stream.Correction) { dig.add(s, c) })
		decs[j] = dec
	}
	for t := 0; t < n; t++ {
		ev := rs.at(t)
		_, win := closing(t)
		switch {
		case ingest == nil:
			for j, s := range which {
				if err := decs[j].PushLayer(ev[s]); err != nil {
					return nil, err
				}
			}
		case !win:
			t0 := nowNS()
			for j, s := range which {
				if err := decs[j].PushLayer(ev[s]); err != nil {
					return nil, err
				}
			}
			ingest.addN(t0, nowNS(), int64(len(which)))
		default:
			for j, s := range which {
				t0 := nowNS()
				err := decs[j].PushLayer(ev[s])
				t1 := nowNS()
				window.add(t0, t1)
				wh.add(t1 - t0)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	for _, dec := range decs {
		dec.Flush()
	}
	return dig, nil
}

// checkedStreams returns every eighth stream: the untraced engine run's
// digest check replays only these, keeping the reference pass short.
func checkedStreams(streams int) []int {
	var out []int
	for s := 0; s < streams; s += 8 {
		out = append(out, s)
	}
	return out
}

func warmRounds(small bool) int {
	if small {
		return 4 * streamW
	}
	return 400 * streamC
}

// medianSetup times build K times and reports the median in seconds. Each
// built value but the last is released with drop before the next build
// starts (a fleet shard serves one router session at a time).
func medianSetup[T any](k int, build func() (T, error), drop func(T)) (T, float64, error) {
	times := make([]float64, k)
	for i := 0; ; i++ {
		t0 := nowNS()
		v, err := build()
		times[i] = float64(nowNS()-t0) / 1e9
		if err != nil {
			var zero T
			return zero, 0, err
		}
		if i == k-1 {
			return v, stats.Percentile(times, 50), nil
		}
		drop(v)
	}
}

// runStreamEngine is the untraced stream-engine workload.
func runStreamEngine(cfg config, rep *report) error {
	streams, rounds := streamSizes(cfg.small)
	rs := genRounds(streams, rounds, cfg.seed)
	var fc *firstCorr
	var dig *digests
	eng, setup, err := medianSetup(setupReps(cfg.small), func() (*stream.Engine, error) {
		fc, dig = newFirstCorr(streams), newDigests(streams)
		return newEngine(streams, streamWorkers, fc, dig)
	}, (*stream.Engine).Close)
	if err != nil {
		return err
	}
	defer eng.Close()
	rep.set("setup_s", setup, "s")

	er := runEngine(eng, rs, fc, dig, warmRounds(cfg.small), cfg.rounds, cfg.budget(), nil)
	ops := uint64(er.rounds * streams)
	rep.ops(ops, er.failed)
	if er.err != nil {
		rep.fail("engine: %v", er.err)
	}
	rep.set("ops_per_s", float64(ops)/(float64(er.ns)/1e9), "ops/s")
	rep.set("latency_p50_us", er.lat.quantile(0.50)/1e3, "us")
	rep.set("latency_p90_us", er.lat.quantile(0.90)/1e3, "us")

	which := checkedStreams(streams)
	ref, err := replay(rs, which, er.warm+er.rounds, nil, nil, nil)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	checkDigests(rep, "engine", dig, ref, which, er.rounds)
	rep.details["latency_samples"] = float64(er.lat.n)
	rep.details["input"] = float64(rs.events())
	rep.details["corrections"] = float64(dig.corrections())
	return nil
}

// checkDigests compares a run's per-stream digests against a reference;
// every mismatched stream fails its timed rounds.
func checkDigests(rep *report, what string, got, want *digests, which []int, rounds int) {
	bad := got.mismatches(want, which)
	if len(bad) > 0 {
		rep.Failed += uint64(len(bad) * rounds)
		rep.fail("%s: %d of %d checked streams differ from the reference (first: stream %d)", what, len(bad), len(which), bad[0])
	}
}

// traceStream measures the stream layers within budget: engine set-up, a
// single-thread per-decoder replay that times ingest and window-closing
// PushLayer calls, and engines at one and two workers over the same rounds.
func traceStream(cfg config, rep *report, rec *recorder, parent int, budget time.Duration, home bool) error {
	fam := rec.begin("stream", parent)
	streams, rounds := streamSizes(cfg.small)
	gen := rec.begin("inputs", fam)
	rs := genRounds(streams, rounds, cfg.seed)
	rec.end(gen)

	sp := rec.begin("setup", fam)
	var setupT callTimer
	eng, setup, err := medianSetup(tracedSetupReps(cfg.small), func() (*stream.Engine, error) {
		t0 := nowNS()
		e, err := newEngine(streams, streamWorkers, newFirstCorr(streams), newDigests(streams))
		setupT.add(t0, nowNS())
		return e, err
	}, (*stream.Engine).Close)
	if err != nil {
		return err
	}
	eng.Close()
	setupT.record(rec, "stream.NewEngine", sp)
	rec.end(sp)
	rep.set("setup.engine_ms", setup*1e3, "ms")

	// Replay: as many rounds as fit in a quarter of the budget, counted in
	// whole windows so the engines below see identical work.
	n := cfg.rounds
	if n == 0 {
		n = replayRounds(rs, budget/4)
	}
	all := allStreams(streams)
	var ingest, window callTimer
	var wh latHist
	runtime.GC() // the set-up engines above are garbage now
	before := scrapeObs()
	sp = rec.begin("stream.replay", fam)
	ref, err := replay(rs, all, n, &ingest, &window, &wh)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rec.end(sp)
	after := scrapeObs()
	ingest.record(rec, "stream.PushLayer(ingest)", sp)
	window.record(rec, "stream.PushLayer(window)", sp)
	rep.ops(uint64(n*streams), 0)
	rep.set("stream.ingest_ns_per_round", float64(ingest.busy)/float64(ingest.calls), "ns")
	rep.set("stream.window_ns_p50", wh.quantile(0.50), "ns")
	rep.set("stream.window_ns_p99", wh.quantile(0.99), "ns")
	windows := delta(before, after, "afs_stream_windows_total")
	rep.set("stream.w0_window_frac", delta(before, after, "afs_stream_w0_windows_total")/windows, "ratio")
	c0, s0 := before.hist("afs_stream_window_defects")
	c1, s1 := after.hist("afs_stream_window_defects")
	rep.set("stream.defects_per_window", (s1-s0)/(c1-c0), "count")

	// Engines over the same n rounds, no warm-up so the decoders match the
	// replay's from round 0: traced (every PushRound timed) and untraced at
	// one worker, then untraced at two.
	engineOps := func(workers int, name string, timed bool) (*engineRun, float64, int64, error) {
		fc, dig := newFirstCorr(streams), newDigests(streams)
		e, err := newEngine(streams, workers, fc, dig)
		if err != nil {
			return nil, 0, 0, err
		}
		defer e.Close()
		var pt callTimer
		var hook func(t0, t1 int64)
		if timed {
			hook = pt.add
		}
		sp := rec.begin(name, fam)
		er := runEngine(e, rs, fc, dig, 0, n, 0, hook)
		rec.end(sp)
		if timed {
			pt.record(rec, "stream.Engine.PushRound", sp)
		}
		rep.ops(uint64(n*streams), er.failed)
		if er.err != nil {
			rep.fail("%s: %v", name, er.err)
		}
		checkDigests(rep, name, dig, ref, all, n)
		return er, float64(n*streams) / (float64(er.ns) / 1e9), pt.busy, nil
	}
	_, opsT1, pushNS, err := engineOps(1, "engine.traced_w1", true)
	if err != nil {
		return err
	}
	_, ops1, _, err := engineOps(1, "engine.untraced_w1", false)
	if err != nil {
		return err
	}
	er2, ops2, _, err := engineOps(streamWorkers, "engine.untraced_w2", false)
	if err != nil {
		return err
	}
	rep.set("engine.parallel_eff", ops2/(2*ops1), "ratio")
	rep.set("engine.dispatch_ns_per_round", float64(pushNS-ingest.busy-window.busy)/float64(n*streams), "ns")
	if home {
		rep.set("trace.overhead_frac", ops1/opsT1-1, "ratio")
		rep.set("latency_p99_us", er2.lat.quantile(0.99)/1e3, "us")
	}
	rec.end(fam)
	return nil
}

// replayRounds estimates how many rounds a single-thread replay of all
// streams finishes in budget, by timing a short probe, rounded to whole
// windows.
func replayRounds(rs *roundSet, budget time.Duration) int {
	probe := 10 * streamW
	t0 := nowNS()
	if _, err := replay(rs, allStreams(rs.streams), probe, nil, nil, nil); err != nil {
		return probe
	}
	per := float64(nowNS()-t0) / float64(probe)
	n := int(float64(budget) / per)
	n -= n % streamC
	return max(n, probe)
}
