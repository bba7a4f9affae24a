package montecarlo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"afs/internal/stats"
)

// point is one (d, p) measurement point: the chunk counter the worker pool
// claims from and the tallies it folds chunk results into.
type point struct {
	cfg   AccuracyConfig
	chunk uint64 // trials per chunk
	// nChunks fixes the chunk set (and with it the random streams): chunk
	// c covers trials [c*chunk, min((c+1)*chunk, Trials)).
	nChunks uint64

	next     atomic.Uint64 // next unclaimed chunk index
	trials   atomic.Uint64 // trials executed
	failures atomic.Uint64
	defects  atomic.Uint64 // total defects observed (for MeanDefects)
	stopped  atomic.Bool   // adaptive early-stopping latch

	// Triage-class and lane tallies (see bpKernel.run), folded in once per
	// chunk.
	w0, w1, w2, multi, full atomic.Uint64
	bpFast, bpGathered      atomic.Uint64

	// Partial-residual peel tallies (see chunkTally).
	peeled, peelResolved, residual atomic.Uint64
	resHist                        [5]atomic.Uint64

	greedy atomic.Uint64 // inexact fallback decodes (see fallbackCounter)
}

func newPoint(cfg AccuracyConfig) *point {
	pt := &point{cfg: cfg, chunk: cfg.chunkTrials()}
	pt.nChunks = (cfg.Trials + pt.chunk - 1) / pt.chunk
	return pt
}

// claim returns the next chunk's trial range, or ok=false when the point
// is exhausted or stopped.
func (pt *point) claim() (lo, hi uint64, c uint64, ok bool) {
	if pt.stopped.Load() {
		return 0, 0, 0, false
	}
	c = pt.next.Add(1) - 1
	if c >= pt.nChunks {
		return 0, 0, 0, false
	}
	lo = c * pt.chunk
	hi = lo + pt.chunk
	if hi > pt.cfg.Trials {
		hi = pt.cfg.Trials
	}
	return lo, hi, c, true
}

// finish records a completed chunk's tallies and evaluates the adaptive
// stopping rule.
func (pt *point) finish(trials uint64, t chunkTally) {
	pt.failures.Add(t.failures)
	pt.defects.Add(t.defects)
	if t.w0 != 0 {
		pt.w0.Add(t.w0)
	}
	if t.w1 != 0 {
		pt.w1.Add(t.w1)
	}
	if t.w2 != 0 {
		pt.w2.Add(t.w2)
	}
	if t.multi != 0 {
		pt.multi.Add(t.multi)
	}
	if t.full != 0 {
		pt.full.Add(t.full)
	}
	if t.bpFast != 0 {
		pt.bpFast.Add(t.bpFast)
	}
	if t.bpGathered != 0 {
		pt.bpGathered.Add(t.bpGathered)
	}
	if t.peeled != 0 {
		pt.peeled.Add(t.peeled)
	}
	if t.peelResolved != 0 {
		pt.peelResolved.Add(t.peelResolved)
	}
	if t.residual != 0 {
		pt.residual.Add(t.residual)
		for i, n := range t.resHist {
			if n != 0 {
				pt.resHist[i].Add(n)
			}
		}
	}
	if t.greedy != 0 {
		pt.greedy.Add(t.greedy)
	}
	done := pt.trials.Add(trials)
	if pt.cfg.StopRelCI <= 0 || pt.stopped.Load() {
		return
	}
	fails := pt.failures.Load()
	if fails < pt.cfg.stopMinFailures() {
		return
	}
	// The (fails, done) pair is a racy snapshot across workers; that is
	// fine for a stopping heuristic — the final reported rate uses the
	// exact post-join tallies.
	ci := stats.WilsonInterval(fails, done, 0.95)
	rate := float64(fails) / float64(done)
	if (ci.Hi-ci.Lo)/2 <= pt.cfg.StopRelCI*rate {
		// CAS so concurrent finishers latch (and count) the stop exactly once.
		if pt.stopped.CompareAndSwap(false, true) {
			engineObs.earlyStops.Inc(0)
		}
	}
}

// result assembles the point's AccuracyResult after the pool has drained.
func (pt *point) result() AccuracyResult {
	executed := pt.trials.Load()
	failures := pt.failures.Load()
	res := AccuracyResult{
		Distance:        pt.cfg.Distance,
		Rounds:          pt.cfg.rounds(),
		P:               pt.cfg.P,
		Trials:          executed,
		TrialsRequested: pt.cfg.Trials,
		EarlyStopped:    pt.stopped.Load(),
		Failures:        failures,
	}
	if executed > 0 {
		res.LogicalErrorRate = float64(failures) / float64(executed)
		res.MeanDefects = float64(pt.defects.Load()) / float64(executed)
	}
	res.TriageW0 = pt.w0.Load()
	res.TriageW1 = pt.w1.Load()
	res.TriageW2 = pt.w2.Load()
	res.TriageMulti = pt.multi.Load()
	res.FullDecodes = pt.full.Load()
	res.BitPlaneFastLanes = pt.bpFast.Load()
	res.BitPlaneGatheredLanes = pt.bpGathered.Load()
	res.PeeledComponents = pt.peeled.Load()
	res.PeelResolved = pt.peelResolved.Load()
	res.ResidualDecodes = pt.residual.Load()
	for i := range res.ResidualDefects {
		res.ResidualDefects[i] = pt.resHist[i].Load()
	}
	res.GreedyFallbacks = pt.greedy.Load()
	res.CI = rateInterval(failures, executed, pt.cfg.Seed)
	return res
}

// run drives the worker pool over the point: every worker claims chunks
// off the point's shared counter until it is drained, so a hard chunk in
// one worker never idles the rest.
func (pt *point) run(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	engineObs.points.Add(0, 1)
	g := pt.cfg.graph()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := nextMCShard()
			var k *bpKernel
			for {
				lo, hi, c, ok := pt.claim()
				if !ok {
					return
				}
				// Lazy kernel: a worker that never claims a chunk builds
				// nothing. Each chunk owns the deterministic random stream
				// PCG(Seed, chunkIndex), and the kernel's lane groups depend
				// only on the chunk's length, so results do not depend on
				// which worker runs it.
				if k == nil {
					k = newBPKernel(pt.cfg, g)
				}
				k.reseed(pt.cfg.Seed, c)
				t := k.run(hi - lo)
				pt.finish(hi-lo, t)
				engineObs.flushChunk(shard, hi-lo, t)
			}
		}()
	}
	wg.Wait()
}

// RunAccuracy measures the logical error rate of cfg's decoder: each trial
// samples a phenomenological error, decodes the detection events, applies
// the correction, and declares a logical failure when the residual error
// crosses the north boundary cut an odd number of times.
//
// Trials are distributed over chunked work stealing with per-chunk seeding,
// so for a fixed (Seed, Trials, ChunkTrials) the result is bit-identical
// for every worker count (early stopping, when enabled, relaxes this —
// see AccuracyConfig.StopRelCI).
func RunAccuracy(cfg AccuracyConfig) AccuracyResult {
	start := time.Now()
	pt := newPoint(cfg)
	pt.run(cfg.Workers)
	res := pt.result()
	res.Elapsed = time.Since(start)
	return res
}
