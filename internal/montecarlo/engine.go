package montecarlo

import (
	"sync/atomic"
	"time"

	"afs/internal/pool"
	"afs/internal/stats"
)

// point is one (d, p) measurement point: its fixed chunk set and the
// tallies the pool's goroutines fold chunk results into.
type point struct {
	cfg   AccuracyConfig
	chunk uint64 // trials per chunk
	// nChunks fixes the chunk set (and with it the random streams): chunk
	// c covers trials [c*chunk, min((c+1)*chunk, Trials)).
	nChunks int

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
	pt.nChunks = int((cfg.Trials + pt.chunk - 1) / pt.chunk)
	return pt
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

// run runs the point's chunks through the pool. Each chunk owns the
// deterministic random stream PCG(Seed, chunkIndex), and the kernel's lane
// groups depend only on the chunk's length, so results do not depend on
// which goroutine runs it. A chunk claimed after early stopping fired runs
// nothing.
func (pt *point) run(workers int) {
	engineObs.points.Add(0, 1)
	g := pt.cfg.graph()
	pool.Run(workers, pt.nChunks, func(int) func(int) {
		shard := nextMCShard()
		k := newBPKernel(pt.cfg, g)
		return func(c int) {
			if pt.stopped.Load() {
				return
			}
			lo := uint64(c) * pt.chunk
			n := min(pt.chunk, pt.cfg.Trials-lo)
			k.reseed(pt.cfg.Seed, uint64(c))
			t := k.run(n)
			pt.finish(n, t)
			engineObs.flushChunk(shard, n, t)
		}
	})
}

// RunAccuracy measures the logical error rate of cfg's decoder: each trial
// samples a phenomenological error, decodes the detection events, applies
// the correction, and declares a logical failure when the residual error
// crosses the north boundary cut an odd number of times.
//
// Trials run in fixed chunks with per-chunk seeding (internal/pool hands
// them to goroutines), so for a fixed (Seed, Trials, ChunkTrials) the
// result is bit-identical for every worker count (early stopping, when
// enabled, relaxes this — see AccuracyConfig.StopRelCI).
func RunAccuracy(cfg AccuracyConfig) AccuracyResult {
	start := time.Now()
	pt := newPoint(cfg)
	pt.run(cfg.Workers)
	res := pt.result()
	res.Elapsed = time.Since(start)
	return res
}
