package montecarlo

import (
	"runtime"
	"sync"
	"time"

	"afs/internal/lattice"
	"afs/internal/noise"
)

// This file retains the pre-engine execution strategy — per-point graph
// construction, static per-worker trial striping, scalar sampling and full
// decoding of every trial — as a reference implementation that tests use
// as an independent oracle for the engine's statistics.
//
// Note its per-worker seeding (PCG(Seed, worker+1)) makes results depend
// on the worker count, which is exactly the defect the engine's per-chunk
// seeding removes. Do not use these entry points for new measurements.

// RunAccuracyStatic measures a point with the legacy static-striping
// executor. Prefer RunAccuracy.
func RunAccuracyStatic(cfg AccuracyConfig) AccuracyResult {
	start := time.Now()
	rounds := cfg.rounds()
	var g *lattice.Graph
	if rounds == 1 {
		g = lattice.New2D(cfg.Distance)
	} else {
		g = lattice.New3D(cfg.Distance, rounds)
	}
	cut := g.NorthCutQubits()

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if uint64(workers) > cfg.Trials && cfg.Trials > 0 {
		workers = int(cfg.Trials)
	}
	if workers < 1 {
		workers = 1
	}

	type partial struct {
		trials   uint64
		failures uint64
		defects  uint64
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		share := cfg.Trials / uint64(workers)
		if uint64(w) < cfg.Trials%uint64(workers) {
			share++
		}
		wg.Add(1)
		go func(w int, share uint64) {
			defer wg.Done()
			dec := cfg.New(g)
			s := noise.NewSampler(g, cfg.P, cfg.Seed, uint64(w)+1)
			var trial noise.Trial
			var residual noise.Bitset
			for i := uint64(0); i < share; i++ {
				s.Sample(&trial)
				parts[w].defects += uint64(len(trial.Defects))
				corr := dec.Decode(trial.Defects)
				ApplyCorrection(g, corr, &trial, &residual)
				if residual.Parity(cut) {
					parts[w].failures++
				}
			}
			parts[w].trials = share
		}(w, share)
	}
	wg.Wait()

	var trials, failures, defects uint64
	for _, p := range parts {
		trials += p.trials
		failures += p.failures
		defects += p.defects
	}

	res := AccuracyResult{
		Distance:        cfg.Distance,
		Rounds:          rounds,
		P:               cfg.P,
		Trials:          trials,
		TrialsRequested: cfg.Trials,
		Failures:        failures,
		Elapsed:         time.Since(start),
	}
	if trials > 0 {
		res.LogicalErrorRate = float64(failures) / float64(trials)
		// Weight by trials actually executed, not by worker: per-worker
		// means averaged unweighted skew the statistic whenever shares are
		// unequal (or a worker receives zero trials).
		res.MeanDefects = float64(defects) / float64(trials)
	}
	res.CI = rateInterval(failures, trials, cfg.Seed)
	return res
}
