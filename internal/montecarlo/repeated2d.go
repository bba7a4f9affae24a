package montecarlo

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"afs/internal/lattice"
	"afs/internal/noise"
	"afs/internal/pool"
)

// RunRepeated2D reproduces the failure mode behind the paper's Figure 3(b):
// a decoder that assumes perfect measurements (it decodes each round's
// syndrome on the 2-dimensional graph) is run for cfg.Rounds consecutive
// rounds of noisy syndrome extraction. Because every syndrome bit is
// flipped with probability p, the decoder regularly miscorrects, and the
// logical error rate per logical cycle *increases* with code distance —
// the paper's motivation for processing d rounds at once.
//
// cfg.Rounds = 0 selects d rounds (one logical cycle); cfg.New builds the
// 2-D decoder applied every round. Trials run through internal/pool in
// chunks of cfg.ChunkTrials (DefaultChunkTrials when zero), chunk c
// drawing from its own stream PCG(Seed^0x2d2d, c), so the result depends
// on (Seed, Trials, ChunkTrials) and not on Workers.
func RunRepeated2D(cfg AccuracyConfig) AccuracyResult {
	start := time.Now()
	rounds := cfg.rounds()
	g := lattice.Cached2D(cfg.Distance)
	cut := g.NorthCutQubits()
	chunk := cfg.chunkTrials()
	nChunks := (cfg.Trials + chunk - 1) / chunk

	var failures, greedy atomic.Uint64
	pool.Run(cfg.Workers, int(nChunks), func(int) func(int) {
		dec := cfg.New(g)
		fb, _ := dec.(fallbackCounter)
		var seen uint64 // fb's count at the end of the last chunk
		pcg := rand.NewPCG(0, 0)
		rng := rand.New(pcg)
		nq := g.NumDataQubits()
		data := noise.NewBitset(nq)
		marks := make([]bool, g.V)
		var defects []int32
		return func(ci int) {
			c := uint64(ci)
			pcg.Seed(cfg.Seed^0x2d2d, c)
			var fails uint64
			for i := c * chunk; i < min((c+1)*chunk, cfg.Trials); i++ {
				data.Clear()
				for r := 0; r < rounds; r++ {
					// A round of data-qubit noise.
					noise.SparseBernoulli(rng, nq, cfg.P, func(q int) {
						data.Flip(q)
					})
					// True syndrome of the accumulated data error.
					defects = defects[:0]
					data.ForEachSet(func(q int) {
						e := g.SpatialEdge(int32(q), 0)
						ed := &g.Edges[e]
						if !g.IsBoundary(ed.U) {
							marks[ed.U] = !marks[ed.U]
						}
						if !g.IsBoundary(ed.V) {
							marks[ed.V] = !marks[ed.V]
						}
					})
					// Measurement errors flip observed syndrome bits.
					noise.SparseBernoulli(rng, g.V, cfg.P, func(v int) {
						marks[v] = !marks[v]
					})
					for v := int32(0); v < int32(g.V); v++ {
						if marks[v] {
							marks[v] = false
							defects = append(defects, v)
						}
					}
					// Decode on the 2-D graph and apply immediately.
					for _, e := range dec.Decode(defects) {
						ed := &g.Edges[e]
						if ed.Kind == lattice.Spatial {
							data.Flip(int(ed.Qubit))
						}
					}
				}
				if data.Parity(cut) {
					fails++
				}
			}
			failures.Add(fails)
			if fb != nil {
				n := fb.GreedyFallbacks()
				greedy.Add(n - seen)
				seen = n
			}
		}
	})

	res := AccuracyResult{
		Distance:        cfg.Distance,
		Rounds:          rounds,
		P:               cfg.P,
		Trials:          cfg.Trials,
		TrialsRequested: cfg.Trials,
		Failures:        failures.Load(),
		GreedyFallbacks: greedy.Load(),
		Elapsed:         time.Since(start),
	}
	if cfg.Trials > 0 {
		res.LogicalErrorRate = float64(res.Failures) / float64(cfg.Trials)
	}
	res.CI = rateInterval(res.Failures, cfg.Trials, cfg.Seed^0x3b3b)
	return res
}
