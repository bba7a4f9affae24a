// Package montecarlo implements the paper's Monte-Carlo simulation
// infrastructure (§III-A): for each configuration of physical error rate,
// code distance, and noise model it samples random trials, decodes them,
// counts logical failures, and attaches bootstrap confidence intervals to
// the measured rates.
//
// Each point's trials are split into fixed-size chunks (see engine.go),
// each carrying its own deterministic seed, and internal/pool hands the
// chunks to goroutines, so measured numbers are exactly reproducible and —
// unlike per-worker seeding — independent of the worker count. An optional
// adaptive early-stopping rule ends a point once its confidence interval
// is tight enough.
package montecarlo

import (
	"time"

	"afs/internal/lattice"
	"afs/internal/noise"
	"afs/internal/stats"
)

// Decoder is the minimal decoding contract: defects in, correction edge
// indices out. Both the Union-Find decoder (internal/core) and the MWPM
// baseline (internal/mwpm) satisfy it. A decoder that solves some
// instances inexactly (MWPM's greedy matcher above its exact-DP limit)
// also implements fallbackCounter, and the run reports the count.
type Decoder interface {
	Decode(defects []int32) []int32
}

// fallbackCounter is implemented by decoders with an inexact fallback:
// GreedyFallbacks returns the running count of decodes that took it.
// Workers read it once per chunk, after the chunk's trials.
type fallbackCounter interface {
	GreedyFallbacks() uint64
}

// Factory builds a fresh decoder bound to g. Each worker calls it once per
// measurement point, so implementations need not be safe for concurrent
// use.
type Factory func(g *lattice.Graph) Decoder

// DefaultChunkTrials is the chunk size used when AccuracyConfig.ChunkTrials
// is zero. It is part of the reproducibility contract: results are
// bit-identical across worker counts for a fixed (Seed, Trials,
// ChunkTrials) triple, because every chunk owns the deterministic random
// stream PCG(Seed, chunkIndex).
const DefaultChunkTrials = 1024

// AccuracyConfig describes one logical-error-rate measurement point.
type AccuracyConfig struct {
	// Distance is the surface code distance d.
	Distance int
	// Rounds is the number of detector layers; 0 selects the paper's
	// default of d rounds (a full logical cycle), and 1 selects the
	// perfect-measurement 2-D model.
	Rounds int
	// P is the physical error rate of the phenomenological model.
	P float64
	// Trials is the number of Monte-Carlo trials (the paper uses 10^7).
	Trials uint64
	// Workers is the parallelism; 0 selects GOMAXPROCS.
	Workers int
	// Seed makes the run reproducible.
	Seed uint64
	// New builds the decoder under test.
	New Factory

	// ChunkTrials is the number of trials per chunk; 0 selects
	// DefaultChunkTrials. Results depend on the chunking (each chunk is
	// its own random stream), not on how chunks land on workers.
	ChunkTrials uint64

	// DisableTriage turns off the closed-form certificates (core.LaneTriage
	// and core.Triage) and routes every trial through New's full decoder.
	// They are failure-equivalent for every decoder in the repo (punting
	// whenever a closed form could be ambiguous), so this exists
	// for ablation benches and for custom Factory implementations whose
	// decoders deliberately deviate from minimal-correction behavior.
	DisableTriage bool

	// DisablePeel is an ablation switch for the partial-residual
	// decomposition (core.Triage.PeelResidual), which certifies isolated
	// components of syndromes of weight >= 3 and hands the full decoder
	// only the residual. With it set, gathered lanes of weight >= 3 go to
	// the full decoder whole. Peeling is failure-equivalent for the
	// group-additive decoders (Union-Find, MWPM); for the hierarchical
	// router the bit-identity tests find no differing trial, though a
	// weight tie could in principle split the two (DESIGN.md). The switch
	// exists so the peel can prove in a same-run ablation that it still
	// wins. Implied by DisableTriage.
	DisablePeel bool

	// StopRelCI, when positive, enables adaptive early stopping: the point
	// terminates once the Wilson 95% CI half-width divided by the observed
	// rate is <= StopRelCI (e.g. 0.1 stops at ±10% relative precision).
	// Easy points (high p, low d) then finish orders of magnitude sooner.
	// The default of 0 preserves exact fixed-trial-count behavior; early
	// stopping trades bit-exact reproducibility of the executed trial set
	// for speed (which chunks run depends on timing).
	StopRelCI float64
	// StopMinFailures gates early stopping until at least this many
	// failures have been observed; 0 selects 50, enough that the Wilson
	// interval is meaningful.
	StopMinFailures uint64
}

func (c AccuracyConfig) rounds() int {
	if c.Rounds == 0 {
		return c.Distance
	}
	return c.Rounds
}

func (c AccuracyConfig) chunkTrials() uint64 {
	if c.ChunkTrials == 0 {
		return DefaultChunkTrials
	}
	return c.ChunkTrials
}

func (c AccuracyConfig) stopMinFailures() uint64 {
	if c.StopMinFailures == 0 {
		return 50
	}
	return c.StopMinFailures
}

// graph returns the (shared, immutable) decoding graph for the point.
func (c AccuracyConfig) graph() *lattice.Graph {
	if c.rounds() == 1 {
		return lattice.Cached2D(c.Distance)
	}
	return lattice.Cached3D(c.Distance, c.rounds())
}

// AccuracyResult is the outcome of one measurement point.
type AccuracyResult struct {
	Distance int
	Rounds   int
	P        float64
	// Trials is the number of trials actually executed; it equals
	// TrialsRequested unless early stopping fired.
	Trials uint64
	// TrialsRequested is the configured trial budget.
	TrialsRequested uint64
	// EarlyStopped reports whether the adaptive stopping rule terminated
	// the point before its full budget.
	EarlyStopped     bool
	Failures         uint64
	LogicalErrorRate float64
	CI               stats.RateCI
	MeanDefects      float64
	Elapsed          time.Duration
	// Triage-class tallies: how many trials each closed-form fast path
	// resolved (weight 0, 1, 2, and weight >= 3 syndromes resolved by the
	// lane certificate or the peel) and how many ran the full decoder.
	// TriageW0+TriageW1+TriageW2+TriageMulti+FullDecodes == Trials; with
	// DisableTriage set, FullDecodes == Trials.
	TriageW0    uint64
	TriageW1    uint64
	TriageW2    uint64
	TriageMulti uint64
	FullDecodes uint64
	// Bit-plane lane tallies: lanes resolved straight from plane algebra
	// vs lanes whose defect lists were gathered for the scalar certificate
	// and decoder path. BitPlaneFastLanes+BitPlaneGatheredLanes == Trials.
	BitPlaneFastLanes     uint64
	BitPlaneGatheredLanes uint64
	// Partial-residual peel tallies (core.Triage.PeelResidual): certified
	// components peeled, trials resolved entirely by the peel
	// decomposition (a subset of TriageMulti), full decodes that ran on a
	// strictly smaller residual (a subset of FullDecodes), and the
	// defect-count histogram of those residuals (buckets <=2, <=4, <=8,
	// <=16, >16). Every gathered multi-defect (>= 3) lane goes through the
	// peel; the triage partition w0+w1+w2+multi+full == trials is
	// unaffected.
	PeeledComponents uint64
	PeelResolved     uint64
	ResidualDecodes  uint64
	ResidualDefects  [5]uint64
	// GreedyFallbacks counts the decodes New's decoder solved inexactly
	// (fallbackCounter; MWPM above its exact-matching limit), 0 for a
	// decoder without a fallback. It is reported, never enforced. A trial
	// with no greedy decode runs exactly as exact MWPM would, and at most
	// GreedyFallbacks trials hold one, so exact MWPM's failures on the same
	// trials lie in [Failures − GreedyFallbacks, Failures + GreedyFallbacks].
	GreedyFallbacks uint64
}

// rateInterval attaches a 95% confidence interval to a Monte-Carlo rate:
// percentile bootstrap in general, Wilson score when no failures were
// observed (the bootstrap is degenerate at k=0 and a zero-failure run
// still carries an informative upper bound).
func rateInterval(failures, trialCount, seed uint64) stats.RateCI {
	if failures == 0 {
		return stats.WilsonInterval(failures, trialCount, 0.95)
	}
	return stats.BootstrapRateCI(failures, trialCount, 2000, 0.95, seed^0xb00757aa)
}

// ApplyCorrection computes the residual data-error mask for a trial:
// residual = net injected data error XOR data effect of the correction.
func ApplyCorrection(g *lattice.Graph, correction []int32, trial *noise.Trial, residual *noise.Bitset) {
	residual.CopyFrom(trial.NetData)
	for _, e := range correction {
		ed := &g.Edges[e]
		if ed.Kind == lattice.Spatial {
			residual.Flip(int(ed.Qubit))
		}
	}
}
