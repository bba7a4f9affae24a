package afs

import (
	"fmt"

	"afs/internal/core"
	"afs/internal/hierarchical"
	"afs/internal/lattice"
	"afs/internal/lut"
	"afs/internal/montecarlo"
	"afs/internal/mwpm"
)

// DecoderKind selects which decoding algorithm a Monte-Carlo accuracy run
// uses.
type DecoderKind string

const (
	// UnionFind is the AFS decoder (the paper's design).
	UnionFind DecoderKind = "union-find"
	// MWPM is the minimum-weight perfect-matching baseline.
	MWPM DecoderKind = "mwpm"
	// Hierarchical routes easy syndromes to a local first stage and hard
	// ones to the Union-Find decoder (paper §VII-B related work).
	Hierarchical DecoderKind = "hierarchical"
	// LUT is the lookup-table decoder; only constructible for small codes
	// (2-D up to d=5, full cycles at d=3).
	LUT DecoderKind = "lut"
)

// AccuracyConfig describes one logical-error-rate measurement.
type AccuracyConfig struct {
	// Distance is the code distance d (>= 2).
	Distance int
	// P is the physical error rate of the phenomenological model.
	P float64
	// Rounds is the number of detector layers decoded together; 0 selects
	// d (a full logical cycle) and 1 the perfect-measurement 2-D model.
	Rounds int
	// Trials is the number of Monte-Carlo trials (the paper uses 1e7).
	Trials uint64
	// Decoder selects the algorithm; empty selects UnionFind.
	Decoder DecoderKind
	// Seed makes the run reproducible.
	Seed uint64
	// Workers bounds parallelism; 0 uses all CPUs.
	Workers int
	// Repeated2D runs the Figure 3(b) protocol instead: a 2-D decoder
	// applied every round while measurements are noisy, demonstrating why
	// decoders must process d rounds at once.
	Repeated2D bool
	// StopRelCI, when positive, enables adaptive early stopping: the run
	// ends once the 95% CI half-width falls to StopRelCI times the
	// observed rate (see montecarlo.AccuracyConfig.StopRelCI). 0 runs the
	// full trial budget. Ignored by Repeated2D.
	StopRelCI float64
	// StopMinFailures gates early stopping until this many failures have
	// been seen; 0 selects the engine default.
	StopMinFailures uint64
}

// AccuracyResult is the outcome of MeasureLogicalErrorRate.
type AccuracyResult struct {
	Distance int
	Rounds   int
	P        float64
	// Trials is the number executed; with early stopping it can be below
	// TrialsRequested.
	Trials           uint64
	TrialsRequested  uint64
	EarlyStopped     bool
	Failures         uint64
	LogicalErrorRate float64
	// CILow and CIHigh bound the rate at 95% confidence (bootstrap).
	CILow, CIHigh float64
	// MeanSyndromeWeight is the mean number of non-trivial detection
	// events per trial.
	MeanSyndromeWeight float64
	// GreedyFallbacks counts the MWPM decodes that exceeded its exact
	// matcher's limit (20 defects) and were matched greedily, so the rate
	// mixes in that many inexact decodes; 0 for every other decoder. A
	// trial with no greedy decode runs exactly as exact MWPM would, and at
	// most GreedyFallbacks trials hold one, so exact MWPM's failures on the
	// same trials lie in [Failures − GreedyFallbacks, Failures +
	// GreedyFallbacks].
	GreedyFallbacks uint64
}

// leanOpts is every accuracy run's Union-Find option set: accuracy runs
// consume only the correction, so they skip the per-decode execution
// profile the latency model would need.
var leanOpts = core.Options{LeanStats: true}

func (c AccuracyConfig) factory() (montecarlo.Factory, error) {
	switch c.Decoder {
	case "", UnionFind:
		return func(g *lattice.Graph) montecarlo.Decoder {
			return core.NewDecoder(g, leanOpts)
		}, nil
	case MWPM:
		return func(g *lattice.Graph) montecarlo.Decoder {
			return mwpm.NewDecoder(g)
		}, nil
	case Hierarchical:
		return func(g *lattice.Graph) montecarlo.Decoder {
			return hierarchical.New(g, core.NewDecoder(g, leanOpts))
		}, nil
	case LUT:
		// Validate constructibility eagerly so the caller gets an error
		// instead of a worker panic.
		rounds := c.Rounds
		if rounds == 0 {
			rounds = c.Distance
		}
		var probe *lattice.Graph
		if rounds == 1 {
			probe = lattice.Cached2D(c.Distance)
		} else {
			probe = lattice.Cached3D(c.Distance, rounds)
		}
		if _, err := lut.New(probe); err != nil {
			return nil, err
		}
		return func(g *lattice.Graph) montecarlo.Decoder {
			d, err := lut.New(g)
			if err != nil {
				panic(err) // unreachable: validated above on the same shape
			}
			return d
		}, nil
	default:
		return nil, fmt.Errorf("afs: unknown decoder kind %q", c.Decoder)
	}
}

// MeasureLogicalErrorRate estimates the logical error rate per logical
// cycle by Monte-Carlo simulation under the phenomenological noise model.
func MeasureLogicalErrorRate(cfg AccuracyConfig) (AccuracyResult, error) {
	if cfg.Distance < 2 {
		return AccuracyResult{}, fmt.Errorf("afs: distance %d < 2", cfg.Distance)
	}
	if err := checkRate(cfg.P); err != nil {
		return AccuracyResult{}, err
	}
	if cfg.Rounds < 0 {
		return AccuracyResult{}, fmt.Errorf("afs: rounds %d < 0", cfg.Rounds)
	}
	factory, err := cfg.factory()
	if err != nil {
		return AccuracyResult{}, err
	}
	mcCfg := montecarlo.AccuracyConfig{
		Distance:        cfg.Distance,
		Rounds:          cfg.Rounds,
		P:               cfg.P,
		Trials:          cfg.Trials,
		Workers:         cfg.Workers,
		Seed:            cfg.Seed,
		New:             factory,
		StopRelCI:       cfg.StopRelCI,
		StopMinFailures: cfg.StopMinFailures,
	}
	var r montecarlo.AccuracyResult
	if cfg.Repeated2D {
		r = montecarlo.RunRepeated2D(mcCfg)
	} else {
		r = montecarlo.RunAccuracy(mcCfg)
	}
	return AccuracyResult{
		Distance:           r.Distance,
		Rounds:             r.Rounds,
		P:                  r.P,
		Trials:             r.Trials,
		TrialsRequested:    r.TrialsRequested,
		EarlyStopped:       r.EarlyStopped,
		Failures:           r.Failures,
		LogicalErrorRate:   r.LogicalErrorRate,
		CILow:              r.CI.Lo,
		CIHigh:             r.CI.Hi,
		MeanSyndromeWeight: r.MeanDefects,
		GreedyFallbacks:    r.GreedyFallbacks,
	}, nil
}
