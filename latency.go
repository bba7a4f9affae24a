package afs

import (
	"fmt"

	"afs/internal/cda"
	"afs/internal/microarch"
	"afs/internal/stats"
)

// LatencyConfig describes one latency-distribution measurement.
type LatencyConfig struct {
	// Distance is the code distance d.
	Distance int
	// P is the physical error rate.
	P float64
	// Trials is the number of random syndromes to decode.
	Trials int
	// Seed makes the run reproducible.
	Seed uint64
	// Workers bounds parallelism; 0 uses all CPUs.
	Workers int
	// ClosedCycle decodes isolated logical cycles instead of the default
	// continuous decoding windows.
	ClosedCycle bool
}

// LatencyResult is the outcome of MeasureLatency: the latency distribution
// of a dedicated (conflict-free) AFS decoder.
type LatencyResult struct {
	Distance int
	P        float64
	// Summary reports mean/median/percentiles in nanoseconds. The paper's
	// dedicated-decoder numbers at d=11, p=1e-3 are 42 ns mean and <150 ns
	// 99.9th percentile.
	Summary stats.Summary
	// UtilGrGen, UtilDFS, UtilCorr are the average fractions of decode
	// work per pipeline stage; they motivate the CDA sharing ratios.
	UtilGrGen, UtilDFS, UtilCorr float64
	// MeanSyndromeWeight is the mean number of detection events.
	MeanSyndromeWeight float64
	// MaxRuntimeStack and MaxEdgeStack are hardware stack high-water marks
	// observed across the run (storage validation).
	MaxRuntimeStack, MaxEdgeStack int
	// WithinBudget is the fraction of decodes finishing within the 400 ns
	// syndrome round.
	WithinBudget float64

	samples    []float64
	breakdowns []microarch.Breakdown
}

// MeasureLatency samples random syndromes and evaluates the AFS hardware
// latency model on each.
func MeasureLatency(cfg LatencyConfig) (LatencyResult, error) {
	if cfg.Distance < 2 {
		return LatencyResult{}, fmt.Errorf("afs: distance %d < 2", cfg.Distance)
	}
	if cfg.Trials <= 0 {
		return LatencyResult{}, fmt.Errorf("afs: trials must be positive")
	}
	if err := checkRate(cfg.P); err != nil {
		return LatencyResult{}, err
	}
	r := microarch.CollectLatencies(microarch.CollectConfig{
		Distance:       cfg.Distance,
		P:              cfg.P,
		Trials:         cfg.Trials,
		Seed:           cfg.Seed,
		Workers:        cfg.Workers,
		ClosedCycle:    cfg.ClosedCycle,
		KeepBreakdowns: true,
	})
	within := 0
	for _, x := range r.ExposedNS {
		if x <= microarch.SyndromeRoundNS {
			within++
		}
	}
	return LatencyResult{
		Distance:           cfg.Distance,
		P:                  cfg.P,
		Summary:            stats.Summarize(r.ExposedNS),
		UtilGrGen:          r.Utilization.GrGen,
		UtilDFS:            r.Utilization.DFS,
		UtilCorr:           r.Utilization.Corr,
		MeanSyndromeWeight: r.MeanDefects,
		MaxRuntimeStack:    r.MaxRuntimeStack,
		MaxEdgeStack:       r.MaxEdgeStack,
		WithinBudget:       float64(within) / float64(len(r.ExposedNS)),
		samples:            r.ExposedNS,
		breakdowns:         r.Breakdowns,
	}, nil
}

// Samples returns the raw per-decode latencies (nanoseconds, trial order).
func (r *LatencyResult) Samples() []float64 { return r.samples }

// Percentile returns the p-th percentile of the latency distribution.
func (r *LatencyResult) Percentile(p float64) float64 {
	return stats.Percentile(r.samples, p)
}

// CDAConfig describes a Conjoined-Decoder Architecture contention run on
// top of a measured latency distribution.
type CDAConfig struct {
	// QubitsPerBlock is N; 0 selects the paper's N=2.
	QubitsPerBlock int
	// GrGenUnits, DFSUnits, CorrUnits override the per-block unit counts
	// (0 selects the paper's L Gr-Gen : L/2 DFS : L/2 CORR point).
	GrGenUnits, DFSUnits, CorrUnits int
	// NoSharedTables disables pairwise Root/Size table sharing (ablation).
	NoSharedTables bool
	// TimeoutNS is the decoding deadline; 0 selects 350 ns.
	TimeoutNS float64
	// Cycles is the number of simulated logical cycles; 0 reuses the
	// number of latency samples.
	Cycles int
	// Seed makes the contention run reproducible.
	Seed uint64
}

// CDAResult is the outcome of SimulateCDA.
type CDAResult struct {
	// Summary reports the per-task completion-time distribution. The
	// paper's Fig. 12 numbers at d=11, p=1e-3 are mean 95 ns, median
	// 85 ns, p99.9 190 ns.
	Summary stats.Summary
	// TimeoutNS is the deadline used.
	TimeoutNS float64
	// Timeouts and EmpiricalTimeoutRate count observed deadline misses.
	Timeouts             uint64
	EmpiricalTimeoutRate float64
	// PTimeout is the timeout-failure probability estimate: the larger of
	// the empirical rate and the tail-extrapolated CCDF at the deadline
	// (the paper reports p_tof = 2e-11).
	PTimeout float64
	// TailOK reports whether tail extrapolation succeeded.
	TailOK bool
	// MeanSlowdown is the CDA mean completion time over the dedicated
	// decoder's mean latency.
	MeanSlowdown float64

	samples []float64
}

// SimulateCDA runs the decoder-block contention simulation over the
// latency distribution in lat.
func SimulateCDA(lat *LatencyResult, cfg CDAConfig) (CDAResult, error) {
	if len(lat.breakdowns) == 0 {
		return CDAResult{}, fmt.Errorf("afs: latency result carries no per-trial breakdowns")
	}
	cycles := cfg.Cycles
	if cycles == 0 {
		cycles = len(lat.breakdowns)
	}
	r := cda.Simulate(cda.Config{
		QubitsPerBlock: cfg.QubitsPerBlock,
		GrGenUnits:     cfg.GrGenUnits,
		DFSUnits:       cfg.DFSUnits,
		CorrUnits:      cfg.CorrUnits,
		NoSharedTables: cfg.NoSharedTables,
		TimeoutNS:      cfg.TimeoutNS,
	}, lat.breakdowns, cycles, cfg.Seed)
	res := CDAResult{
		Summary:              r.Summary,
		TimeoutNS:            r.Config.TimeoutNS,
		Timeouts:             r.Timeouts,
		EmpiricalTimeoutRate: r.EmpiricalTimeoutRate,
		PTimeout:             r.PTimeout,
		TailOK:               r.TailOK,
		samples:              r.CompletionNS,
	}
	if lat.Summary.Mean > 0 {
		res.MeanSlowdown = r.Summary.Mean / lat.Summary.Mean
	}
	return res, nil
}

// Samples returns the raw per-task completion times.
func (r *CDAResult) Samples() []float64 { return r.samples }
