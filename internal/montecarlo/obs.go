package montecarlo

import (
	"sync/atomic"

	"afs/internal/obs"
)

// mcObs publishes the Monte-Carlo engine's live progress: trials and
// failures as they are tallied, chunks as workers run them, and the
// early-stop decisions the Wilson-CI rule makes. Everything increments on
// the same code paths that update the per-point atomics, so a scrape
// mid-sweep shows exactly how far the sweep has gotten.
type mcObs struct {
	points     *obs.Counter
	chunks     *obs.Counter
	trials     *obs.Counter
	failures   *obs.Counter
	earlyStops *obs.Counter

	// Triage-class tallies from the shot kernel: how many trials
	// each fast path resolved and how many fell through to the full
	// decoder. -metrics divides these by afs_mc_trials_total for live
	// fast-path hit rates.
	triageW0    *obs.Counter
	triageW1    *obs.Counter
	triageW2    *obs.Counter
	triageMulti *obs.Counter
	fullDecode  *obs.Counter

	// Lane tallies: how many trial lanes the plane algebra resolved
	// outright and how many were gathered into the scalar triage and
	// decoder path; bitplaneFast+bitplaneGathered == afs_mc_trials_total.
	bitplaneFast     *obs.Counter
	bitplaneGathered *obs.Counter

	// Partial-residual peel tallies: components peeled off punted
	// syndromes, punted trials the peel resolved outright, full decodes
	// that ran on a strictly smaller residual, and a bucketed histogram
	// of residual defect counts (<=2, <=4, <=8, <=16, >16). -metrics
	// divides the split counters by afs_mc_full_decodes_total for the
	// live full-vs-residual decode picture.
	residualPeeled   *obs.Counter
	residualResolved *obs.Counter
	residualDecodes  *obs.Counter
	residualDefects  [5]*obs.Counter
}

// flushChunk folds one completed chunk's tally into the shared counters —
// the only obs traffic the engine generates, batch-granular by
// construction.
func (m *mcObs) flushChunk(shard int, trials uint64, t chunkTally) {
	m.chunks.Inc(shard)
	m.trials.Add(shard, trials)
	if t.failures != 0 {
		m.failures.Add(shard, t.failures)
	}
	if t.w0 != 0 {
		m.triageW0.Add(shard, t.w0)
	}
	if t.w1 != 0 {
		m.triageW1.Add(shard, t.w1)
	}
	if t.w2 != 0 {
		m.triageW2.Add(shard, t.w2)
	}
	if t.multi != 0 {
		m.triageMulti.Add(shard, t.multi)
	}
	if t.full != 0 {
		m.fullDecode.Add(shard, t.full)
	}
	if t.bpFast != 0 {
		m.bitplaneFast.Add(shard, t.bpFast)
	}
	if t.bpGathered != 0 {
		m.bitplaneGathered.Add(shard, t.bpGathered)
	}
	if t.peeled != 0 {
		m.residualPeeled.Add(shard, t.peeled)
	}
	if t.peelResolved != 0 {
		m.residualResolved.Add(shard, t.peelResolved)
	}
	if t.residual != 0 {
		m.residualDecodes.Add(shard, t.residual)
		for i, n := range t.resHist {
			if n != 0 {
				m.residualDefects[i].Add(shard, n)
			}
		}
	}
}

var (
	engineObs = func() *mcObs {
		reg := obs.Default()
		const s = obs.DefaultShards
		return &mcObs{
			points:      reg.NewCounter("afs_mc_points_total", "(d, p) measurement points started", s),
			chunks:      reg.NewCounter("afs_mc_chunks_total", "trial chunks run by workers", s),
			trials:      reg.NewCounter("afs_mc_trials_total", "Monte-Carlo trials executed", s),
			failures:    reg.NewCounter("afs_mc_failures_total", "logical failures observed", s),
			earlyStops:  reg.NewCounter("afs_mc_early_stops_total", "points stopped early by the Wilson-CI rule", s),
			triageW0:    reg.NewCounter("afs_mc_triage_w0_total", "trials resolved by the weight-0 fast path", s),
			triageW1:    reg.NewCounter("afs_mc_triage_w1_total", "trials resolved by the weight-1 closed form", s),
			triageW2:    reg.NewCounter("afs_mc_triage_w2_total", "trials resolved by the weight-2 closed form", s),
			triageMulti: reg.NewCounter("afs_mc_triage_multi_total", "weight >= 3 trials resolved without a decoder walk (lane classes or peel)", s),
			fullDecode:  reg.NewCounter("afs_mc_full_decodes_total", "trials decoded by the full pipeline", s),
			bitplaneFast: reg.NewCounter("afs_mc_bitplane_fast_lanes_total",
				"trial lanes resolved by bit-plane algebra without gathering", s),
			bitplaneGathered: reg.NewCounter("afs_mc_bitplane_gathered_lanes_total",
				"trial lanes gathered from planes into the scalar decode path", s),
			residualPeeled: reg.NewCounter("afs_mc_residual_peeled_components_total",
				"certified components peeled off punted syndromes", s),
			residualResolved: reg.NewCounter("afs_mc_residual_peel_resolved_total",
				"punted trials fully resolved by partial-residual peeling", s),
			residualDecodes: reg.NewCounter("afs_mc_residual_decodes_total",
				"full decodes that ran on a strictly smaller peeled residual", s),
			residualDefects: [5]*obs.Counter{
				reg.NewCounter("afs_mc_residual_defects_le2_total", "residual decodes with <=2 defects", s),
				reg.NewCounter("afs_mc_residual_defects_le4_total", "residual decodes with 3-4 defects", s),
				reg.NewCounter("afs_mc_residual_defects_le8_total", "residual decodes with 5-8 defects", s),
				reg.NewCounter("afs_mc_residual_defects_le16_total", "residual decodes with 9-16 defects", s),
				reg.NewCounter("afs_mc_residual_defects_gt16_total", "residual decodes with >16 defects", s),
			},
		}
	}()
	mcObsShardSeq atomic.Uint32
)

func nextMCShard() int { return int(mcObsShardSeq.Add(1) - 1) }
