// Command afs-bench measures the performance of the Monte-Carlo decoding
// pipeline and writes a machine-readable report so every PR leaves a
// perf trajectory behind. It runs:
//
//   - micro benchmarks: ns per steady-state Sample+Decode at the paper's
//     design point (d=11, p=1e-3) and near threshold, plus a heap audit
//     (allocations per operation, which must be zero in steady state);
//   - a shot-kernel benchmark: the Monte-Carlo kernel (PlaneSampler
//     bit-planes, LaneTriage word-parallel classification, heavy-tail
//     gather into weight-class triage and the full decoder) timed
//     single-threaded at the design point, triaged vs untriaged, reporting
//     ns per trial, the per-class triage hit rates, and the speedup over
//     both the untriaged kernel and BENCH_4's scalar micro number;
//   - a bit-plane section: the same kernel's fast/gathered lane split,
//     peel outcomes and a same-run peel ablation, with the speedup over
//     BENCH_5's recorded batch-kernel and BENCH_6's bit-plane numbers;
//   - a macro benchmark: one multi-point accuracy sweep executed twice —
//     through the retained legacy executor (per-point graph builds, static
//     per-worker striping, a join barrier per point) and through the
//     work-stealing engine — reporting trials/sec and the speedup;
//   - a tile heavy-window micro: near-threshold syndromes decoded by the
//     sequential full pipeline and by core.TileDecoder, reporting the
//     wall-clock ratio (informational; bounded by this host's cores) and
//     the deterministic critical-path model speedup. The tile engine is a
//     model-only experiment: no production decode path routes through it;
//   - an early-stopping demonstration: the same sweep with an adaptive
//     CI-driven stop, reporting the fraction of the trial budget saved;
//   - streaming benchmarks: single-stream sliding-window decoding measured
//     on the rebuilt ring-buffer decoder and on the preserved pre-rebuild
//     baseline, interleaved on identical pregenerated rounds so the
//     speedup is an apples-to-apples same-machine number, plus
//     multi-stream StreamEngine fleets (L = 16, 256, 1000; every
//     non-robust engine lane-batches its streams' ready windows) reporting
//     aggregate throughput and scaling efficiency;
//   - a robustness overhead benchmark: the same single-stream workload
//     through the fault-free CRC-framed link with deadline enforcement and
//     backpressure engaged, so the hardening tax is a tracked number;
//   - an observability overhead benchmark: the metric primitives timed in
//     isolation (counter inc, histogram observe, trace emit, registry
//     scrape) and the same single-stream workload interleaved with metrics
//     enabled vs disabled, so the cost of the always-on instrumentation is
//     a tracked number with a <=2% budget.
//
// Usage:
//
//	afs-bench [-out BENCH_10.json] [-trials N] [-workers W] [-quick]
//	          [-ref-tps T] [-ref-label L] [-metrics addr] [-trace file]
//	          [-cpuprofile file] [-memprofile file]
//
// -ref-tps records an externally measured reference throughput (for
// example, the repository's seed commit rebuilt and timed on the same
// machine) so the report can state a before/after speedup with provenance.
// -cpuprofile and -memprofile write pprof profiles covering the whole run,
// so perf work stays profile-guided (see EXPERIMENTS.md for the workflow).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"afs"
	"afs/internal/core"
	"afs/internal/faults"
	"afs/internal/lattice"
	"afs/internal/montecarlo"
	"afs/internal/noise"
	"afs/internal/obs"
	"afs/internal/stream"
)

// report is the schema of BENCH_N.json. Field names are stable: future
// PRs append new files (BENCH_2.json, ...) and diff against old ones.
type report struct {
	BenchVersion int    `json:"bench_version"`
	GeneratedBy  string `json:"generated_by"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Quick        bool   `json:"quick,omitempty"`

	Micro struct {
		DesignPoint  benchPoint `json:"design_point"`   // d=11, p=1e-3
		Threshold    benchPoint `json:"near_threshold"` // d=7, p=2e-2
		SampleOnlyNS float64    `json:"sample_only_ns_per_op"`
	} `json:"micro"`

	// Batch is the Monte-Carlo shot kernel at the design point,
	// single-threaded (workers=1) so ns_per_trial is comparable to the
	// scalar micro numbers across BENCH versions. Through BENCH_10 it
	// timed the scalar batch kernel, since removed.
	Batch struct {
		Distance    int     `json:"d"`
		P           float64 `json:"p"`
		Trials      uint64  `json:"trials"`
		Workers     int     `json:"workers"`
		BatchWidth  int     `json:"batch_trials"`
		NSPerTrial  float64 `json:"ns_per_trial"`
		TrialsPerS  float64 `json:"trials_per_sec"`
		UntriagedNS float64 `json:"untriaged_ns_per_trial"`
		// TriageSpeedup isolates the triage layer: fused kernel with
		// weight-class fast paths vs the same kernel decoding every trial
		// in full.
		TriageSpeedup float64 `json:"triage_speedup"`
		// Per-class fractions of all trials. Since BENCH_7, FullFrac counts
		// only decodes of the whole, undecomposed syndrome: the partial-
		// residual peel (core.Triage.PeelResidual) strips certified
		// components off punted syndromes first, and decoder runs on the
		// strictly smaller remainder are ResidualFrac. FullRunsFrac keeps
		// the pre-BENCH_7 semantics (every full-decoder invocation —
		// whole + residual) for cross-version diffs.
		// w0+w1+w2+multi+full+residual sums to 1.
		W0Frac       float64 `json:"triage_w0_frac"`
		W1Frac       float64 `json:"triage_w1_frac"`
		W2Frac       float64 `json:"triage_w2_frac"`
		MultiFrac    float64 `json:"triage_multi_frac"`
		FullFrac     float64 `json:"full_decode_frac"`
		ResidualFrac float64 `json:"residual_decode_frac"`
		FullRunsFrac float64 `json:"full_decoder_runs_frac"`
		// Bench4MicroNS is BENCH_4.json's micro design-point ns/op (the
		// scalar Sample+Decode pipeline this PR set out to beat), and
		// SpeedupVsBench4 the single-thread trials/sec ratio against it.
		Bench4MicroNS   float64 `json:"bench4_micro_ns_per_op"`
		SpeedupVsBench4 float64 `json:"speedup_vs_bench4_micro"`
	} `json:"batch"`

	// BitPlane is the same shot kernel's lane and peel breakdown at the
	// design point, single-threaded. SpeedupVsBench5 divides by BENCH_5's
	// recorded batch ns/trial for the cross-version trajectory.
	BitPlane struct {
		Distance   int     `json:"d"`
		P          float64 `json:"p"`
		Trials     uint64  `json:"trials"`
		Workers    int     `json:"workers"`
		LaneWidth  int     `json:"lane_width"`
		NSPerTrial float64 `json:"ns_per_trial"`
		TrialsPerS float64 `json:"trials_per_sec"`
		// Fractions of executed trials resolved straight from plane algebra
		// vs gathered into the scalar triage/decoder path (sum to 1).
		FastFrac     float64 `json:"bitplane_fast_frac"`
		GatheredFrac float64 `json:"bitplane_gathered_frac"`
		// Triage-class fractions of executed trials, split exactly like the
		// batch section's (FullFrac = whole undecomposed decodes only,
		// ResidualFrac = decoder runs on a peeled residual, FullRunsFrac =
		// their sum, the pre-BENCH_7 full_decode_frac semantics).
		W0Frac       float64 `json:"triage_w0_frac"`
		W1Frac       float64 `json:"triage_w1_frac"`
		W2Frac       float64 `json:"triage_w2_frac"`
		MultiFrac    float64 `json:"triage_multi_frac"`
		FullFrac     float64 `json:"full_decode_frac"`
		ResidualFrac float64 `json:"residual_decode_frac"`
		FullRunsFrac float64 `json:"full_decoder_runs_frac"`

		// Partial-residual peel outcomes over the measured run: punted
		// trials the peel resolved outright, components peeled, and the
		// defect-count histogram of decoded residuals (<=2, <=4, <=8,
		// <=16, >16 defects).
		PeelResolvedFrac float64   `json:"peel_resolved_frac"`
		PeeledComponents uint64    `json:"peeled_components"`
		ResidualHist     [5]uint64 `json:"residual_defects_hist"`

		Bench5BatchNS   float64 `json:"bench5_batch_ns_per_trial"`
		SpeedupVsBench5 float64 `json:"speedup_vs_bench5_batch"`

		// Same-run peel ablation: the identical kernel with DisablePeel
		// (the BENCH_6 routing — punted lanes decode whole), interleaved
		// with the peeled kernel in alternating slices so machine drift
		// cancels in the ratio. PeelNS/NoPeelNS are the interleaved
		// measurements; Bench6BitPlaneNS is BENCH_6's recorded ns/trial
		// for the cross-version trajectory.
		PeelNS           float64 `json:"peel_ns_per_trial_same_run"`
		NoPeelNS         float64 `json:"nopeel_ns_per_trial_same_run"`
		PeelSpeedup      float64 `json:"peel_speedup_same_run"`
		Bench6BitPlaneNS float64 `json:"bench6_bitplane_ns_per_trial"`
		SpeedupVsBench6  float64 `json:"speedup_vs_bench6_bitplane"`
	} `json:"bitplane"`

	// Tile is the heavy-window micro: near-threshold syndromes at
	// d ∈ {11, 17, 21} decoded by the sequential full pipeline and by the
	// tile-parallel Union-Find engine on the same pregenerated syndrome
	// set, interleaved. Two speedups are reported per point: the measured
	// wall-clock ratio (bounded by this host's cores — informational) and
	// the deterministic critical-path model speedup (sequential work units
	// over slowest-tile-plus-reconciliation units, the gain a decoder with
	// one growth unit per tile realizes; bit-identical across hosts and
	// worker counts, and what the CI perf floor pins at d=21).
	Tile struct {
		Points []tilePoint `json:"points"`
	} `json:"tile_heavy_window"`

	Macro struct {
		Distances       []int     `json:"distances"`
		Ps              []float64 `json:"ps"`
		TrialsPerPoint  uint64    `json:"trials_per_point"`
		Workers         int       `json:"workers"`
		ChunkTrials     uint64    `json:"chunk_trials"`
		LegacySecs      float64   `json:"legacy_sequential_secs"`
		LegacyTPS       float64   `json:"legacy_sequential_trials_per_sec"`
		EngineSecs      float64   `json:"engine_secs"`
		EngineTPS       float64   `json:"engine_trials_per_sec"`
		SpeedupVsLegacy float64   `json:"speedup_vs_legacy"`
	} `json:"macro"`

	EarlyStop struct {
		Distances       []int     `json:"distances"`
		Ps              []float64 `json:"ps"`
		StopRelCI       float64   `json:"stop_rel_ci"`
		TrialsRequested uint64    `json:"trials_requested"`
		TrialsExecuted  uint64    `json:"trials_executed"`
		PointsStopped   int       `json:"points_stopped"`
		Points          int       `json:"points"`
		SavingsFactor   float64   `json:"savings_factor"`
		Secs            float64   `json:"secs"`
	} `json:"early_stop"`

	Stream struct {
		Distance int     `json:"d"`
		P        float64 `json:"p"`
		Window   int     `json:"window_rounds"`

		// Single-stream steady-state throughput, baseline vs rebuilt,
		// interleaved in alternating segments over identical rounds.
		SingleRounds        uint64  `json:"single_stream_rounds"`
		Segments            int     `json:"interleaved_segments"`
		BaselineRoundsPerS  float64 `json:"baseline_rounds_per_sec"`
		RebuiltRoundsPerS   float64 `json:"rebuilt_rounds_per_sec"`
		SpeedupVsBaseline   float64 `json:"rebuilt_speedup_vs_baseline"`
		PushAllocsPerOp     float64 `json:"steady_state_push_allocs_per_op"`
		BaselineAllocsPerOp float64 `json:"baseline_push_allocs_per_op"`

		// Robust path: the identical single-stream workload carried over the
		// fault-free CRC-framed link with deadline enforcement and
		// backpressure on, interleaved against the plain rebuilt decoder.
		RobustRoundsPerS  float64 `json:"robust_rounds_per_sec"`
		RobustOverhead    float64 `json:"robust_overhead_vs_rebuilt"` // 1 - robust/plain
		RobustAllocsPerOp float64 `json:"robust_push_allocs_per_op"`
		// Same workload with the CRC encode/verify/parse round-trip forced on
		// every round (the cost the link pays while faults are actually
		// firing); informational.
		FramedRoundsPerS float64 `json:"robust_framed_rounds_per_sec"`

		// Multi-stream fleets through afs.StreamEngine (sampling included).
		Fleet []fleetPoint `json:"fleet"`
		// Aggregate throughput at L=256 over L=16, normalized by the ideal
		// parallel-capacity ratio min(L,procs)/min(16,procs); 1.0 = linear.
		ScalingEfficiency float64 `json:"scaling_efficiency_16_to_256"`
	} `json:"stream"`

	// Obs records the observability layer's cost: the primitives in
	// isolation, a registry scrape, and the instrumented single-stream
	// workload A/B'd against the same decoder with metrics disabled. The
	// acceptance budget for ObsOverhead is 2%.
	Obs struct {
		CounterIncNSPerOp  float64 `json:"counter_inc_ns_per_op"`
		HistObserveNSPerOp float64 `json:"histogram_observe_ns_per_op"`
		TraceEmitNSPerOp   float64 `json:"trace_emit_ns_per_op"`
		RegistrySnapshotNS float64 `json:"registry_snapshot_ns"`
		// Fault-free (plain sliding-window) configuration — the BENCH_3
		// baseline shape — instrumented vs uninstrumented.
		ObsOnRoundsPerS  float64 `json:"stream_obs_on_rounds_per_sec"`
		ObsOffRoundsPerS float64 `json:"stream_obs_off_rounds_per_sec"`
		ObsOverhead      float64 `json:"obs_overhead_vs_disabled"` // 1 - on/off
		// Robust (deadline + bounded-queue) configuration, which also pays
		// for the window-cost and queue-lag histograms.
		ObsRobustOnRoundsPerS  float64 `json:"stream_obs_robust_on_rounds_per_sec"`
		ObsRobustOffRoundsPerS float64 `json:"stream_obs_robust_off_rounds_per_sec"`
		ObsRobustOverhead      float64 `json:"obs_robust_overhead_vs_disabled"`
		ObsOnAllocsPerOp       float64 `json:"obs_on_push_allocs_per_op"`
	} `json:"obs"`

	Reference *reference `json:"reference,omitempty"`
}

type fleetPoint struct {
	Streams          int     `json:"streams"`
	Workers          int     `json:"workers"`
	RoundsPerStream  uint64  `json:"rounds_per_stream"`
	Secs             float64 `json:"secs"`
	AggRoundsPerSec  float64 `json:"aggregate_stream_rounds_per_sec"`
	PerStreamRPS     float64 `json:"per_stream_rounds_per_sec"`
	CorrectionsTotal uint64  `json:"corrections_committed"`
}

type tilePoint struct {
	Distance      int     `json:"d"`
	P             float64 `json:"p"`
	TileSize      int     `json:"tile_size"`
	Tiles         int     `json:"tiles"`
	Workers       int     `json:"workers"`
	Syndromes     int     `json:"syndromes"`
	MeanDefects   float64 `json:"mean_defects"`
	SeqNSPerOp    float64 `json:"sequential_ns_per_decode"`
	TileNSPerOp   float64 `json:"tile_ns_per_decode"`
	WallSpeedup   float64 `json:"wall_speedup"`
	SeqUnits      int64   `json:"seq_units"`
	CritUnits     int64   `json:"crit_units"`
	ModelSpeedup  float64 `json:"model_critical_path_speedup"`
	TilesTouched  float64 `json:"mean_tiles_touched"`
	BoundaryMerge float64 `json:"mean_boundary_merges"`
}

type benchPoint struct {
	Distance      int     `json:"d"`
	P             float64 `json:"p"`
	NSPerOp       float64 `json:"sample_decode_ns_per_op"`
	AllocsPerOp   float64 `json:"sample_decode_allocs_per_op"`
	ModelNSDecode float64 `json:"hw_model_ns_per_decode"`
}

type reference struct {
	Label         string  `json:"label"`
	TrialsPerSec  float64 `json:"sweep_trials_per_sec"`
	SpeedupVsThis float64 `json:"engine_speedup_vs_reference"`
}

func main() {
	var (
		out      = flag.String("out", "BENCH_10.json", "output report path (\"-\" for stdout only)")
		trialsN  = flag.Uint64("trials", 20000, "Monte-Carlo trials per sweep point")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = all CPUs)")
		quick    = flag.Bool("quick", false, "shrink budgets ~10x for a smoke run")
		refTPS   = flag.Float64("ref-tps", 0, "externally measured reference sweep trials/sec (for before/after)")
		refLabel = flag.String("ref-label", "", "provenance of -ref-tps (e.g. a commit hash)")

		metricsAddr = flag.String("metrics", "", "serve live metrics + pprof on this host:port while benchmarking")
		traceFile   = flag.String("trace", "", "write a Chrome/Perfetto trace of the robust stream benchmark to this file")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (taken after the benchmarks) to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// The profile covers the entire run; a fatal exit (os.Exit) skips
		// these defers, so a failed run leaves no half-written profile
		// masquerading as a complete one.
		defer pprof.StopCPUProfile()
		defer f.Close()
	}

	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "afs-bench: metrics on http://%s/metrics\n", srv.Addr)
	}
	var trace *obs.Trace
	if *traceFile != "" {
		trace = obs.NewTrace(1 << 20)
		defer func() {
			if err := writeTraceFile(*traceFile, trace); err != nil {
				fatal(err)
			}
		}()
	}

	var r report
	r.BenchVersion = 10
	r.GeneratedBy = "cmd/afs-bench"
	r.GoVersion = runtime.Version()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Quick = *quick

	trials := *trialsN
	if *quick {
		trials /= 10
		if trials < 1000 {
			trials = 1000
		}
	}

	fmt.Println("== micro: steady-state Sample+Decode ==")
	r.Micro.DesignPoint = microPoint(11, 1e-3)
	r.Micro.Threshold = microPoint(7, 2e-2)
	r.Micro.SampleOnlyNS = sampleOnly(11, 1e-3)
	fmt.Printf("d=11 p=1e-3: %.0f ns/op, %.2f allocs/op (sample alone %.0f ns)\n",
		r.Micro.DesignPoint.NSPerOp, r.Micro.DesignPoint.AllocsPerOp, r.Micro.SampleOnlyNS)
	fmt.Printf("d=7  p=2e-2: %.0f ns/op, %.2f allocs/op\n",
		r.Micro.Threshold.NSPerOp, r.Micro.Threshold.AllocsPerOp)

	benchBatch(&r, *quick)
	benchBitPlane(&r, *quick)
	benchTile(&r, *quick)

	distances := []int{3, 5, 7, 9, 11}
	ps := []float64{1e-3, 3e-3, 1e-2}
	base := montecarlo.AccuracyConfig{
		Trials:  trials,
		Seed:    42,
		Workers: *workers,
		New: func(g *lattice.Graph) montecarlo.Decoder {
			// SparseShortcut matches the streaming decoders' configuration
			// and speeds the heavy-tail trials the triage layer punts.
			return core.NewDecoder(g, core.Options{LeanStats: true, SparseShortcut: true})
		},
	}
	totalTrials := trials * uint64(len(distances)*len(ps))

	fmt.Printf("\n== macro: %d-point sweep, %d trials/point ==\n", len(distances)*len(ps), trials)
	t0 := time.Now()
	montecarlo.SweepAccuracySequential(base, distances, ps)
	legacySecs := time.Since(t0).Seconds()
	t0 = time.Now()
	montecarlo.SweepAccuracy(base, distances, ps)
	engineSecs := time.Since(t0).Seconds()

	r.Macro.Distances = distances
	r.Macro.Ps = ps
	r.Macro.TrialsPerPoint = trials
	r.Macro.Workers = base.Workers
	r.Macro.ChunkTrials = montecarlo.DefaultChunkTrials
	r.Macro.LegacySecs = legacySecs
	r.Macro.LegacyTPS = float64(totalTrials) / legacySecs
	r.Macro.EngineSecs = engineSecs
	r.Macro.EngineTPS = float64(totalTrials) / engineSecs
	r.Macro.SpeedupVsLegacy = r.Macro.EngineTPS / r.Macro.LegacyTPS
	fmt.Printf("legacy sequential: %8.0f trials/sec (%.2fs)\n", r.Macro.LegacyTPS, legacySecs)
	fmt.Printf("work-stealing engine: %8.0f trials/sec (%.2fs), %.2fx vs legacy\n",
		r.Macro.EngineTPS, engineSecs, r.Macro.SpeedupVsLegacy)

	// Early stopping pays off where a point's rate is high enough that the
	// CI converges long before a generous trial budget runs out, so the
	// demonstration uses near-threshold points with a 10x budget rather
	// than the macro sweep (whose low-rate points never converge at 10%).
	stopDistances := []int{3, 5, 7}
	stopPs := []float64{2e-2, 3e-2}
	stopBudget := trials * 10
	fmt.Printf("\n== early stopping (StopRelCI=0.1, %d trials/point requested) ==\n", stopBudget)
	stopCfg := base
	stopCfg.StopRelCI = 0.1
	stopCfg.Trials = stopBudget
	t0 = time.Now()
	stopped := montecarlo.SweepAccuracy(stopCfg, stopDistances, stopPs)
	r.EarlyStop.Secs = time.Since(t0).Seconds()
	r.EarlyStop.Distances = stopDistances
	r.EarlyStop.Ps = stopPs
	r.EarlyStop.StopRelCI = stopCfg.StopRelCI
	r.EarlyStop.Points = len(stopped)
	for _, res := range stopped {
		r.EarlyStop.TrialsRequested += res.TrialsRequested
		r.EarlyStop.TrialsExecuted += res.Trials
		if res.EarlyStopped {
			r.EarlyStop.PointsStopped++
		}
	}
	if r.EarlyStop.TrialsExecuted > 0 {
		r.EarlyStop.SavingsFactor =
			float64(r.EarlyStop.TrialsRequested) / float64(r.EarlyStop.TrialsExecuted)
	}
	fmt.Printf("executed %d of %d trials (%d/%d points stopped early): %.1fx budget saved\n",
		r.EarlyStop.TrialsExecuted, r.EarlyStop.TrialsRequested,
		r.EarlyStop.PointsStopped, r.EarlyStop.Points, r.EarlyStop.SavingsFactor)

	benchStream(&r, *quick, trace)
	benchObs(&r, *quick)

	if *refTPS > 0 {
		r.Reference = &reference{
			Label:         *refLabel,
			TrialsPerSec:  *refTPS,
			SpeedupVsThis: r.Macro.EngineTPS / *refTPS,
		}
		fmt.Printf("\nvs reference %q (%.0f trials/sec): %.2fx\n",
			*refLabel, *refTPS, r.Reference.SpeedupVsThis)
	}

	if *memProfile != "" {
		runtime.GC() // report reachable steady-state heap, not GC garbage
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "afs-bench: heap profile written to %s\n", *memProfile)
	}

	buf, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out != "-" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nreport written to %s\n", *out)
	} else if _, err := os.Stdout.Write(buf); err != nil {
		// A broken stdout pipe must not masquerade as a successful run.
		fatal(err)
	}
}

// fatal reports err and exits non-zero — a truncated or missing artifact
// must never look like success to a calling script.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "afs-bench:", err)
	os.Exit(1)
}

// writeTraceFile exports tr as Chrome trace-event JSON with every write
// error checked.
func writeTraceFile(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("trace %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace %s: %v", path, err)
	}
	if n := tr.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "afs-bench: trace buffer overflowed, %d events dropped\n", n)
	}
	return nil
}

// microPoint times the full steady-state trial pipeline (sample, decode,
// latency model, logical-error check) through the public Engine API and
// audits its heap behavior.
func microPoint(d int, p float64) benchPoint {
	e := afs.New(d)
	sp := e.NewSampler(p, 7)
	var sy afs.Syndrome
	for i := 0; i < 1000; i++ { // reach steady-state capacities
		sp.Sample(&sy)
		e.Decode(&sy)
	}
	var modelNS float64
	var n int
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp.Sample(&sy)
			r := e.Decode(&sy)
			modelNS += r.LatencyNS
			n++
		}
	})
	allocs := testing.AllocsPerRun(200, func() {
		sp.Sample(&sy)
		e.Decode(&sy)
	})
	return benchPoint{
		Distance:      d,
		P:             p,
		NSPerOp:       float64(res.NsPerOp()),
		AllocsPerOp:   allocs,
		ModelNSDecode: modelNS / float64(n),
	}
}

// bench4MicroNS is BENCH_4.json's micro design-point Sample+Decode cost
// (d=11, p=1e-3, single thread) — the scalar-pipeline number the batched
// kernel is measured against.
const bench4MicroNS = 1145.0

// benchBatch times the shot kernel at the design point, single-threaded,
// triaged vs untriaged, and reports the per-class triage hit rates.
// RunAccuracy at workers=1 runs the kernel on the calling goroutine chunk
// by chunk, so ns_per_trial is a clean single-thread number comparable to
// the micro benchmarks.
func benchBatch(r *report, quick bool) {
	const d, p = 11, 1e-3
	trials := uint64(1 << 21)
	if quick {
		trials = 1 << 18
	}
	cfg := montecarlo.AccuracyConfig{
		Distance: d, P: p, Trials: trials, Seed: 2, Workers: 1,
		New: func(g *lattice.Graph) montecarlo.Decoder {
			return core.NewDecoder(g, core.Options{LeanStats: true, SparseShortcut: true})
		},
	}
	montecarlo.RunAccuracy(cfg) // warm graph/LUT caches and worker state
	t0 := time.Now()
	res := montecarlo.RunAccuracy(cfg)
	secs := time.Since(t0).Seconds()

	ucfg := cfg
	ucfg.DisableTriage = true
	t0 = time.Now()
	montecarlo.RunAccuracy(ucfg)
	usecs := time.Since(t0).Seconds()

	// One consistent denominator for everything derived from the run: the
	// trials actually executed (res.Trials), which the triage tallies
	// partition — TriageFractions guarantees the fractions sum to 1.
	// Requested and executed coincide here (no early stopping), but deriving
	// from the result keeps the report honest if that ever changes.
	n := float64(res.Trials)
	r.Batch.Distance = d
	r.Batch.P = p
	r.Batch.Trials = res.Trials
	r.Batch.Workers = 1
	r.Batch.BatchWidth = montecarlo.BatchTrials
	r.Batch.NSPerTrial = secs * 1e9 / n
	r.Batch.TrialsPerS = n / secs
	r.Batch.UntriagedNS = usecs * 1e9 / n
	r.Batch.TriageSpeedup = r.Batch.UntriagedNS / r.Batch.NSPerTrial
	r.Batch.W0Frac, r.Batch.W1Frac, r.Batch.W2Frac, r.Batch.MultiFrac, r.Batch.FullRunsFrac = res.TriageFractions()
	_, r.Batch.ResidualFrac = res.PeelFractions()
	r.Batch.FullFrac = r.Batch.FullRunsFrac - r.Batch.ResidualFrac
	r.Batch.Bench4MicroNS = bench4MicroNS
	r.Batch.SpeedupVsBench4 = bench4MicroNS / r.Batch.NSPerTrial

	fmt.Printf("\n== shot kernel: sample+triage+decode, d=%d p=%g, workers=1 ==\n", d, p)
	fmt.Printf("triaged:   %6.0f ns/trial (%.2fM trials/sec)\n", r.Batch.NSPerTrial, r.Batch.TrialsPerS/1e6)
	fmt.Printf("untriaged: %6.0f ns/trial, triage speedup %.2fx\n", r.Batch.UntriagedNS, r.Batch.TriageSpeedup)
	fmt.Printf("classes: w0 %.1f%%, w1 %.1f%%, w2 %.1f%%, multi %.1f%%, full %.2f%% whole + %.2f%% residual\n",
		100*r.Batch.W0Frac, 100*r.Batch.W1Frac, 100*r.Batch.W2Frac,
		100*r.Batch.MultiFrac, 100*r.Batch.FullFrac, 100*r.Batch.ResidualFrac)
	fmt.Printf("vs BENCH_4 micro (%.0f ns/op): %.2fx single-thread\n",
		r.Batch.Bench4MicroNS, r.Batch.SpeedupVsBench4)
}

// bench5BatchNS is BENCH_5.json's batch-kernel ns/trial at the design
// point (d=11, p=1e-3, single thread) — the number the bit-plane kernel
// set out to beat.
const bench5BatchNS = 514.58

// bench6BitPlaneNS is BENCH_6.json's bit-plane kernel ns/trial at the
// design point — the number the partial-residual peel is measured against.
const bench6BitPlaneNS = 292.38

// benchBitPlane times the shot kernel again at the design point,
// single-threaded, for its lane split, peel outcomes and the same-run peel
// ablation.
func benchBitPlane(r *report, quick bool) {
	const d, p = 11, 1e-3
	trials := uint64(1 << 21)
	if quick {
		trials = 1 << 18
	}
	cfg := montecarlo.AccuracyConfig{
		Distance: d, P: p, Trials: trials, Seed: 2, Workers: 1,
		New: func(g *lattice.Graph) montecarlo.Decoder {
			return core.NewDecoder(g, core.Options{LeanStats: true, SparseShortcut: true})
		},
	}
	montecarlo.RunAccuracy(cfg) // warm graph/LUT caches and worker state
	t0 := time.Now()
	res := montecarlo.RunAccuracy(cfg)
	secs := time.Since(t0).Seconds()

	n := float64(res.Trials)
	r.BitPlane.Distance = d
	r.BitPlane.P = p
	r.BitPlane.Trials = res.Trials
	r.BitPlane.Workers = 1
	r.BitPlane.LaneWidth = 64
	r.BitPlane.NSPerTrial = secs * 1e9 / n
	r.BitPlane.TrialsPerS = n / secs
	r.BitPlane.FastFrac, r.BitPlane.GatheredFrac = res.BitPlaneFractions()
	r.BitPlane.W0Frac, r.BitPlane.W1Frac, r.BitPlane.W2Frac, r.BitPlane.MultiFrac, r.BitPlane.FullRunsFrac = res.TriageFractions()
	r.BitPlane.PeelResolvedFrac, r.BitPlane.ResidualFrac = res.PeelFractions()
	r.BitPlane.FullFrac = r.BitPlane.FullRunsFrac - r.BitPlane.ResidualFrac
	r.BitPlane.PeeledComponents = res.PeeledComponents
	r.BitPlane.ResidualHist = res.ResidualDefects
	r.BitPlane.Bench5BatchNS = bench5BatchNS
	r.BitPlane.SpeedupVsBench5 = bench5BatchNS / r.BitPlane.NSPerTrial

	// Same-run peel ablation, interleaved in alternating slices: machine-
	// wide drift (thermal, noisy neighbors) moves on multi-millisecond
	// scales, so slices of a few hundred ms make a burst straddle both
	// sides of an A/B pair and cancel in the ratio.
	const reps = 8
	per := res.Trials / reps
	pcfg := cfg
	pcfg.Trials = per
	ncfg := pcfg
	ncfg.DisablePeel = true
	montecarlo.RunAccuracy(ncfg) // warm the ablated side too
	var peelSecs, noPeelSecs float64
	for i := 0; i < reps; i++ {
		t0 = time.Now()
		montecarlo.RunAccuracy(pcfg)
		peelSecs += time.Since(t0).Seconds()
		t0 = time.Now()
		montecarlo.RunAccuracy(ncfg)
		noPeelSecs += time.Since(t0).Seconds()
	}
	r.BitPlane.PeelNS = peelSecs * 1e9 / float64(per*reps)
	r.BitPlane.NoPeelNS = noPeelSecs * 1e9 / float64(per*reps)
	r.BitPlane.PeelSpeedup = r.BitPlane.NoPeelNS / r.BitPlane.PeelNS
	r.BitPlane.Bench6BitPlaneNS = bench6BitPlaneNS
	r.BitPlane.SpeedupVsBench6 = bench6BitPlaneNS / r.BitPlane.NSPerTrial

	fmt.Printf("\n== bit-plane kernel: 64-lane SWAR sample+triage+decode, d=%d p=%g, workers=1 ==\n", d, p)
	fmt.Printf("bit-plane: %6.0f ns/trial (%.2fM trials/sec)\n", r.BitPlane.NSPerTrial, r.BitPlane.TrialsPerS/1e6)
	fmt.Printf("lanes: fast %.1f%%, gathered %.1f%%\n",
		100*r.BitPlane.FastFrac, 100*r.BitPlane.GatheredFrac)
	fmt.Printf("classes: w0 %.1f%%, w1 %.1f%%, w2 %.1f%%, multi %.1f%%, full %.3f%% whole + %.3f%% residual\n",
		100*r.BitPlane.W0Frac, 100*r.BitPlane.W1Frac, 100*r.BitPlane.W2Frac,
		100*r.BitPlane.MultiFrac, 100*r.BitPlane.FullFrac, 100*r.BitPlane.ResidualFrac)
	fmt.Printf("peel: %d components, resolved %.4f%% of trials, residual hist <=2/<=4/<=8/<=16/>16 = %v\n",
		r.BitPlane.PeeledComponents, 100*r.BitPlane.PeelResolvedFrac, r.BitPlane.ResidualHist)
	fmt.Printf("peel ablation same run: %6.0f ns/trial peeled vs %6.0f unpeeled (%.3fx)\n",
		r.BitPlane.PeelNS, r.BitPlane.NoPeelNS, r.BitPlane.PeelSpeedup)
	fmt.Printf("vs BENCH_5 batch (%.0f ns/trial): %.2fx; vs BENCH_6 bit-plane (%.0f ns/trial): %.2fx\n",
		bench5BatchNS, r.BitPlane.SpeedupVsBench5, bench6BitPlaneNS, r.BitPlane.SpeedupVsBench6)
}

// benchTile times the heavy-window micro: the tile-parallel Union-Find
// engine vs the sequential full decoder over the same pregenerated
// near-threshold syndrome sets, interleaved in alternating slices so
// machine drift cancels. Near threshold every window is heavy — many
// multi-defect clusters spanning the lattice — which is exactly the
// traffic a tile-parallel hardware decoder exists for; at the design point
// (p=1e-3) these windows are the <0.1% tail the triage layer cannot
// certify. No production path routes through the tile engine: this micro
// and its model floor are what remain of it.
//
// Wall-clock numbers are honest for this host and therefore bounded by
// GOMAXPROCS (on a single-core runner the tile engine pays its coordination
// overhead with no cores to win back). The transferable number is the model
// critical-path speedup SeqUnits/CritUnits, which is bit-identical across
// hosts and worker counts (test-enforced) and is what the CI floor pins.
func benchTile(r *report, quick bool) {
	const p = 0.03 // near threshold for the phenomenological 3-D graph
	syndromes := 192
	reps := 4
	if quick {
		syndromes, reps = 48, 2
	}
	for _, d := range []int{11, 17, 21} {
		g := lattice.New3D(d, d)
		s := noise.NewSampler(g, p, uint64(9000+d), 1)
		sets := make([][]int32, syndromes)
		var trial noise.Trial
		totalDefects := 0
		for i := range sets {
			s.Sample(&trial)
			sets[i] = append([]int32(nil), trial.Defects...)
			totalDefects += len(sets[i])
		}

		seq := core.NewDecoder(g, core.Options{LeanStats: true})
		td := core.NewTileDecoder(g, core.Options{LeanStats: true}, core.TileConfig{})
		warm := len(sets) / 4
		for i := 0; i < warm; i++ {
			seq.Decode(sets[i])
			td.Decode(sets[i])
		}

		// Diff Totals around the timed region so warm-up decodes do not
		// leak into the model accounting.
		pre := td.Totals()
		var seqSecs, tileSecs float64
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			for _, df := range sets {
				seq.Decode(df)
			}
			seqSecs += time.Since(t0).Seconds()
			t0 = time.Now()
			for _, df := range sets {
				td.Decode(df)
			}
			tileSecs += time.Since(t0).Seconds()
		}
		tot := td.Totals()
		seqUnits := tot.SeqUnits - pre.SeqUnits
		critUnits := tot.CritUnits - pre.CritUnits
		nDecodes := float64(syndromes * reps)

		pt := tilePoint{
			Distance:      d,
			P:             p,
			TileSize:      core.DefaultTileSize,
			Tiles:         tot.Tiles,
			Workers:       runtime.GOMAXPROCS(0),
			Syndromes:     syndromes,
			MeanDefects:   float64(totalDefects) / float64(syndromes),
			SeqNSPerOp:    seqSecs * 1e9 / nDecodes,
			TileNSPerOp:   tileSecs * 1e9 / nDecodes,
			SeqUnits:      seqUnits,
			CritUnits:     critUnits,
			TilesTouched:  float64(tot.TilesTouched-pre.TilesTouched) / nDecodes,
			BoundaryMerge: float64(tot.BoundaryMerges-pre.BoundaryMerges) / nDecodes,
		}
		pt.WallSpeedup = pt.SeqNSPerOp / pt.TileNSPerOp
		if critUnits > 0 {
			pt.ModelSpeedup = float64(seqUnits) / float64(critUnits)
		}
		r.Tile.Points = append(r.Tile.Points, pt)

		fmt.Printf("\n== tile heavy-window micro: d=%d p=%g, %d tiles, %d syndromes (mean %.1f defects) ==\n",
			d, p, pt.Tiles, syndromes, pt.MeanDefects)
		fmt.Printf("sequential: %8.0f ns/decode; tile: %8.0f ns/decode (wall %.2fx at GOMAXPROCS=%d)\n",
			pt.SeqNSPerOp, pt.TileNSPerOp, pt.WallSpeedup, pt.Workers)
		fmt.Printf("model critical path: %d seq units / %d crit units = %.2fx; %.1f tiles touched, %.1f boundary merges per decode\n",
			seqUnits, critUnits, pt.ModelSpeedup, pt.TilesTouched, pt.BoundaryMerge)
	}
}

// benchStream measures the streaming layer at the paper's design point.
func benchStream(r *report, quick bool, trace *obs.Trace) {
	const d = 11
	const p = 1e-3
	r.Stream.Distance = d
	r.Stream.P = p
	r.Stream.Window = d

	// Shared pregenerated rounds: both decoders consume the identical event
	// sequence, and the sampler stays out of the timed region. The pool has
	// to be large enough that cycling it does not distort the window-cost
	// tail — a short pool replays its single worst window far above the
	// tail's natural rate, which overcharges the deadline-degraded path in
	// benchRobust.
	pool := make([][]int32, 1<<16)
	s := noise.NewRoundSampler(d, p, 1234, 1)
	for i := range pool {
		pool[i] = append([]int32(nil), s.SampleRound()...)
	}

	// Many short alternating segments, not a few long ones: machine-wide
	// noise (thermal drift, noisy neighbors, scheduler bursts) moves on
	// multi-millisecond scales, so segments well under a millisecond make
	// any one burst straddle both sides of an A/B pair and cancel in the
	// ratio, even when absolute throughput wobbles between runs.
	segRounds := 2_000
	segments := 600
	if quick {
		segRounds = 200
	}
	r.Stream.SingleRounds = uint64(segRounds * segments / 2)
	r.Stream.Segments = segments

	rebuilt, err := stream.New(d, d, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afs-bench:", err)
		os.Exit(1)
	}
	rebuilt.SetSink(func(stream.Correction) {})
	baseline, err := stream.NewBaseline(d, d, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afs-bench:", err)
		os.Exit(1)
	}

	// Warm both to steady state, then time alternating segments so slow
	// machine-wide drift (thermal, scheduler) hits both sides equally.
	warm := 4 * d
	for i := 0; i < warm; i++ {
		rebuilt.PushLayer(pool[i%len(pool)])
		baseline.PushLayer(pool[i%len(pool)])
	}
	baseline.Flush() // drop warm-up corrections; rebuilt's sink retains none
	var rebuiltSecs, baselineSecs float64
	for seg := 0; seg < segments; seg++ {
		off := seg * segRounds
		if seg%2 == 0 {
			t0 := time.Now()
			for i := 0; i < segRounds; i++ {
				rebuilt.PushLayer(pool[(off+i)%len(pool)])
			}
			rebuiltSecs += time.Since(t0).Seconds()
		} else {
			t0 := time.Now()
			for i := 0; i < segRounds; i++ {
				baseline.PushLayer(pool[(off+i)%len(pool)])
			}
			baselineSecs += time.Since(t0).Seconds()
			baseline.Flush() // keep the retained slice from skewing later segments
		}
	}
	half := float64(segRounds * segments / 2)
	r.Stream.RebuiltRoundsPerS = half / rebuiltSecs
	r.Stream.BaselineRoundsPerS = half / baselineSecs
	r.Stream.SpeedupVsBaseline = r.Stream.RebuiltRoundsPerS / r.Stream.BaselineRoundsPerS

	r.Stream.PushAllocsPerOp = testing.AllocsPerRun(500, func() {
		rebuilt.PushLayer(pool[0])
	})
	r.Stream.BaselineAllocsPerOp = testing.AllocsPerRun(500, func() {
		baseline.PushLayer(pool[0])
	})

	fmt.Printf("\n== streaming: single stream, d=%d p=%g, %d rounds each, interleaved ==\n",
		d, p, int(half))
	fmt.Printf("baseline: %8.0f rounds/sec (%.2f allocs/round)\n",
		r.Stream.BaselineRoundsPerS, r.Stream.BaselineAllocsPerOp)
	fmt.Printf("rebuilt:  %8.0f rounds/sec (%.2f allocs/round), %.2fx vs baseline\n",
		r.Stream.RebuiltRoundsPerS, r.Stream.PushAllocsPerOp, r.Stream.SpeedupVsBaseline)

	benchRobust(r, pool, segRounds, segments, trace)

	// Multi-stream fleets: constant aggregate work (stream-rounds) per
	// point, end to end (per-stream noise sampling included).
	budget := uint64(3_000_000)
	if quick {
		budget = 300_000
	}
	fmt.Printf("\n== streaming: StreamEngine fleets (aggregate %d stream-rounds/point) ==\n", budget)
	for _, L := range []int{16, 256, 1000} {
		rounds := int(budget) / L
		eng, err := afs.NewStreamEngine(afs.StreamEngineConfig{
			Streams: L, Distance: d, P: p, Seed: 99,
			OnCorrection: func(int, afs.StreamCorrection) {},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "afs-bench:", err)
			os.Exit(1)
		}
		eng.RunRounds(2 * d) // warm
		t0 := time.Now()
		eng.RunRounds(rounds)
		secs := time.Since(t0).Seconds()
		agg := float64(rounds) * float64(L) / secs
		r.Stream.Fleet = append(r.Stream.Fleet, fleetPoint{
			Streams:          L,
			Workers:          eng.Workers(),
			RoundsPerStream:  uint64(rounds),
			Secs:             secs,
			AggRoundsPerSec:  agg,
			PerStreamRPS:     agg / float64(L),
			CorrectionsTotal: eng.TotalCorrections(),
		})
		eng.Close()
		fmt.Printf("L=%4d (workers %2d): %9.0f stream-rounds/sec aggregate, %7.0f per stream\n",
			L, r.Stream.Fleet[len(r.Stream.Fleet)-1].Workers, agg, agg/float64(L))
	}
	// Scaling efficiency L=16 -> L=256, against the machine's parallel
	// capacity: with P procs the ideal aggregate ratio is min(256,P)/min(16,P)
	// (1.0 on small machines — aggregate throughput should hold flat).
	procs := runtime.GOMAXPROCS(0)
	ideal := float64(min(256, procs)) / float64(min(16, procs))
	r.Stream.ScalingEfficiency =
		(r.Stream.Fleet[1].AggRoundsPerSec / r.Stream.Fleet[0].AggRoundsPerSec) / ideal
	fmt.Printf("scaling efficiency 16->256: %.2f (1.0 = linear in parallel capacity)\n",
		r.Stream.ScalingEfficiency)
}

// benchRobust times the hardened single-stream path — every round framed
// with CRC-32C and sequence numbers over a fault-free chaos channel, the
// decoder enforcing the 350 ns CDA deadline with a bounded backlog —
// interleaved against a plain rebuilt decoder on the identical rounds, so
// the robustness tax is an apples-to-apples number.
func benchRobust(r *report, pool [][]int32, segRounds, segments int, trace *obs.Trace) {
	const d = 11
	robust, err := stream.New(d, d, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afs-bench:", err)
		os.Exit(1)
	}
	if err := robust.SetRobust(stream.Robust{DeadlineNS: 350, QueueCap: 16}); err != nil {
		fmt.Fprintln(os.Stderr, "afs-bench:", err)
		os.Exit(1)
	}
	robust.SetSink(func(stream.Correction) {})
	if trace != nil {
		// -trace records the hardened stream's window/timeout/shed timeline;
		// the emit cost (~tens of ns per window) rides on the robust side.
		robust.SetTrace(trace, 0)
	}
	plain, err := stream.New(d, d, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afs-bench:", err)
		os.Exit(1)
	}
	plain.SetSink(func(stream.Correction) {})
	ch := faults.NewChannel(d*(d-1), faults.Config{Seed: 5})
	framedCh := faults.NewChannel(d*(d-1), faults.Config{Seed: 5, ForceFraming: true})

	push := func(ev []int32) {
		delivered, erased, pen := ch.Transfer(ev)
		robust.AddPenaltyNS(pen)
		if erased {
			robust.PushErased()
			return
		}
		robust.PushLayer(delivered)
	}
	for i := 0; i < 4*d; i++ { // steady state
		push(pool[i%len(pool)])
		plain.PushLayer(pool[i%len(pool)])
	}
	var robustSecs, plainSecs float64
	for seg := 0; seg < segments; seg++ {
		off := seg * segRounds
		if seg%2 == 0 {
			// Inline rather than via push(): a per-round closure call would
			// be charged to the robust side only and is benchmark
			// scaffolding, not part of the hardened path.
			t0 := time.Now()
			for i := 0; i < segRounds; i++ {
				delivered, erased, pen := ch.Transfer(pool[(off+i)%len(pool)])
				robust.AddPenaltyNS(pen)
				if erased {
					robust.PushErased()
					continue
				}
				robust.PushLayer(delivered)
			}
			robustSecs += time.Since(t0).Seconds()
		} else {
			t0 := time.Now()
			for i := 0; i < segRounds; i++ {
				plain.PushLayer(pool[(off+i)%len(pool)])
			}
			plainSecs += time.Since(t0).Seconds()
		}
	}
	half := float64(segRounds * segments / 2)
	r.Stream.RobustRoundsPerS = half / robustSecs
	plainRPS := half / plainSecs
	r.Stream.RobustOverhead = 1 - r.Stream.RobustRoundsPerS/plainRPS
	r.Stream.RobustAllocsPerOp = testing.AllocsPerRun(500, func() {
		push(pool[0])
	})
	fmt.Printf("robust:   %8.0f rounds/sec (%.2f allocs/round), %.1f%% overhead vs plain\n",
		r.Stream.RobustRoundsPerS, r.Stream.RobustAllocsPerOp, 100*r.Stream.RobustOverhead)
	rep := robust.Report()
	rep.Merge(ch.Report())
	if err := rep.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "afs-bench: fault ledger inconsistent:", err)
		os.Exit(1)
	}

	// The framed variant pays the CRC round-trip on every round — the cost
	// profile while faults are firing.
	framed, err := stream.New(d, d, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afs-bench:", err)
		os.Exit(1)
	}
	if err := framed.SetRobust(stream.Robust{DeadlineNS: 350, QueueCap: 16}); err != nil {
		fmt.Fprintln(os.Stderr, "afs-bench:", err)
		os.Exit(1)
	}
	framed.SetSink(func(stream.Correction) {})
	for i := 0; i < 4*d; i++ {
		delivered, _, pen := framedCh.Transfer(pool[i%len(pool)])
		framed.AddPenaltyNS(pen)
		framed.PushLayer(delivered)
	}
	rounds := segRounds * segments / 2
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		delivered, _, pen := framedCh.Transfer(pool[i%len(pool)])
		framed.AddPenaltyNS(pen)
		framed.PushLayer(delivered)
	}
	r.Stream.FramedRoundsPerS = float64(rounds) / time.Since(t0).Seconds()
	fmt.Printf("framed:   %8.0f rounds/sec (CRC round-trip forced every round)\n",
		r.Stream.FramedRoundsPerS)
}

// benchObs measures what the observability layer costs. The primitives are
// timed in isolation; then the single-stream robust workload — the hottest
// instrumented path — runs interleaved on two identical decoders, one
// built with the metrics sink installed (the default) and one with it
// removed, so the end-to-end overhead is an A/B ratio on the same machine
// in the same minute. The acceptance budget is 2%.
func benchObs(r *report, quick bool) {
	// Primitives on a scratch registry, so the fleet metrics stay clean.
	reg := obs.New()
	c := reg.NewCounter("bench_counter", "scratch", 0)
	h := reg.NewHistogram("bench_hist", "scratch", 0, 800, 40, 0)
	tr := obs.NewTrace(1 << 10)
	ev := obs.Event{TS: 1, Dur: 2, Arg: 3, TID: 0, Kind: obs.EvWindow}
	r.Obs.CounterIncNSPerOp = float64(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc(i)
		}
	}).NsPerOp())
	r.Obs.HistObserveNSPerOp = float64(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(i, float64(i&1023))
		}
	}).NsPerOp())
	r.Obs.TraceEmitNSPerOp = float64(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Emit(ev) // saturates the buffer; drop-counting is the steady state
		}
	}).NsPerOp())
	// One full Prometheus render of the real (instrumented) registry — the
	// cost a scrape imposes, which must be negligible and off the hot path.
	t0 := time.Now()
	if err := obs.Default().WritePrometheus(io.Discard); err != nil {
		fatal(err)
	}
	r.Obs.RegistrySnapshotNS = float64(time.Since(t0).Nanoseconds())

	const d, p = 11, 1e-3
	pool := make([][]int32, 1<<14)
	s := noise.NewRoundSampler(d, p, 4321, 2)
	for i := range pool {
		pool[i] = append([]int32(nil), s.SampleRound()...)
	}
	segRounds, segments := 2_000, 600
	if quick {
		segRounds = 200
	}
	mk := func(enabled, robust bool) *stream.Decoder {
		stream.SetObsEnabled(enabled)
		defer stream.SetObsEnabled(true) // never leave the process uninstrumented
		dec, err := stream.New(d, d, 0)
		if err != nil {
			fatal(err)
		}
		if robust {
			if err := dec.SetRobust(stream.Robust{DeadlineNS: 350, QueueCap: 16}); err != nil {
				fatal(err)
			}
		}
		dec.SetSink(func(stream.Correction) {})
		return dec
	}
	// One instrumented-vs-uninstrumented A/B pass over a given decoder
	// configuration. Two pairs with swapped creation order: an A/A control
	// shows the second-created decoder of a pair runs ~1% faster
	// (allocation locality), so one instrumented and one uninstrumented
	// decoder take each position and the bias cancels in the per-side sums.
	// Every decoder pushes the identical round sequence each segment — same
	// defects, same decode work, so the only difference is instrumentation —
	// and the order within a segment rotates to cancel machine drift.
	abPass := func(robust bool) (onPerS, offPerS float64, first *stream.Decoder) {
		on1, off1 := mk(true, robust), mk(false, robust)
		off2, on2 := mk(false, robust), mk(true, robust)
		decs := []*stream.Decoder{on1, off1, off2, on2}
		onDec := []bool{true, false, false, true}
		for i := 0; i < 4*d; i++ { // steady state
			for _, dec := range decs {
				dec.PushLayer(pool[i%len(pool)])
			}
		}
		var onSecs, offSecs float64
		for seg := 0; seg < segments; seg++ {
			offIdx := seg * segRounds
			run := func(dec *stream.Decoder) float64 {
				t0 := time.Now()
				for i := 0; i < segRounds; i++ {
					dec.PushLayer(pool[(offIdx+i)%len(pool)])
				}
				return time.Since(t0).Seconds()
			}
			for k := 0; k < len(decs); k++ {
				j := (seg + k) % len(decs)
				secs := run(decs[j])
				if onDec[j] {
					onSecs += secs
				} else {
					offSecs += secs
				}
			}
		}
		total := float64(2 * segRounds * segments)
		return total / onSecs, total / offSecs, on1
	}
	var onPlain *stream.Decoder
	r.Obs.ObsOnRoundsPerS, r.Obs.ObsOffRoundsPerS, onPlain = abPass(false)
	r.Obs.ObsOverhead = 1 - r.Obs.ObsOnRoundsPerS/r.Obs.ObsOffRoundsPerS
	r.Obs.ObsRobustOnRoundsPerS, r.Obs.ObsRobustOffRoundsPerS, _ = abPass(true)
	r.Obs.ObsRobustOverhead = 1 - r.Obs.ObsRobustOnRoundsPerS/r.Obs.ObsRobustOffRoundsPerS
	r.Obs.ObsOnAllocsPerOp = testing.AllocsPerRun(500, func() {
		onPlain.PushLayer(pool[0])
	})

	fmt.Printf("\n== observability overhead ==\n")
	fmt.Printf("primitives: counter %.1f ns, histogram %.1f ns, trace emit %.1f ns, scrape %.0f ns\n",
		r.Obs.CounterIncNSPerOp, r.Obs.HistObserveNSPerOp,
		r.Obs.TraceEmitNSPerOp, r.Obs.RegistrySnapshotNS)
	fmt.Printf("fault-free: on %8.0f r/s, off %8.0f r/s, overhead %.2f%% (budget 2%%), %.2f allocs/round\n",
		r.Obs.ObsOnRoundsPerS, r.Obs.ObsOffRoundsPerS, 100*r.Obs.ObsOverhead, r.Obs.ObsOnAllocsPerOp)
	fmt.Printf("robust:     on %8.0f r/s, off %8.0f r/s, overhead %.2f%%\n",
		r.Obs.ObsRobustOnRoundsPerS, r.Obs.ObsRobustOffRoundsPerS, 100*r.Obs.ObsRobustOverhead)
}

func sampleOnly(d int, p float64) float64 {
	g := lattice.Cached3D(d, d)
	s := noise.NewSampler(g, p, 7, 1)
	var trial noise.Trial
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Sample(&trial)
		}
	})
	return float64(res.NsPerOp())
}
