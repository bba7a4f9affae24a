package main

import (
	"math"
	"runtime"
	"time"

	"afs"
	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/lut"
	"afs/internal/microarch"
	"afs/internal/montecarlo"
	"afs/internal/noise"
	"afs/internal/stats"
)

// mcPoint is one Monte-Carlo measurement point. The closed loop calls
// afs.MeasureLogicalErrorRate again and again with trials trials each; call
// i uses seed splitmix(run seed, i).
type mcPoint struct {
	d      int
	p      float64
	trials uint64
}

const mcWorkers = 2

func mcPointFor(workload string, small bool) mcPoint {
	if workload == "mc-threshold" {
		if small {
			return mcPoint{d: 7, p: 0.02, trials: 256}
		}
		return mcPoint{d: 7, p: 0.02, trials: 4096}
	}
	if small {
		return mcPoint{d: 11, p: 1e-3, trials: 2048}
	}
	return mcPoint{d: 11, p: 1e-3, trials: 131072}
}

func (pt mcPoint) call(seed uint64, i, workers int) afs.AccuracyConfig {
	return afs.AccuracyConfig{Distance: pt.d, P: pt.p, Trials: pt.trials, Seed: splitmix(seed, uint64(i)), Workers: workers}
}

// Reference logical error rate of the Union-Find decoder at d=7, p=0.02
// (rounds = d): 16,777,216 trials at seed 0x5eed1234, two workers.
// It measured 343,838 failures, a rate of 0.020494.
const (
	refThresholdTrials   = 16777216
	refThresholdFailures = 343838
)

// checkLevel is the two-sided confidence of the intervals the output
// checks compare (z = 3.89): two 95% intervals of one true rate miss each
// other about once in twenty runs, which a benchmark run hundreds of times
// cannot afford.
const checkLevel = 0.9999

// poissonBound returns the smallest k with P(X > k) < tail for X ~
// Poisson(lambda).
func poissonBound(lambda, tail float64) uint64 {
	term := math.Exp(-lambda)
	cdf := term
	k := uint64(0)
	for 1-cdf >= tail {
		k++
		term *= lambda / float64(k)
		cdf += term
	}
	return k
}

// checkMC verifies a point's measured failures: at threshold the rate's
// interval must overlap the reference interval; at the design point
// (p_L ~ 6e-10) the count must stay under what ten times Eq. (1)'s rate
// allows with probability 1 - 1e-6.
func checkMC(rep *report, pt mcPoint, trials, failures uint64) {
	if pt.p >= 0.01 {
		got := stats.WilsonInterval(failures, trials, checkLevel)
		ref := stats.WilsonInterval(refThresholdFailures, refThresholdTrials, checkLevel)
		if got.Hi < ref.Lo || got.Lo > ref.Hi {
			rep.fail("logical error rate %d/%d, interval [%.5g, %.5g], misses reference [%.5g, %.5g]",
				failures, trials, got.Lo, got.Hi, ref.Lo, ref.Hi)
		}
		return
	}
	bound := poissonBound(10*afs.HeuristicLogicalErrorRate(pt.d, pt.p)*float64(trials), 1e-6)
	if failures > bound {
		rep.fail("%d logical failures in %d trials at the design point exceed bound %d", failures, trials, bound)
	}
}

// mcCall is the outcome of one afs.MeasureLogicalErrorRate call.
type mcCall struct {
	trials, failures uint64
	defects          uint64 // syndrome weight summed over trials
	ns               int64
	err              error
}

// mcLoop runs calls 0, 1, ... until budget has elapsed (at least one
// call), or exactly calls calls when calls > 0.
func mcLoop(pt mcPoint, seed uint64, workers int, budget time.Duration, calls int) []mcCall {
	var out []mcCall
	start := nowNS()
	for i := 0; ; i++ {
		if calls > 0 && i >= calls {
			break
		}
		if calls == 0 && i > 0 && time.Duration(nowNS()-start) >= budget {
			break
		}
		t0 := nowNS()
		r, err := afs.MeasureLogicalErrorRate(pt.call(seed, i, workers))
		c := mcCall{ns: nowNS() - t0, err: err}
		if err == nil {
			c.trials, c.failures = r.Trials, r.Failures
			c.defects = uint64(math.Round(r.MeanSyndromeWeight * float64(r.Trials)))
		}
		out = append(out, c)
	}
	return out
}

// tally sums a loop's calls into the report's op accounting: an errored
// call fails all its trials.
func tallyMC(rep *report, pt mcPoint, calls []mcCall) (trials, failures uint64, ns int64) {
	for _, c := range calls {
		ns += c.ns
		if c.err != nil {
			rep.ops(pt.trials, pt.trials)
			rep.fail("MeasureLogicalErrorRate: %v", c.err)
			continue
		}
		rep.ops(c.trials, 0)
		trials += c.trials
		failures += c.failures
	}
	return trials, failures, ns
}

var keep any // defeats dead-code elimination of timed constructions

// mcSetupOnce builds everything a point constructs before its first trial
// — the closed-cycle graph, its boundary tables and, per worker, the triage
// layer, the Union-Find decoder and the batch sampler — and returns the
// time taken. The graph and its boundary tables are built fresh (not from
// the process caches) so every repetition pays the full cost; the triage
// layer, which would cache the tables it looks up for a fresh graph
// forever, is built on the cached graph whose tables exist already.
func mcSetupOnce(pt mcPoint, workers int) int64 {
	cached := lattice.Cached3D(pt.d, pt.d)
	t0 := nowNS()
	g := lattice.New3D(pt.d, pt.d)
	b := lut.NewBoundary(g)
	cut := g.NorthCutQubits()
	parts := []any{b}
	for w := 0; w < workers; w++ {
		parts = append(parts,
			core.NewTriage(cached),
			core.NewDecoder(g, core.Options{LeanStats: true}),
			noise.NewBatchSampler(g, pt.p, 1, 0, cut))
	}
	keep = parts
	return nowNS() - t0
}

func mcSetupReps(small bool) int {
	if small {
		return 3
	}
	return 31
}

// runMC is the untraced Monte-Carlo workload.
func runMC(cfg config, rep *report) {
	pt := mcPointFor(cfg.workload, cfg.small)
	setup := make([]float64, mcSetupReps(cfg.small))
	for i := range setup {
		setup[i] = float64(mcSetupOnce(pt, mcWorkers))
	}
	rep.set("setup_s", stats.Percentile(setup, 50)/1e9, "s")

	// Warm the process caches (graph, boundary tables) and the allocator on
	// a seed outside the measured sequence.
	if _, err := afs.MeasureLogicalErrorRate(pt.call(^cfg.seed, 0, mcWorkers)); err != nil {
		rep.fail("warm-up: %v", err)
	}
	runtime.GC()

	start := nowNS()
	calls := mcLoop(pt, cfg.seed, mcWorkers, cfg.budget(), cfg.calls)
	wall := nowNS() - start
	trials, failures, _ := tallyMC(rep, pt, calls)
	rep.set("ops_per_s", float64(trials)/(float64(wall)/1e9), "ops/s")
	lat := make([]float64, len(calls))
	for i, c := range calls {
		lat[i] = float64(c.ns) / 1e3
	}
	rep.set("latency_p50_us", stats.Percentile(lat, 50), "us")
	rep.set("latency_p90_us", stats.Percentile(lat, 90), "us")
	checkMC(rep, pt, trials, failures)
	rep.details["failures"] = float64(failures)
	rep.details["input"] = float64(calls[0].defects)
}

// ufTimer is the Factory wrapper's tally: every Union-Find decode the
// kernel runs, timed individually.
type ufTimer struct {
	t       callTimer
	defects uint64
	hist    latHist
}

type timedDecoder struct {
	dec *core.Decoder
	t   *ufTimer
}

func (d *timedDecoder) Decode(defects []int32) []int32 {
	t0 := nowNS()
	corr := d.dec.Decode(defects)
	t1 := nowNS()
	d.t.t.add(t0, t1)
	d.t.hist.add(t1 - t0)
	d.t.defects += uint64(len(defects))
	return corr
}

// traceMC measures the Monte-Carlo layers at pt within budget: set-up
// pieces, untraced loops at two and one workers, a traced single-worker
// kernel whose Factory times every Union-Find decode, a sample-only replay
// of the same chunk streams, and the latency model on a fixed trial set.
func traceMC(cfg config, rep *report, rec *recorder, parent int, pt mcPoint, budget time.Duration, home bool) {
	fam := rec.begin("mc", parent)

	// Set-up pieces, single worker.
	setupSpan := rec.begin("setup", fam)
	var tg, tb, tt, td callTimer
	cached := lattice.Cached3D(pt.d, pt.d)
	reps := mcSetupReps(cfg.small)
	totals := make([]float64, reps)
	for i := 0; i < reps; i++ {
		t0 := nowNS()
		g := lattice.New3D(pt.d, pt.d)
		t1 := nowNS()
		b := lut.NewBoundary(g)
		t2 := nowNS()
		tri := core.NewTriage(cached)
		t3 := nowNS()
		dec := core.NewDecoder(g, core.Options{LeanStats: true})
		t4 := nowNS()
		keep = []any{b, tri, dec}
		tg.add(t0, t1)
		tb.add(t1, t2)
		tt.add(t2, t3)
		td.add(t3, t4)
		totals[i] = float64(t4 - t0)
	}
	tg.record(rec, "lattice.New3D", setupSpan)
	tb.record(rec, "lut.NewBoundary", setupSpan)
	tt.record(rec, "core.NewTriage", setupSpan)
	td.record(rec, "core.NewDecoder", setupSpan)
	rec.end(setupSpan)
	rep.set("setup.graph_ms", stats.Percentile(totals, 50)/1e6, "ms")

	sp := rec.begin("mc.warmup", fam)
	if _, err := afs.MeasureLogicalErrorRate(pt.call(^cfg.seed, 0, mcWorkers)); err != nil {
		rep.fail("warm-up: %v", err)
	}
	runtime.GC()
	rec.end(sp)

	// Untraced reference loops: two workers, then one.
	calls := cfg.calls
	sp = rec.begin("mc.untraced_w2", fam)
	c2 := mcLoop(pt, cfg.seed, mcWorkers, budget/4, calls)
	rec.end(sp)
	tr2, _, ns2 := tallyMC(rep, pt, c2)
	sp = rec.begin("mc.untraced_w1", fam)
	c1 := mcLoop(pt, cfg.seed, 1, budget/4, calls)
	rec.end(sp)
	tr1, fl1, ns1 := tallyMC(rep, pt, c1)
	ops2 := float64(tr2) / (float64(ns2) / 1e9)
	ops1 := float64(tr1) / (float64(ns1) / 1e9)
	rep.set("mc.parallel_eff", ops2/(2*ops1), "ratio")

	// Traced single-worker kernel over exactly the calls c1 ran.
	ut := &ufTimer{}
	factory := func(g *lattice.Graph) montecarlo.Decoder {
		return &timedDecoder{dec: core.NewDecoder(g, core.Options{LeanStats: true}), t: ut}
	}
	before := scrapeObs()
	var kt callTimer
	var trT, flT uint64
	for i := range c1 {
		a := pt.call(cfg.seed, i, 1)
		t0 := nowNS()
		r := montecarlo.RunAccuracy(montecarlo.AccuracyConfig{
			Distance: a.Distance, P: a.P, Trials: a.Trials, Workers: 1, Seed: a.Seed, New: factory,
		})
		kt.add(t0, nowNS())
		rep.ops(r.Trials, 0)
		trT += r.Trials
		flT += r.Failures
		if c1[i].err == nil && (r.Failures != c1[i].failures || r.Trials != c1[i].trials) {
			rep.fail("traced call %d: %d/%d failures, untraced %d/%d", i, r.Failures, r.Trials, c1[i].failures, c1[i].trials)
		}
	}
	after := scrapeObs()
	kernel := kt.record(rec, "mc.kernel", fam)
	ut.t.record(rec, "uf.decode", kernel)
	if trT != tr1 || flT != fl1 {
		rep.fail("traced kernel %d/%d failures, untraced %d/%d", flT, trT, fl1, tr1)
	}

	// Sample-only replay of the same chunk streams: the kernel's draws.
	g := lattice.Cached3D(pt.d, pt.d)
	bs := noise.NewBatchSampler(g, pt.p, 0, 0, g.NorthCutQubits())
	var batch noise.Batch
	var defects uint64
	sampleSpan := rec.begin("noise.sample_pass", fam)
	for i := range c1 {
		defects += sampleCall(bs, &batch, pt, splitmix(cfg.seed, uint64(i)), 0)
	}
	sampleNS := rec.end(sampleSpan)
	rec.aggregate("noise.sample(replayed)", kernel, rec.spans[kernel-1].StartNS, rec.spans[kernel-1].EndNS, int64(len(c1)), sampleNS)
	var wantDefects uint64
	for _, c := range c1 {
		wantDefects += c.defects
	}
	if defects != wantDefects {
		rep.fail("sample-only pass drew %d defects, the kernel %d", defects, wantDefects)
	}

	trials := after.counter("afs_mc_trials_total") - before.counter("afs_mc_trials_total")
	full := delta(before, after, "afs_mc_full_decodes_total")
	if trials != float64(trT) || full != float64(ut.t.calls) {
		rep.fail("counters: %v trials, %v full decodes; traced %d trials, %d decodes", trials, full, trT, ut.t.calls)
	}
	resolved := delta(before, after, "afs_mc_triage_w0_total") + delta(before, after, "afs_mc_triage_w1_total") +
		delta(before, after, "afs_mc_triage_w2_total") + delta(before, after, "afs_mc_triage_multi_total")
	rep.set("noise.sample_ns_per_trial", float64(sampleNS)/float64(trT), "ns")
	rep.set("triage.ns_per_trial", float64(rec.self(kernel))/float64(trT), "ns")
	rep.set("triage.resolved_frac", resolved/trials, "ratio")
	rep.set("peel.residual_frac", delta(before, after, "afs_mc_residual_decodes_total")/trials, "ratio")
	rep.set("uf.decodes_per_trial", full/trials, "ratio")
	rep.set("uf.defects_per_decode", float64(ut.defects)/math.Max(1, float64(ut.t.calls)), "count")
	rep.set("uf.ns_per_decode", float64(ut.t.busy)/math.Max(1, float64(ut.t.calls)), "ns")
	rep.set("uf.ns_per_decode_p99", ut.hist.quantile(0.99), "ns")
	if home {
		opsT := float64(trT) / (float64(kt.busy) / 1e9)
		rep.set("trace.overhead_frac", ops1/opsT-1, "ratio")
		lat := make([]float64, len(c2))
		for i, c := range c2 {
			lat[i] = float64(c.ns) / 1e3
		}
		rep.set("latency_p99_us", stats.Percentile(lat, 99), "us")
		rep.details["failures"] = float64(flT)
	}

	// The paper's latency model (§IV-E) on a fixed trial set — call 0's
	// first chunks — decoded by a full-profile decoder, untimed.
	modelSpan := rec.begin("microarch.model_pass", fam)
	rep.set("uf.model_ns_mean", modelMean(pt, cfg.seed, cfg.small), "ns")
	rec.end(modelSpan)
	rec.end(fam)
}

// sampleCall draws one call's trials exactly as the kernel does — chunk c
// on stream (seed, c), BatchTrials at a time — and returns their summed
// syndrome weight. limit > 0 caps the trials drawn.
func sampleCall(bs *noise.BatchSampler, b *noise.Batch, pt mcPoint, seed uint64, limit uint64) uint64 {
	n := pt.trials
	if limit > 0 && limit < n {
		n = limit
	}
	var defects uint64
	chunk := uint64(montecarlo.DefaultChunkTrials)
	for c := uint64(0); c*chunk < n; c++ {
		bs.Reseed(seed, c)
		left := min(chunk, n-c*chunk)
		for left > 0 {
			k := min(uint64(montecarlo.BatchTrials), left)
			bs.SampleBatch(b, int(k))
			defects += uint64(len(b.Defects))
			left -= k
		}
	}
	return defects
}

// modelMean returns microarch.Model's mean exposed latency over a fixed set
// of the point's trials.
func modelMean(pt mcPoint, seed uint64, small bool) float64 {
	n := 16384
	if small {
		n = 1024
	}
	g := lattice.Cached3D(pt.d, pt.d)
	bs := noise.NewBatchSampler(g, pt.p, 0, 0, g.NorthCutQubits())
	dec := core.NewDecoder(g, core.Options{})
	var m microarch.Model
	var b noise.Batch
	var sum float64
	chunk := montecarlo.DefaultChunkTrials
	s0 := splitmix(seed, 0)
	for c := 0; c*chunk < n; c++ {
		bs.Reseed(s0, uint64(c))
		for done := 0; done < chunk && c*chunk+done < n; done += montecarlo.BatchTrials {
			bs.SampleBatch(&b, montecarlo.BatchTrials)
			for i := 0; i < b.K; i++ {
				dec.Decode(b.TrialDefects(i))
				sum += m.Latency(&dec.Stats).Exposed
			}
		}
	}
	return sum / float64(n)
}
