package afs

import (
	"math"
	"testing"
)

func TestEngineBasics(t *testing.T) {
	e := New(5)
	if e.Distance() != 5 || e.Rounds() != 5 {
		t.Fatalf("engine dims: d=%d rounds=%d", e.Distance(), e.Rounds())
	}
	if e.NumDataQubits() != 41 || e.NumAncillas() != 20 {
		t.Fatalf("qubit counts: %d data, %d ancilla", e.NumDataQubits(), e.NumAncillas())
	}
	e2 := New(5, WithRounds(1))
	if e2.Rounds() != 1 {
		t.Fatal("WithRounds ignored")
	}
	e3 := New(5, WithWindow())
	if !e3.Graph().TimeBoundary {
		t.Fatal("WithWindow ignored")
	}
}

func TestSampleDecodeRoundTrip(t *testing.T) {
	e := New(7)
	sp := e.NewSampler(5e-3, 42)
	var sy Syndrome
	decoded := 0
	for i := 0; i < 500; i++ {
		sp.Sample(&sy)
		res := e.Decode(&sy)
		if !res.Checked {
			t.Fatal("sampler syndromes must carry ground truth")
		}
		if res.LatencyNS < 0 {
			t.Fatal("negative latency")
		}
		if sy.Weight() > 0 {
			decoded++
			if res.LatencyNS == 0 {
				t.Fatal("non-trivial syndrome decoded in zero time")
			}
		}
		if res.GrGenNS+res.DFSNS+res.CorrNS < res.LatencyNS-1e-9 {
			t.Fatal("stage breakdown inconsistent with exposed latency")
		}
	}
	if decoded == 0 {
		t.Fatal("no non-trivial syndromes at p=5e-3")
	}
}

func TestDecodeWithoutGroundTruth(t *testing.T) {
	e := New(5)
	res := e.Decode(&Syndrome{Defects: []int32{e.Graph().VertexID(1, 2, 2)}})
	if res.Checked {
		t.Fatal("hand-built syndrome should not be checked for logical error")
	}
	if len(res.Correction) == 0 {
		t.Fatal("no correction emitted")
	}
}

func TestHeuristicLogicalErrorRate(t *testing.T) {
	// Paper design point: 6e-10 at d=11, p=1e-3.
	got := HeuristicLogicalErrorRate(11, 1e-3)
	if got < 5e-10 || got > 7e-10 {
		t.Fatalf("p_log(11, 1e-3) = %g, paper reports 6e-10", got)
	}
	// Eq. 1 literal check at d=3: 0.15*(40p)^2.
	want := 0.15 * math.Pow(0.04, 2)
	if got := HeuristicLogicalErrorRate(3, 1e-3); math.Abs(got-want) > 1e-12 {
		t.Fatalf("p_log(3,1e-3) = %g, want %g", got, want)
	}
	// Monotone: deeper codes and cleaner qubits are better.
	if HeuristicLogicalErrorRate(13, 1e-3) >= HeuristicLogicalErrorRate(11, 1e-3) {
		t.Fatal("p_log not decreasing in d")
	}
	if HeuristicLogicalErrorRate(11, 1e-4) >= HeuristicLogicalErrorRate(11, 1e-3) {
		t.Fatal("p_log not decreasing in p")
	}
}

func TestMeasureLogicalErrorRateValidation(t *testing.T) {
	if _, err := MeasureLogicalErrorRate(AccuracyConfig{Distance: 1, P: 0.01, Trials: 10}); err == nil {
		t.Fatal("d=1 accepted")
	}
	if _, err := MeasureLogicalErrorRate(AccuracyConfig{Distance: 3, P: 1.5, Trials: 10}); err == nil {
		t.Fatal("p=1.5 accepted")
	}
	if _, err := MeasureLogicalErrorRate(AccuracyConfig{Distance: 3, P: 0.01, Trials: 10, Decoder: "nonsense"}); err == nil {
		t.Fatal("unknown decoder accepted")
	}
	if _, err := MeasureLogicalErrorRate(AccuracyConfig{Distance: 3, P: math.NaN(), Trials: 10}); err == nil {
		t.Fatal("p=NaN accepted")
	}
	if _, err := MeasureLogicalErrorRate(AccuracyConfig{Distance: 3, P: 0.01, Rounds: -3, Trials: 10}); err == nil {
		t.Fatal("rounds=-3 accepted")
	}
	if _, err := MeasureLogicalErrorRate(AccuracyConfig{Distance: 3, P: 0.01, Rounds: -2, Trials: 10, Repeated2D: true}); err == nil {
		t.Fatal("repeated-2D rounds=-2 accepted")
	}
}

func TestMeasureLogicalErrorRateSmoke(t *testing.T) {
	r, err := MeasureLogicalErrorRate(AccuracyConfig{
		Distance: 3, P: 0.02, Trials: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures == 0 {
		t.Fatal("d=3 at p=0.02 must fail sometimes")
	}
	if r.CILow > r.LogicalErrorRate || r.CIHigh < r.LogicalErrorRate {
		t.Fatalf("CI does not bracket rate: %+v", r)
	}
	if r.MeanSyndromeWeight <= 0 {
		t.Fatal("no syndrome weight recorded")
	}
	mw, err := MeasureLogicalErrorRate(AccuracyConfig{
		Distance: 3, P: 0.02, Trials: 20000, Seed: 1, Decoder: MWPM, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mw.Rounds != 1 {
		t.Fatal("rounds override ignored")
	}
}

func TestMeasureLatencyAndCDA(t *testing.T) {
	lat, err := MeasureLatency(LatencyConfig{Distance: 5, P: 1e-3, Trials: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lat.Summary.Mean <= 0 || len(lat.Samples()) != 20000 {
		t.Fatalf("latency result wrong: %+v", lat.Summary)
	}
	if got := lat.UtilGrGen + lat.UtilDFS + lat.UtilCorr; math.Abs(got-1) > 1e-9 {
		t.Fatalf("utilizations sum to %v", got)
	}
	if lat.WithinBudget < 0.999 {
		t.Fatalf("d=5 should almost always meet the budget: %v", lat.WithinBudget)
	}
	cda, err := SimulateCDA(&lat, CDAConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cda.Summary.Mean <= lat.Summary.Mean {
		t.Fatalf("CDA sharing cannot be faster than dedicated: %.2f vs %.2f",
			cda.Summary.Mean, lat.Summary.Mean)
	}
	if cda.MeanSlowdown <= 1 {
		t.Fatalf("slowdown = %v", cda.MeanSlowdown)
	}
	if len(cda.Samples()) == 0 {
		t.Fatal("no CDA samples")
	}
}

func TestMeasureLatencyValidation(t *testing.T) {
	if _, err := MeasureLatency(LatencyConfig{Distance: 1, P: 0.01, Trials: 10}); err == nil {
		t.Fatal("d=1 accepted")
	}
	if _, err := MeasureLatency(LatencyConfig{Distance: 3, P: 0.01}); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := MeasureLatency(LatencyConfig{Distance: 3, P: 1.5, Trials: 10}); err == nil {
		t.Fatal("p=1.5 accepted")
	}
	if _, err := MeasureLatency(LatencyConfig{Distance: 3, P: math.NaN(), Trials: 10}); err == nil {
		t.Fatal("p=NaN accepted")
	}
	var empty LatencyResult
	if _, err := SimulateCDA(&empty, CDAConfig{}); err == nil {
		t.Fatal("CDA without breakdowns accepted")
	}
}

func TestMemoryFacade(t *testing.T) {
	q := MemoryPerQubit(11)
	if kb := q.TotalKB(); kb < 8.8 || kb > 9.1 {
		t.Fatalf("per-qubit memory %.2f KB, Table I says 8.95", kb)
	}
	sys := SystemMemory(1000, 11, false)
	if mb := sys.TotalMB(); mb < 9.8 || mb > 10.2 {
		t.Fatalf("system memory %.2f MB, Table II says 9.96", mb)
	}
	if r := CDAMemoryReduction(1000, 11); r < 3.2 || r > 3.6 {
		t.Fatalf("CDA reduction %.2f, paper says 3.5x", r)
	}
}

func TestBandwidthFacade(t *testing.T) {
	if got := RequiredBandwidthGbps(1000, 11, 400); got != 550 {
		t.Fatalf("bandwidth = %v, paper says 550 Gbps", got)
	}
	if got := SyndromeBitsPerRound(1000, 11); got != 220000 {
		t.Fatalf("bits/round = %v", got)
	}
	if got := CompressedBandwidthGbps(1000, 11, 400, 10); got != 55 {
		t.Fatalf("compressed = %v", got)
	}
}

func TestMeasureCompressionSmoke(t *testing.T) {
	r, err := MeasureCompression(CompressionConfig{Distance: 5, P: 1e-3, Trials: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames != 500*5 {
		t.Fatalf("frames = %d, want %d", r.Frames, 500*5)
	}
	if r.MeanRatio < 1 {
		t.Fatalf("hybrid ratio %v < 1", r.MeanRatio)
	}
	if r.MeanRatio+1e-9 < r.MeanRatioDZC || r.MeanRatio+1e-9 < r.MeanRatioSparse ||
		r.MeanRatio+1e-9 < r.MeanRatioGeo {
		t.Fatalf("hybrid worse than a component scheme: %+v", r)
	}
	if _, err := MeasureCompression(CompressionConfig{Distance: 1, P: 0.01, Trials: 5}); err == nil {
		t.Fatal("d=1 accepted")
	}
	if _, err := MeasureCompression(CompressionConfig{Distance: 3, P: 0.01}); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestDecoderKinds(t *testing.T) {
	// All four decoders measurable on a d=3 cycle; LUT/hierarchical agree
	// in order of magnitude with Union-Find.
	var rates []float64
	for _, kind := range []DecoderKind{UnionFind, MWPM, Hierarchical, LUT} {
		r, err := MeasureLogicalErrorRate(AccuracyConfig{
			Distance: 3, P: 0.02, Trials: 30000, Seed: 21, Decoder: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r.Failures == 0 {
			t.Fatalf("%s: no failures at d=3, p=0.02", kind)
		}
		rates = append(rates, r.LogicalErrorRate)
	}
	for i, r := range rates {
		if r < rates[0]/3 || r > rates[0]*3 {
			t.Fatalf("decoder %d rate %g wildly off union-find's %g", i, r, rates[0])
		}
	}
	// LUT must refuse codes it cannot table.
	if _, err := MeasureLogicalErrorRate(AccuracyConfig{
		Distance: 11, P: 1e-3, Trials: 10, Decoder: LUT}); err == nil {
		t.Fatal("LUT at d=11 accepted")
	}
}

// TestMWPMGreedyFallbacksReported: at 3-D d=5, p=0.02 some trials leave
// MWPM more than its 20 exact-matching defects, and the result counts
// them, the same count at every worker count (two chunks here). Union-Find
// has no fallback and reports 0.
func TestMWPMGreedyFallbacksReported(t *testing.T) {
	var counts []uint64
	for _, w := range []int{1, 2} {
		r, err := MeasureLogicalErrorRate(AccuracyConfig{
			Distance: 5, P: 0.02, Trials: 2048, Seed: 77, Decoder: MWPM, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, r.GreedyFallbacks)
	}
	if counts[0] == 0 || counts[0] != counts[1] {
		t.Fatalf("MWPM greedy fallbacks at 1 and 2 workers: %v, want equal and nonzero", counts)
	}
	uf, err := MeasureLogicalErrorRate(AccuracyConfig{
		Distance: 5, P: 0.02, Trials: 2048, Seed: 77, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if uf.GreedyFallbacks != 0 {
		t.Fatalf("Union-Find reports %d greedy fallbacks", uf.GreedyFallbacks)
	}
}

func TestRepeated2DFacade(t *testing.T) {
	r, err := MeasureLogicalErrorRate(AccuracyConfig{
		Distance: 5, P: 0.01, Trials: 5000, Seed: 6, Repeated2D: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures == 0 {
		t.Fatal("repeated-2D at p=1e-2 should fail visibly")
	}
}
