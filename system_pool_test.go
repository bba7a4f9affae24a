package afs

import (
	"math"
	"testing"
)

func TestLogicalQubitDecodesBothBases(t *testing.T) {
	q := NewLogicalQubit(5)
	if q.Distance() != 5 {
		t.Fatalf("distance = %d", q.Distance())
	}
	if q.Engine(XErrors) == q.Engine(ZErrors) {
		t.Fatal("bases must not share a decoder engine")
	}
	sp := q.NewSampler(0.01, 3)
	var x, z Syndrome
	decoded := 0
	for i := 0; i < 200; i++ {
		sp.Sample(&x, &z)
		res := q.DecodeCycle(&x, &z)
		if res.LatencyNS < res.X.LatencyNS || res.LatencyNS < res.Z.LatencyNS {
			t.Fatal("cycle latency must be the max of the two bases")
		}
		if x.Weight()+z.Weight() > 0 {
			decoded++
		}
		if !res.X.Checked || !res.Z.Checked {
			t.Fatal("sampled syndromes must carry ground truth")
		}
	}
	if decoded == 0 {
		t.Fatal("no syndromes sampled at p=0.01")
	}
	if kb := q.Memory().TotalKB(); kb < 0.5 || kb > 0.6 {
		t.Fatalf("d=5 memory = %.2f KB", kb)
	}
}

func TestErrorTypeString(t *testing.T) {
	if XErrors.String() != "X" || ZErrors.String() != "Z" {
		t.Fatal("error type names wrong")
	}
}

func TestSummarize(t *testing.T) {
	e := New(5)
	sp := e.NewSampler(0.02, 9)
	var sy Syndrome
	for i := 0; i < 100; i++ {
		sp.Sample(&sy)
		res := e.Decode(&sy)
		s := e.Summarize(res)
		if s.DataFixes+s.MeasurementFlags != len(res.Correction) {
			t.Fatalf("summary %+v does not cover %d edges", s, len(res.Correction))
		}
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{LogicalQubits: 0, Distance: 5, P: 0.01}); err == nil {
		t.Fatal("empty system accepted")
	}
	if _, err := NewSystem(SystemConfig{LogicalQubits: 2, Distance: 1, P: 0.01}); err == nil {
		t.Fatal("d=1 accepted")
	}
	if _, err := NewSystem(SystemConfig{LogicalQubits: 2, Distance: 3, P: 2}); err == nil {
		t.Fatal("p=2 accepted")
	}
	if _, err := NewSystem(SystemConfig{LogicalQubits: 2, Distance: 3, P: math.NaN()}); err == nil {
		t.Fatal("p=NaN accepted")
	}
}

func TestSystemRunCycles(t *testing.T) {
	sys, err := NewSystem(SystemConfig{
		LogicalQubits: 8, Distance: 3, P: 0.02, Seed: 5, Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Size() != 8 {
		t.Fatalf("size = %d", sys.Size())
	}
	errs := sys.RunCycles(500)
	if sys.Cycles != 8*500 {
		t.Fatalf("cycles = %d", sys.Cycles)
	}
	if errs == 0 || sys.LogicalErrors != errs {
		t.Fatalf("d=3 fleet at p=0.02 must fail sometimes: %d", errs)
	}
	ler := sys.LogicalErrorRate()
	// Per-cycle failure odds for d=3 at p=0.02 are ~1% per basis.
	if ler < 1e-3 || ler > 0.2 {
		t.Fatalf("fleet LER = %g implausible", ler)
	}
	if sys.MeanLatencyNS() <= 0 || sys.MaxLatencyNS() < sys.MeanLatencyNS() {
		t.Fatalf("latency accounting broken: mean %.1f max %.1f",
			sys.MeanLatencyNS(), sys.MaxLatencyNS())
	}
	if mb := sys.Memory().TotalMB(); mb <= 0 {
		t.Fatalf("fleet memory = %v", mb)
	}
	// A second run accumulates.
	sys.RunCycles(100)
	if sys.Cycles != 8*600 {
		t.Fatalf("cycles after second run = %d", sys.Cycles)
	}
}

func TestSystemDeterministicAcrossWorkerCounts(t *testing.T) {
	type outcome struct {
		errs          uint64
		meanNS, maxNS float64
	}
	run := func(workers int) outcome {
		sys, err := NewSystem(SystemConfig{
			LogicalQubits: 6, Distance: 3, P: 0.02, Seed: 11, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.RunCycles(400)
		return outcome{sys.LogicalErrors, sys.MeanLatencyNS(), sys.MaxLatencyNS()}
	}
	// Each qubit owns an independent seeded stream and its tallies merge
	// in qubit order, so neither the failure count nor the latency
	// statistics may depend on how qubits are spread over workers.
	if a, b := run(1), run(4); a != b {
		t.Fatalf("worker count changed results: %+v vs %+v", a, b)
	}
}

func TestStreamEngineValidation(t *testing.T) {
	if _, err := NewStreamEngine(StreamEngineConfig{Streams: 0, Distance: 5, P: 0.01}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewStreamEngine(StreamEngineConfig{Streams: 2, Distance: 1, P: 0.01}); err == nil {
		t.Fatal("d=1 accepted")
	}
	if _, err := NewStreamEngine(StreamEngineConfig{Streams: 2, Distance: 5, P: 2}); err == nil {
		t.Fatal("p=2 accepted")
	}
	if _, err := NewStreamEngine(StreamEngineConfig{Streams: 2, Distance: 5, P: math.NaN()}); err == nil {
		t.Fatal("p=NaN accepted")
	}
	eng, err := NewStreamEngine(StreamEngineConfig{Streams: 3, Distance: 5, P: 0.01, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Workers() != 3 || eng.Streams() != 3 {
		t.Fatalf("workers/streams = %d/%d", eng.Workers(), eng.Streams())
	}
}

func TestStreamEngineRunsAndRetains(t *testing.T) {
	eng, err := NewStreamEngine(StreamEngineConfig{
		Streams: 4, Distance: 5, P: 0.01, Seed: 3, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.RunRounds(300)
	eng.Flush()
	if eng.Rounds() != 300 {
		t.Fatalf("rounds = %d", eng.Rounds())
	}
	var sum uint64
	for i := 0; i < eng.Streams(); i++ {
		for _, c := range eng.Committed(i) {
			if c.Round < 0 || c.Round >= 300 {
				t.Fatalf("stream %d correction outside stream: round %d", i, c.Round)
			}
		}
		sum += uint64(len(eng.Committed(i)))
	}
	if sum == 0 || eng.TotalCorrections() != sum {
		t.Fatalf("retained %d corrections, total says %d", sum, eng.TotalCorrections())
	}
}

// TestStreamEngineDeterministicAcrossWorkerCounts is the streaming
// counterpart of the System test above — and a PR acceptance criterion:
// for a fixed seed the fleet's committed corrections must be bit-identical
// no matter how many workers decode it.
func TestStreamEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) [][]StreamCorrection {
		out := make([][]StreamCorrection, 6)
		eng, err := NewStreamEngine(StreamEngineConfig{
			Streams: 6, Distance: 5, P: 0.01, Seed: 11, Workers: workers,
			OnCorrection: func(stream int, c StreamCorrection) {
				out[stream] = append(out[stream], c)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.RunRounds(400)
		eng.Flush()
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 6} {
		got := run(workers)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d stream %d: %d corrections vs %d with workers=1",
					workers, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d stream %d correction %d: %+v vs %+v",
						workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestSystemFleetLERMatchesSingleQubit(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo consistency check")
	}
	sys, err := NewSystem(SystemConfig{
		LogicalQubits: 10, Distance: 3, P: 0.01, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RunCycles(4000)
	fleet := sys.LogicalErrorRate()

	single, err := MeasureLogicalErrorRate(AccuracyConfig{
		Distance: 3, P: 0.01, Trials: 40000, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The fleet decodes both bases, so per-cycle failure odds are ~2x the
	// single-basis rate (independent bases, small rates).
	want := 2 * single.LogicalErrorRate
	if fleet < want/2 || fleet > want*2 {
		t.Fatalf("fleet LER %g vs 2x single-basis %g", fleet, want)
	}
}
