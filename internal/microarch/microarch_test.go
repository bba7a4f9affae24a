package microarch

import (
	"math"
	"reflect"
	"testing"

	"afs/internal/core"
	"afs/internal/stats"
)

func TestLatencyEquations(t *testing.T) {
	// One cluster grown for 2 full-edge iterations with 5 vertices, one
	// cluster grown 1 iteration with 2 vertices.
	st := &core.DecodeStats{Clusters: []core.ClusterStat{
		{Vertices: 5, GrowthSteps: 4}, // 4 half-steps = 2 iterations
		{Vertices: 2, GrowthSteps: 1}, // 1 half-step = 1 iteration
	}}
	m := Model{}
	b := m.Latency(st)
	a := AccessNS * SequentialReads
	// Eq. 2: (1+4) + (1) = 6 ops.
	if want := 6 * a; !almost(b.GrGen, want) {
		t.Errorf("GrGen = %v, want %v", b.GrGen, want)
	}
	// Eq. 3: 7 ops each.
	if want := 7 * a; !almost(b.DFS, want) || !almost(b.Corr, want) {
		t.Errorf("DFS/Corr = %v/%v, want %v", b.DFS, b.Corr, want)
	}
	// Pipelined: GG + DFS + last cluster's peel (2 vertices).
	if want := 6*a + 7*a + 2*a; !almost(b.Exposed, want) {
		t.Errorf("Exposed = %v, want %v", b.Exposed, want)
	}
	// Unpipelined ablation exposes the full CORR time.
	b2 := Model{DisablePipeline: true}.Latency(st)
	if want := 6*a + 7*a + 7*a; !almost(b2.Exposed, want) {
		t.Errorf("unpipelined Exposed = %v, want %v", b2.Exposed, want)
	}
	// Half-edge ablation: Eq. 2 over 4 and 1 steps.
	b3 := Model{HalfEdgeGrowthCost: true}.Latency(st)
	if want := float64(1+4+9+16+1) * a; !almost(b3.GrGen, want) {
		t.Errorf("half-edge GrGen = %v, want %v", b3.GrGen, want)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySyndromeZeroLatency(t *testing.T) {
	b := Model{}.Latency(&core.DecodeStats{})
	if b.Exposed != 0 || b.GrGen != 0 {
		t.Fatalf("empty decode has nonzero latency: %+v", b)
	}
}

func TestCollectLatenciesBasics(t *testing.T) {
	r := CollectLatencies(CollectConfig{Distance: 5, P: 1e-3, Trials: 5000, Seed: 1, KeepBreakdowns: true})
	if len(r.ExposedNS) != 5000 || len(r.Breakdowns) != 5000 {
		t.Fatalf("sample counts: %d exposed, %d breakdowns", len(r.ExposedNS), len(r.Breakdowns))
	}
	for i, b := range r.Breakdowns {
		if b.Exposed != r.ExposedNS[i] {
			t.Fatalf("breakdown %d inconsistent with exposed series", i)
		}
		if b.Exposed > b.GrGen+b.DFS+b.Corr+1e-9 {
			t.Fatalf("pipelined exposure exceeds serial time: %+v", b)
		}
		if b.GrGen < 0 || b.DFS < 0 || b.Corr < 0 {
			t.Fatalf("negative stage time: %+v", b)
		}
	}
	u := r.Utilization
	if math.Abs(u.GrGen+u.DFS+u.Corr-1) > 1e-9 {
		t.Fatalf("utilization does not sum to 1: %+v", u)
	}
	if r.MeanDefects <= 0 {
		t.Fatal("no defects sampled at p=1e-3")
	}
}

func TestCollectLatenciesDeterministicAcrossWorkerCounts(t *testing.T) {
	a := CollectLatencies(CollectConfig{Distance: 5, P: 1e-3, Trials: 2000, Seed: 9, Workers: 1})
	b := CollectLatencies(CollectConfig{Distance: 5, P: 1e-3, Trials: 2000, Seed: 9, Workers: 1})
	if len(a.ExposedNS) != len(b.ExposedNS) {
		t.Fatal("trial counts differ")
	}
	for i := range a.ExposedNS {
		if a.ExposedNS[i] != b.ExposedNS[i] {
			t.Fatal("same seed, same workers produced different samples")
		}
	}
}

// The full result — every trial's latency and breakdown in trial order,
// the stage sums and the stack high-water marks — must not depend on the
// worker count: chunks, not workers, own the random streams.
func TestCollectLatenciesIndependentOfWorkerCount(t *testing.T) {
	cfg := CollectConfig{Distance: 7, P: 3e-3, Trials: 2000, Seed: 3, KeepBreakdowns: true}
	cfg.Workers = 1
	want := CollectLatencies(cfg)
	for _, w := range []int{2, 3} {
		cfg.Workers = w
		if got := CollectLatencies(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: result differs from workers=1 (mean defects %v vs %v)",
				w, got.MeanDefects, want.MeanDefects)
		}
	}
}

// TestZeroErrorRateZeroLatency: with no faults there is nothing to decode.
func TestZeroErrorRateZeroLatency(t *testing.T) {
	r := CollectLatencies(CollectConfig{Distance: 5, P: 0, Trials: 100, Seed: 1})
	for _, x := range r.ExposedNS {
		if x != 0 {
			t.Fatalf("p=0 produced latency %v", x)
		}
	}
}

// TestLatencyGrowsWithErrorRate: more faults mean more decoding work.
func TestLatencyGrowsWithErrorRate(t *testing.T) {
	lo := CollectLatencies(CollectConfig{Distance: 7, P: 1e-3, Trials: 20000, Seed: 2})
	hi := CollectLatencies(CollectConfig{Distance: 7, P: 1e-2, Trials: 20000, Seed: 2})
	if meanOf(hi.ExposedNS) <= meanOf(lo.ExposedNS) {
		t.Fatalf("latency did not grow with p: %.2f vs %.2f",
			meanOf(hi.ExposedNS), meanOf(lo.ExposedNS))
	}
}

// TestDesignPointCalibration pins the paper's §IV-E numbers: 42 ns mean and
// <150 ns p99.9 at d=11, p=1e-3 (tolerances cover Monte-Carlo noise).
func TestDesignPointCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo calibration test")
	}
	r := CollectLatencies(CollectConfig{Distance: 11, P: 1e-3, Trials: 300000, Seed: 3})
	mean := meanOf(r.ExposedNS)
	if mean < 35 || mean > 50 {
		t.Errorf("mean latency = %.1f ns, paper reports 42 ns", mean)
	}
	if p999 := stats.Percentile(r.ExposedNS, 99.9); p999 > 160 {
		t.Errorf("p99.9 = %.1f ns, paper reports <150 ns", p999)
	}
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
