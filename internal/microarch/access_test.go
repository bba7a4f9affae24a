package microarch

import (
	"testing"

	"afs/internal/core"
	"afs/internal/lattice"
	"afs/internal/noise"
)

func TestAccessModelBasics(t *testing.T) {
	g := lattice.New3DWindow(11, 11)
	m := NewAccessModel(g)
	if m.STMRows != (g.V+31)/32 {
		t.Fatalf("STM rows = %d", m.STMRows)
	}
	dec := core.NewDecoder(g, core.Options{})
	s := noise.NewSampler(g, 1e-3, 41, 1)
	var trial noise.Trial
	for i := 0; i < 500; i++ {
		s.Sample(&trial)
		dec.Decode(trial.Defects)
		b := m.Latency(&dec.Stats)
		if b.GrGen < 0 || b.DFS < 0 || b.Corr < 0 {
			t.Fatalf("negative stage latency: %+v", b)
		}
		if len(trial.Defects) == 0 {
			continue
		}
		if b.Exposed <= 0 {
			t.Fatalf("non-trivial decode with zero access latency: %+v", b)
		}
		if b.Exposed > b.GrGen+b.DFS+b.Corr+1e-9 {
			t.Fatalf("pipelined exposure exceeds serial: %+v", b)
		}
	}
}

// TestZDRAblation: without the Zero Data Register the DFS Engine scans the
// whole STM every decode, so its latency must be strictly larger for
// sparse syndromes — and by roughly the full-scan cost.
func TestZDRAblation(t *testing.T) {
	g := lattice.New3DWindow(11, 11)
	withZDR := NewAccessModel(g)
	noZDR := NewAccessModel(g)
	noZDR.DisableZDR = true

	dec := core.NewDecoder(g, core.Options{})
	s := noise.NewSampler(g, 1e-3, 43, 1)
	var trial noise.Trial
	var sumWith, sumWithout float64
	n := 0
	for i := 0; i < 2000; i++ {
		s.Sample(&trial)
		if len(trial.Defects) == 0 {
			continue
		}
		dec.Decode(trial.Defects)
		bw := withZDR.Latency(&dec.Stats)
		bo := noZDR.Latency(&dec.Stats)
		if bo.DFS < bw.DFS {
			t.Fatalf("full scan cheaper than ZDR scan: %+v vs %+v", bo, bw)
		}
		if dec.Stats.TouchedRows > 0 && bo.DFS == bw.DFS {
			t.Fatalf("ZDR made no difference on a %d-row syndrome", dec.Stats.TouchedRows)
		}
		sumWith += bw.Exposed
		sumWithout += bo.Exposed
		n++
	}
	if n == 0 {
		t.Fatal("no non-trivial syndromes")
	}
	meanWith, meanWithout := sumWith/float64(n), sumWithout/float64(n)
	// The d=11 STM has ceil(1210/32) = 38 rows; sparse syndromes touch a
	// handful, so the ablation should cost tens of nanoseconds.
	if meanWithout < meanWith+10 {
		t.Fatalf("ZDR saving implausibly small: %.1f vs %.1f ns", meanWith, meanWithout)
	}
	t.Logf("mean exposed latency: %.1f ns with ZDR, %.1f ns without", meanWith, meanWithout)
}

func TestTouchedRowsCounted(t *testing.T) {
	g := lattice.New3D(5, 5)
	dec := core.NewDecoder(g, core.Options{})
	// A single fault pair in one row region.
	e := g.SpatialEdge(g.HorizontalQubit(1, 1), 2)
	defects := core.SyndromeOf(g, []int32{e})
	dec.Decode(defects)
	if dec.Stats.TouchedRows < 1 || dec.Stats.TouchedRows > 2 {
		t.Fatalf("TouchedRows = %d for an adjacent defect pair", dec.Stats.TouchedRows)
	}
	// Empty syndrome touches nothing.
	dec.Decode(nil)
	if dec.Stats.TouchedRows != 0 {
		t.Fatalf("empty decode touched %d rows", dec.Stats.TouchedRows)
	}
}
