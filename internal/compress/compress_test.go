package compress

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"afs/internal/noise"
	"afs/internal/syndrome"
)

func randomFrame(rng *rand.Rand, n, weight int) noise.Bitset {
	f := noise.NewBitset(n)
	for i := 0; i < weight; i++ {
		f.Set(rng.IntN(n))
	}
	return f
}

func framesEqual(a, b noise.Bitset) bool {
	if a.Len() != b.Len() {
		return false
	}
	eq := true
	a.ForEachSet(func(i int) {
		if !b.Get(i) {
			eq = false
		}
	})
	b.ForEachSet(func(i int) {
		if !a.Get(i) {
			eq = false
		}
	})
	return eq
}

// TestRoundTripAllSchemes: encode/decode must be lossless for every scheme
// and any frame — a decoder fed a corrupted syndrome miscorrects, so this
// is the critical compression invariant.
func TestRoundTripAllSchemes(t *testing.T) {
	for _, d := range []int{3, 5, 11} {
		l := syndrome.NewLayout(d)
		c := New(l, Config{})
		rng := rand.New(rand.NewPCG(uint64(d), 1))
		for trial := 0; trial < 200; trial++ {
			f := randomFrame(rng, l.CombinedBits(), rng.IntN(l.CombinedBits()/2+1))
			for s := DZC; s < numSchemes; s++ {
				enc := append([]byte(nil), c.EncodeScheme(s, f)...)
				var out noise.Bitset
				if err := c.Decode(enc, &out); err != nil {
					t.Fatalf("d=%d scheme %v: decode error: %v", d, s, err)
				}
				if !framesEqual(f, out) {
					t.Fatalf("d=%d scheme %v: roundtrip mismatch (weight %d)", d, s, f.PopCount())
				}
			}
		}
	}
}

// TestRoundTripHybridProperty uses testing/quick over arbitrary frames.
func TestRoundTripHybridProperty(t *testing.T) {
	l := syndrome.NewLayout(7)
	c := New(l, Config{})
	f := func(seed uint64, wRaw uint16) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		frame := randomFrame(rng, l.CombinedBits(), int(wRaw)%l.CombinedBits())
		enc := append([]byte(nil), c.Encode(frame)...)
		var out noise.Bitset
		if err := c.Decode(enc, &out); err != nil {
			return false
		}
		return framesEqual(frame, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodedBitsMatchesSize: the size accounting used for the ratio
// figures must equal the real encoding length.
func TestEncodedBitsMatchesSize(t *testing.T) {
	l := syndrome.NewLayout(9)
	c := New(l, Config{})
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		f := randomFrame(rng, l.CombinedBits(), rng.IntN(20))
		for s := DZC; s < numSchemes; s++ {
			c.EncodeScheme(s, f)
			if got, want := c.EncodedBits(), c.SizeScheme(s, f); got != want {
				t.Fatalf("scheme %v: encoded %d bits, size model says %d", s, got, want)
			}
		}
	}
}

func TestZeroFrameCompressesToMinimum(t *testing.T) {
	l := syndrome.NewLayout(11)
	c := New(l, Config{})
	zero := noise.NewBitset(l.CombinedBits())
	s, size := c.Best(zero)
	if s != Sparse {
		t.Fatalf("zero frame best scheme = %v, want sparse", s)
	}
	if size != selectorBits+1 {
		t.Fatalf("zero frame size = %d bits, want %d", size, selectorBits+1)
	}
}

// TestGeoBeatsDZCOnYErrors: a Y error flips two Z-type and two X-type
// ancillas in the same grid neighborhood (paper Fig. 2c). In the canonical
// bit order the Z pair and the X pair sit d(d-1) bits apart and so occupy
// up to four DZC blocks, while the geometry tiles keep the whole quadruple
// in one or two blocks — the insight behind Geo-Comp (paper §VI-C3).
func TestGeoBeatsDZCOnYErrors(t *testing.T) {
	d := 11
	l := syndrome.NewLayout(d)
	c := New(l, Config{})
	wins, cases := 0, 0
	// Y errors on data qubits at grid (2k, 2col), interior.
	for k := 1; k < d-1; k++ {
		for col := 1; col < d-1; col++ {
			f := noise.NewBitset(l.CombinedBits())
			f.Set(l.ZBit(k-1, col))
			f.Set(l.ZBit(k, col))
			f.Set(l.XBit(k, col-1))
			f.Set(l.XBit(k, col))
			cases++
			if c.SizeScheme(Geo, f) < c.SizeScheme(DZC, f) {
				wins++
			}
		}
	}
	if wins*2 < cases {
		t.Fatalf("geo beat dzc on only %d/%d Y-error quadruples", wins, cases)
	}
}

func TestHybridNeverWorseThanAnyScheme(t *testing.T) {
	l := syndrome.NewLayout(7)
	c := New(l, Config{})
	f := func(seed uint64, wRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		frame := randomFrame(rng, l.CombinedBits(), int(wRaw)%20)
		_, best := c.Best(frame)
		for s := DZC; s < numSchemes; s++ {
			if c.SizeScheme(s, frame) < best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFig15Shape asserts the headline compression results: ~30x at the
// paper's default system point (d=11, p=1e-3), higher compression at lower
// error rates, and ratios spanning roughly 4x-400x over the sweep.
func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo calibration test")
	}
	def := RunExperiment(ExperimentConfig{Distance: 11, P: 1e-3, Trials: 2000, Seed: 9})
	if def.MeanRatioHybrid < 25 || def.MeanRatioHybrid > 50 {
		t.Errorf("hybrid ratio at d=11, p=1e-3 = %.1f, paper reports ~30x", def.MeanRatioHybrid)
	}
	low := RunExperiment(ExperimentConfig{Distance: 11, P: 1e-4, Trials: 2000, Seed: 9})
	if low.MeanRatioHybrid <= def.MeanRatioHybrid {
		t.Errorf("lower p must compress better: %.1f (p=1e-4) vs %.1f (p=1e-3)",
			low.MeanRatioHybrid, def.MeanRatioHybrid)
	}
	small := RunExperiment(ExperimentConfig{Distance: 3, P: 1e-3, Trials: 2000, Seed: 9})
	if small.MeanRatioHybrid > 10 {
		t.Errorf("d=3 ratio = %.1f, expected the low end (~4-6x)", small.MeanRatioHybrid)
	}
}

// The full result must not depend on the worker count: chunks, not
// workers, own the random streams, and partial sums merge in chunk order.
func TestRunExperimentIndependentOfWorkerCount(t *testing.T) {
	cfg := ExperimentConfig{Distance: 5, P: 3e-3, Trials: 500, Seed: 3, Workers: 1}
	want := RunExperiment(cfg)
	for _, w := range []int{2, 3} {
		cfg.Workers = w
		if got := RunExperiment(cfg); got != want {
			t.Fatalf("workers=%d: %+v, workers=1: %+v", w, got, want)
		}
	}
}

func BenchmarkEncodeHybrid(b *testing.B) {
	l := syndrome.NewLayout(11)
	c := New(l, Config{})
	rng := rand.New(rand.NewPCG(1, 1))
	frames := make([]noise.Bitset, 64)
	for i := range frames {
		frames[i] = randomFrame(rng, l.CombinedBits(), rng.IntN(4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encode(frames[i&63])
	}
}

// TestGeoShinesUnderCorrelatedYNoise: with a busy Y-dominated channel the
// X/Z detection quadruples cluster spatially, which is the regime Geo-Comp
// was designed for — it must beat plain DZC and win most hybrid selections.
// (On near-empty frames DZC's smaller indicator vector wins instead, which
// is exactly why Syndrome Compression is a hybrid.)
func TestGeoShinesUnderCorrelatedYNoise(t *testing.T) {
	r := RunCorrelatedExperiment(CorrelatedConfig{
		Distance: 11,
		PY:       1e-2, // Y-dominated, busy channel
		PM:       1e-3,
		Trials:   500,
		Seed:     7,
	})
	if r.Frames == 0 || r.MeanWeight == 0 {
		t.Fatal("correlated experiment sampled nothing")
	}
	if r.MeanRatio[Geo] <= r.MeanRatio[DZC] {
		t.Fatalf("geo (%.2fx) should beat dzc (%.2fx) under Y noise",
			r.MeanRatio[Geo], r.MeanRatio[DZC])
	}
	if r.SchemeWins[Geo] <= r.SchemeWins[DZC] {
		t.Fatalf("geo selected %d times vs dzc %d; expected geo to dominate dzc",
			r.SchemeWins[Geo], r.SchemeWins[DZC])
	}
	if r.MeanRatioHybrid+1e-9 < r.MeanRatio[Geo] {
		t.Fatalf("hybrid (%.2fx) worse than geo alone (%.2fx)",
			r.MeanRatioHybrid, r.MeanRatio[Geo])
	}
}
