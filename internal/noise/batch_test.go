package noise

import (
	"testing"

	"afs/internal/lattice"
)

// BatchSampler must hand out exactly the plane sampler's lanes, in order:
// seeded alike, trial i is lane i%64 of group i/64 read one lane at a time
// (PlaneGroup.AppendLaneDefects plus its cut bit). The walk crosses group
// boundaries with batch widths that straddle them, reseeds mid-group (the
// buffered lanes must be dropped, as a kernel chunk starts a fresh group),
// and ends every stream with a partial tail group like the kernel's last
// group of a chunk. Beyond a few edge geometries (2-D, an above-sweep
// rate, p = 0) the table covers every tier-1 sweep point d in
// {3,5,7,9,11} x p in {1e-3, 3e-3, 1e-2}.
func TestBatchSamplerMatchesScalarSampler(t *testing.T) {
	type tcase struct {
		d, rounds int
		p         float64
	}
	cases := []tcase{
		{3, 1, 0.01}, {7, 7, 0.02}, {5, 5, 0},
	}
	for _, d := range []int{3, 5, 7, 9, 11} {
		for _, p := range []float64{0.001, 0.003, 0.01} {
			cases = append(cases, tcase{d, d, p})
		}
	}
	widths := []int{64, 1, 63, 100, 7, 256, 3}
	for _, tc := range cases {
		g := lattice.New3D(tc.d, tc.rounds)
		if tc.rounds == 1 {
			g = lattice.New2D(tc.d)
		}
		cut := g.NorthCutQubits()
		planes := NewPlaneSampler(g, tc.p, 42, 99, cut)
		batched := NewBatchSampler(g, tc.p, 42, 99, cut)
		var pg PlaneGroup
		var b Batch
		// groups queues the next plane groups' lanes (k lanes each, so the
		// last may be a partial tail group); draw takes n trials from the
		// batch sampler in widths that straddle group boundaries and
		// checks them against the queue.
		var want [][]int32
		var wantCut []bool
		groups := func(ks ...int) {
			for _, k := range ks {
				planes.SampleGroup(&pg, k)
				for lane := 0; lane < k; lane++ {
					want = append(want, pg.AppendLaneDefects(lane, nil))
					wantCut = append(wantCut, pg.CutParity>>uint(lane)&1 != 0)
				}
			}
		}
		trial := 0
		draw := func(stream string) {
			t.Helper()
			for done := 0; done < len(want); {
				w := min(widths[trial%len(widths)], len(want)-done)
				batched.SampleBatch(&b, w)
				if b.K != w || len(b.DefectOff) != w+1 || len(b.CutParity) != w {
					t.Fatalf("d=%d p=%g: batch K=%d with %d offsets and %d cut bits, want %d",
						tc.d, tc.p, b.K, len(b.DefectOff), len(b.CutParity), w)
				}
				for i := 0; i < w; i++ {
					j := done + i
					if got := b.TrialDefects(i); !equalInt32(got, want[j]) {
						t.Fatalf("d=%d p=%g %s trial %d: defects %v, plane lane %d says %v",
							tc.d, tc.p, stream, j, got, j%64, want[j])
					}
					if b.CutParity[i] != wantCut[j] {
						t.Fatalf("d=%d p=%g %s trial %d: cut parity %v, plane lane %d says %v",
							tc.d, tc.p, stream, j, b.CutParity[i], j%64, wantCut[j])
					}
				}
				done += w
				trial++
			}
			want, wantCut = want[:0], wantCut[:0]
		}
		groups(64, 64, 64, 64, 64, 64, 64, 55)
		draw("first")
		// Reseed mid-group: the buffered lanes go, a fresh group starts.
		planes.Reseed(1234, 5)
		batched.Reseed(1234, 5)
		groups(64, 17)
		draw("reseeded")
		planes.Reseed(1234, 6)
		batched.Reseed(1234, 6)
		groups(1)
		draw("reseeded twice")
	}
}

// Reseeding mid-run must reproduce the same batches, and the batch width
// must not affect the trial sequence.
func TestBatchSamplerReseedAndWidthInvariance(t *testing.T) {
	g := lattice.New3D(5, 5)
	cut := g.NorthCutQubits()
	s := NewBatchSampler(g, 0.01, 7, 7, cut)
	var one, b Batch
	s.Reseed(1234, 5)
	s.SampleBatch(&b, 100)
	ref := append([]int32(nil), b.Defects...)
	refOff := append([]int32(nil), b.DefectOff...)

	s.Reseed(1234, 5)
	var got []int32
	var gotOff []int32
	gotOff = append(gotOff, 0)
	for i := 0; i < 100; i += 10 {
		s.SampleBatch(&one, 10)
		for j := 0; j < 10; j++ {
			got = append(got, one.TrialDefects(j)...)
			gotOff = append(gotOff, gotOff[len(gotOff)-1]+int32(len(one.TrialDefects(j))))
		}
	}
	if !equalInt32(got, ref) || !equalInt32(gotOff, refOff) {
		t.Fatal("batch width changed the sampled trial sequence")
	}
}

// Steady-state batch sampling must not allocate.
func TestBatchSamplerZeroAllocSteadyState(t *testing.T) {
	g := lattice.New3D(11, 11)
	s := NewBatchSampler(g, 0.001, 3, 4, g.NorthCutQubits())
	var b Batch
	for i := 0; i < 8; i++ { // warm storage to high-water mark
		s.SampleBatch(&b, 256)
	}
	if avg := testing.AllocsPerRun(50, func() { s.SampleBatch(&b, 256) }); avg != 0 {
		t.Fatalf("SampleBatch allocates %.1f times per call in steady state", avg)
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
