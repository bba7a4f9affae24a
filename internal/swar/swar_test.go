package swar

import (
	"math/rand/v2"
	"testing"
)

// The saturating lane counter must agree with exact per-lane popcounts on
// counts 0..2 and classify everything >= 3 as heavy.
func TestLaneCountsMatchExactPopcounts(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(200)
		planes := make([]uint64, n)
		for i := range planes {
			// Sparse-ish planes so all weight classes appear.
			planes[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
		var c LaneCounts
		for _, w := range planes {
			c.Add(w)
		}
		var exact [64]int32
		for _, w := range planes {
			for lane := 0; lane < 64; lane++ {
				exact[lane] += int32(w >> uint(lane) & 1)
			}
		}
		for lane := 0; lane < 64; lane++ {
			bit := uint64(1) << uint(lane)
			var want int32
			switch {
			case c.Exactly0()&bit != 0:
				want = 0
			case c.Exactly1()&bit != 0:
				want = 1
			case c.Exactly2()&bit != 0:
				want = 2
			}
			if c.AtLeast3()&bit != 0 {
				if exact[lane] < 3 {
					t.Fatalf("lane %d: counter says >=3, exact %d", lane, exact[lane])
				}
				continue
			}
			if exact[lane] != want {
				t.Fatalf("lane %d: counter says %d, exact %d", lane, want, exact[lane])
			}
		}
	}
}
