package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ requested, n, want int }{
		{0, 1000, min(procs, 1000)},
		{-3, 1000, min(procs, 1000)},
		{4, 1000, 4},
		{4, 3, 3},
		{4, 0, 1},
		{0, 0, 1},
		{1, 1, 1},
	} {
		if got := Workers(c.requested, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

// TestRunEveryChunkOnce checks Run's contract for several chunk and worker
// counts: every chunk runs exactly once, each goroutine calls start at
// most once, and with no chunks no goroutine calls it.
func TestRunEveryChunkOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, workers := range []int{0, 1, 2, 3, 8} {
			ran := make([]atomic.Int32, n)
			starts := make([]atomic.Int32, Workers(workers, n))
			var started atomic.Int32
			Run(workers, n, func(w int) func(c int) {
				starts[w].Add(1)
				started.Add(1)
				return func(c int) { ran[c].Add(1) }
			})
			for c := range ran {
				if k := ran[c].Load(); k != 1 {
					t.Errorf("n=%d workers=%d: chunk %d ran %d times", n, workers, c, k)
				}
			}
			for w := range starts {
				if k := starts[w].Load(); k > 1 {
					t.Errorf("n=%d workers=%d: worker %d called start %d times", n, workers, w, k)
				}
			}
			if n == 0 && started.Load() != 0 {
				t.Errorf("workers=%d: start called with no chunks", workers)
			}
			if s := int(started.Load()); n > 0 && (s < 1 || s > min(n, len(starts))) {
				t.Errorf("n=%d workers=%d: %d goroutines started", n, workers, s)
			}
		}
	}
}
