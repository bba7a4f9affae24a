// Package pool runs a fixed set of numbered chunks on a bounded set of
// goroutines. It is the one place the measurement loops decide how work
// lands on goroutines: each loop seeds and merges by chunk index, so its
// result does not depend on which goroutine ran which chunk.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count for n chunks: 0 or less
// selects GOMAXPROCS, and the result is clamped to [1, n].
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(min(requested, n), 1)
}

// Run runs chunks 0..n-1 on Workers(workers, n) goroutines, which claim
// chunk indices off one shared counter, so a slow chunk never idles the
// rest. Goroutine w calls start(w) when it claims its first chunk and runs
// every chunk it claims through the returned function; a goroutine that
// claims none builds nothing. Run returns once all n chunks have run.
func Run(workers, n int, start func(w int) func(c int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	workers = Workers(workers, n)
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			var chunk func(c int)
			for {
				c := int(next.Add(1) - 1)
				if c >= n {
					return
				}
				if chunk == nil {
					chunk = start(w)
				}
				chunk(c)
			}
		}()
	}
	wg.Wait()
}
