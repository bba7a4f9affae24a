package lattice

import "sync"

// Decoding graphs are immutable once built (nothing in the repository
// writes to a Graph after construction), so identical shapes can be shared
// freely between decoders, samplers, and goroutines. The cache below
// memoizes construction keyed on (distance, rounds, window): a Monte-Carlo
// sweep that visits the same distance at many error rates builds each graph
// once, and a System fleet of hundreds of logical qubits shares a single
// graph instead of holding one copy per qubit.
//
// The cache never evicts. Real workloads touch a handful of shapes (a few
// distances times closed-cycle/window), each a few hundred kilobytes, so
// unbounded retention is the right trade for a process-lifetime cache.

type graphKey struct {
	distance int
	rounds   int
	window   bool
}

var (
	cacheMu sync.Mutex
	cache   = map[graphKey]*Graph{}
)

// Cached returns the memoized decoding graph for the given shape, building
// it on first use. rounds == 1 yields the 2-D perfect-measurement graph
// (window must be false); otherwise the closed-cycle or window 3-D graph.
// The returned graph is shared: callers must treat it as read-only, which
// every decoder and sampler in this repository already does.
func Cached(distance, rounds int, window bool) *Graph {
	key := graphKey{distance, rounds, window}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if g, ok := cache[key]; ok {
		return g
	}
	g := build(distance, rounds, window)
	cache[key] = g
	return g
}

// Cached2D returns the shared single-layer graph for distance d.
func Cached2D(d int) *Graph { return Cached(d, 1, false) }

// Cached3D returns the shared closed-logical-cycle graph.
func Cached3D(d, rounds int) *Graph { return Cached(d, rounds, false) }

// Cached3DWindow returns the shared continuous-operation window graph.
func Cached3DWindow(d, rounds int) *Graph { return Cached(d, rounds, true) }
