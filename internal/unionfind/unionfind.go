// Package unionfind implements the array-based disjoint-set forest used by
// the Gr-Gen stage of the AFS decoder. It mirrors the hardware structures
// described in the paper: a Root Table (parent pointers), a Size Table
// (weighted union), and tree-traversal registers that record the vertices
// visited by Find so the hardware can path-compress them in bulk.
//
// The implementation counts Root/Size table reads and writes so the
// micro-architecture model can charge memory-access latency for them.
package unionfind

// Forest is a disjoint-set forest over n elements with union by size and
// path compression. The zero value is not usable; construct with New.
type Forest struct {
	parent []int32
	size   []int32

	// traversal emulates the hardware tree-traversal registers: the
	// vertices visited during the most recent Find, recorded so they can be
	// re-pointed at the root (path compression) exactly as the Gr-Gen does.
	traversal []int32

	// ident holds the identity mapping and ones an all-ones column so Reset
	// can restore both tables with two vectorized copies instead of an
	// element-by-element loop.
	ident []int32
	ones  []int32

	// Access counters (Root Table and Size Table reads/writes) consumed by
	// the micro-architecture latency model.
	RootReads  uint64
	RootWrites uint64
	SizeReads  uint64
	SizeWrites uint64
}

// New returns a forest of n singleton sets.
func New(n int) *Forest {
	f := &Forest{
		parent:    make([]int32, n),
		size:      make([]int32, n),
		traversal: make([]int32, 0, 32),
		ident:     make([]int32, n),
		ones:      make([]int32, n),
	}
	for i := 0; i < n; i++ {
		f.ident[i] = int32(i)
		f.ones[i] = 1
	}
	f.Reset()
	return f
}

// Len returns the number of elements in the forest.
func (f *Forest) Len() int { return len(f.parent) }

// Reset restores every element to a singleton set and clears the access
// counters. It allows a decoder instance to be reused across syndromes
// without reallocating, which is what the hardware does between logical
// cycles.
func (f *Forest) Reset() {
	copy(f.parent, f.ident)
	copy(f.size, f.ones)
	f.ResetCounters()
}

// ResetCounters clears the access counters without touching set structure.
// Callers performing sparse resets (Reinit on the touched elements only)
// use it to start a fresh accounting period.
func (f *Forest) ResetCounters() {
	f.RootReads, f.RootWrites = 0, 0
	f.SizeReads, f.SizeWrites = 0, 0
}

// Reinit restores element v to a singleton set without charging table
// accesses. It is the sparse counterpart of Reset: a caller that knows
// which elements were touched since the last reset can restore exactly
// those in O(touched) instead of O(n), which is what makes decoder reuse
// cheap for sparse syndromes.
func (f *Forest) Reinit(v int32) {
	f.parent[v] = v
	f.size[v] = 1
}

// Find returns the representative of x, path-compressing every vertex
// visited along the way (recorded in the traversal registers first, then
// written back, as in the hardware design).
func (f *Forest) Find(x int32) int32 {
	f.traversal = f.traversal[:0]
	for {
		p := f.parent[x]
		f.RootReads++
		if p == x {
			break
		}
		f.traversal = append(f.traversal, x)
		x = p
	}
	// Bulk path compression from the traversal registers.
	for _, v := range f.traversal {
		if f.parent[v] != x {
			f.parent[v] = x
			f.RootWrites++
		}
	}
	return x
}

// FindQuiet is Find without access accounting, for bulk Monte-Carlo
// decoding where the memory-traffic profile is not consumed. It uses
// two-pass path compression instead of the traversal registers.
func (f *Forest) FindQuiet(x int32) int32 {
	root := x
	for f.parent[root] != root {
		root = f.parent[root]
	}
	for f.parent[x] != root {
		x, f.parent[x] = f.parent[x], root
	}
	return root
}

// UnionRootsQuiet is UnionRoots without access accounting.
func (f *Forest) UnionRootsQuiet(ra, rb int32) int32 {
	if ra == rb {
		return ra
	}
	if f.size[ra] < f.size[rb] {
		ra, rb = rb, ra
	}
	f.parent[rb] = ra
	f.size[ra] += f.size[rb]
	return ra
}

// FindNoCompress returns the representative of x without modifying the
// forest. It exists for the ablation study of path compression.
func (f *Forest) FindNoCompress(x int32) int32 {
	for {
		p := f.parent[x]
		f.RootReads++
		if p == x {
			return x
		}
		x = p
	}
}

// Union merges the sets containing a and b and returns the representative
// of the merged set. Union by size: the smaller tree is attached beneath
// the larger one, minimizing Root Table updates (the optimization the
// paper's Size Table exists for).
func (f *Forest) Union(a, b int32) int32 {
	ra, rb := f.Find(a), f.Find(b)
	if ra == rb {
		return ra
	}
	f.SizeReads += 2
	if f.size[ra] < f.size[rb] {
		ra, rb = rb, ra
	}
	f.parent[rb] = ra
	f.RootWrites++
	f.size[ra] += f.size[rb]
	f.SizeWrites++
	return ra
}

// UnionRoots merges the sets whose representatives are ra and rb (both must
// currently be roots) and returns the surviving representative. It performs
// union by size without the internal Find calls of Union, for callers that
// already hold the roots.
func (f *Forest) UnionRoots(ra, rb int32) int32 {
	if ra == rb {
		return ra
	}
	f.SizeReads += 2
	if f.size[ra] < f.size[rb] {
		ra, rb = rb, ra
	}
	f.parent[rb] = ra
	f.RootWrites++
	f.size[ra] += f.size[rb]
	f.SizeWrites++
	return ra
}

// UnionRootsUnweighted merges root rb under root ra unconditionally. It
// exists for the ablation study of weighted union.
func (f *Forest) UnionRootsUnweighted(ra, rb int32) int32 {
	if ra == rb {
		return ra
	}
	f.parent[rb] = ra
	f.RootWrites++
	f.size[ra] += f.size[rb]
	return ra
}

// Size returns the number of elements in the set containing x.
func (f *Forest) Size(x int32) int32 {
	f.SizeReads++
	return f.size[f.Find(x)]
}

// Same reports whether a and b are in the same set.
func (f *Forest) Same(a, b int32) bool { return f.Find(a) == f.Find(b) }
