// Package noise implements the phenomenological noise model used throughout
// the paper's evaluation (§III-B): in every round of syndrome measurement,
// each data qubit suffers an independent X error with probability p, and
// each syndrome bit is flipped independently with probability p to model
// measurement errors. X-type and Z-type errors are corrected independently,
// so the simulation focuses on one error type at a time, exactly as the
// paper does.
//
// Every potential fault is an edge of the decoding graph (spatial edges are
// data-qubit errors, temporal edges are measurement errors), so a trial is
// sampled as a sparse Bernoulli subset of the edge list, and the detection
// events are the vertices with an odd number of sampled incident edges.
// Sparse (geometric-skip) sampling makes the cost of a trial proportional
// to the number of faults rather than the number of fault locations, which
// is what makes the paper's 10-million-trial Monte-Carlo runs tractable.
package noise

import (
	"math"
	"math/bits"
	"math/rand/v2"

	"afs/internal/lattice"
)

// Trial is one sampled error configuration together with its observable
// consequences. The slices are reused across samples to avoid allocation;
// callers that retain a Trial across samples must copy it.
type Trial struct {
	// ErrorEdges lists the decoding-graph edges on which a fault occurred.
	ErrorEdges []int32
	// Defects lists the vertices with a non-trivial detection event,
	// in increasing order.
	Defects []int32
	// NetData is a bitset over data qubits: bit q is set iff qubit q has a
	// net (odd cumulative) X error at the end of the logical cycle.
	NetData Bitset
}

// Sampler draws phenomenological-noise trials for a decoding graph.
type Sampler struct {
	G *lattice.Graph
	P float64

	pcg  *rand.PCG
	rng  *rand.Rand
	logq float64 // ln(1-p), cached for geometric skips
	// marks holds epoch-stamped defect parities: marks[v] == epoch means v
	// currently has an odd number of sampled incident edges. Stamping
	// replaces per-sample clearing, so a trial costs O(faults), never O(V).
	marks  []uint64
	epoch  uint64
	faults uint64 // total faults sampled (for statistics)
	trials uint64
}

// NewSampler creates a sampler for graph g with physical error rate p. The
// two seed words make every run reproducible; distinct workers must use
// distinct seeds.
func NewSampler(g *lattice.Graph, p float64, seed1, seed2 uint64) *Sampler {
	if p < 0 || p >= 1 {
		panic("noise: physical error rate must be in [0,1)")
	}
	pcg := rand.NewPCG(seed1, seed2)
	return &Sampler{
		G:     g,
		P:     p,
		pcg:   pcg,
		rng:   rand.New(pcg),
		logq:  math.Log1p(-p),
		marks: make([]uint64, g.V),
	}
}

// Reseed rewinds the sampler onto a fresh deterministic random stream
// without allocating, reusing the scratch state. The Monte-Carlo engine
// uses it to give every work chunk its own seed so results are independent
// of how chunks land on workers.
func (s *Sampler) Reseed(seed1, seed2 uint64) {
	s.pcg.Seed(seed1, seed2)
}

// MeanFaults returns the empirical mean number of faults per trial sampled
// so far.
func (s *Sampler) MeanFaults() float64 {
	if s.trials == 0 {
		return 0
	}
	return float64(s.faults) / float64(s.trials)
}

// Sample draws one trial into t, reusing its storage.
func (s *Sampler) Sample(t *Trial) {
	t.ErrorEdges = t.ErrorEdges[:0]
	t.Defects = t.Defects[:0]
	t.NetData.Resize(s.G.NumDataQubits())
	t.NetData.Clear()

	// Geometric-skip sampling, inlined from SparseBernoulliLogQ so the
	// per-fault callback costs nothing on this hottest path.
	edges := s.G.Edges
	if s.logq < 0 {
		n := len(edges)
		i := -1
		for {
			u := s.rng.Float64()
			if u == 0 {
				break // skip of +inf
			}
			skip := math.Floor(math.Log(u) / s.logq)
			if skip >= float64(n) { // also catches +inf
				break
			}
			i += int(skip) + 1
			if i >= n {
				break
			}
			t.ErrorEdges = append(t.ErrorEdges, int32(i))
		}
	}
	s.faults += uint64(len(t.ErrorEdges))
	s.trials++

	// Epoch-stamped parity toggles: == epoch is odd, anything else even.
	// A fresh epoch per trial makes every stale stamp read as even, so no
	// clearing pass over the marks is ever needed.
	s.epoch += 2
	odd, even := s.epoch, s.epoch-1
	for _, ei := range t.ErrorEdges {
		e := &edges[ei]
		if !s.G.IsBoundary(e.U) {
			if s.marks[e.U] == odd {
				s.marks[e.U] = even
			} else {
				s.marks[e.U] = odd
			}
		}
		if !s.G.IsBoundary(e.V) {
			if s.marks[e.V] == odd {
				s.marks[e.V] = even
			} else {
				s.marks[e.V] = odd
			}
		}
		if e.Kind == lattice.Spatial {
			t.NetData.Flip(int(e.Qubit))
		}
	}
	// Collect the odd vertices, demoting each stamp so it is reported once.
	for _, ei := range t.ErrorEdges {
		e := &edges[ei]
		for _, v := range [2]int32{e.U, e.V} {
			if !s.G.IsBoundary(v) && s.marks[v] == odd {
				s.marks[v] = even
				t.Defects = append(t.Defects, v)
			}
		}
	}
	sortInt32(t.Defects)
}

// SparseBernoulli invokes f(i) for each i in [0, n) selected independently
// with probability p, in increasing order of i, using geometric skips so the
// cost is O(np + 1) rather than O(n).
func SparseBernoulli(rng *rand.Rand, n int, p float64, f func(int)) {
	if p <= 0 || n <= 0 {
		return
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	SparseBernoulliLogQ(rng, n, math.Log1p(-p), f)
}

// SparseBernoulliLogQ is SparseBernoulli with ln(1-p) precomputed.
func SparseBernoulliLogQ(rng *rand.Rand, n int, logq float64, f func(int)) {
	if logq >= 0 { // p <= 0
		return
	}
	i := -1
	for {
		u := rng.Float64()
		if u == 0 {
			return // skip of +inf
		}
		skip := math.Floor(math.Log(u) / logq)
		if skip >= float64(n) { // also catches +inf
			return
		}
		i += int(skip) + 1
		if i >= n {
			return
		}
		f(i)
	}
}

// Bitset is a dense bitset used for data-qubit error and correction masks.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a bitset of n bits, all zero.
func NewBitset(n int) Bitset {
	return Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Resize grows or shrinks the bitset to n bits. Contents are preserved up
// to min(old, new) bits; bits beyond that are zero. The call is cheap when
// the size already matches.
func (b *Bitset) Resize(n int) {
	w := (n + 63) / 64
	old := len(b.words)
	switch {
	case w > cap(b.words):
		nw := make([]uint64, w)
		copy(nw, b.words)
		b.words = nw
	default:
		b.words = b.words[:w]
		// Words re-exposed from a previous larger incarnation hold stale
		// bits; zero them.
		for i := old; i < w; i++ {
			b.words[i] = 0
		}
	}
	// Mask bits past n in the last word so PopCount/ForEachSet never see
	// remnants of a longer previous use.
	if w > 0 && n&63 != 0 {
		b.words[w-1] &= (1 << uint(n&63)) - 1
	}
	b.n = n
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Clear zeroes every bit.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Get reports bit i.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i to 1.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Flip toggles bit i.
func (b *Bitset) Flip(i int) { b.words[i>>6] ^= 1 << (uint(i) & 63) }

// CopyFrom makes b an exact copy of other (length and contents), reusing
// b's storage when it is large enough. It replaces the Resize/Clear/Xor
// triple callers previously needed, touching each word exactly once.
func (b *Bitset) CopyFrom(other Bitset) {
	w := len(other.words)
	if w > cap(b.words) {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
	}
	copy(b.words, other.words)
	b.n = other.n
}

// Xor xors other into b. The bitsets must have equal length.
func (b *Bitset) Xor(other Bitset) {
	if other.n != b.n {
		panic("noise: bitset length mismatch")
	}
	for i := range b.words {
		b.words[i] ^= other.words[i]
	}
}

// Parity returns the XOR of the bits at the given indices.
func (b *Bitset) Parity(idx []int32) bool {
	var p bool
	for _, i := range idx {
		if b.Get(int(i)) {
			p = !p
		}
	}
	return p
}

// ForEachSet calls f for the index of every set bit, in increasing order.
func (b *Bitset) ForEachSet(f func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			f(wi<<6 + bit)
			w &^= 1 << uint(bit)
		}
	}
}

// PopCount returns the number of set bits.
func (b *Bitset) PopCount() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

func sortInt32(a []int32) {
	// Insertion sort: defect lists are tiny (mean ~6d^3*p entries), so this
	// beats sort.Slice and allocates nothing.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
