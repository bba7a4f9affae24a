// Package lut implements a Lookup-Table decoder for small surface codes
// (paper §VII-A, [Tomita & Svore]; used by near-term real-time decoding
// experiments such as Lilliput [Das, Locharla, Jones]). The table is
// indexed by the syndrome bits and each entry stores a minimum-weight
// correction, so decoding is a single memory access.
//
// The decoder works on any decoding graph whose syndrome fits the table:
// the 2-D perfect-measurement problem up to d=5 (20 syndrome bits) and the
// full 3-D logical cycle at d=3 (18 bits) — exactly the regime near-term
// real-time decoding experiments live in. It exists as the natural third
// baseline beside Union-Find and MWPM, and to make the paper's scalability
// argument quantitative: a d=11 cycle would need 2^1210 entries, which is
// exactly why AFS decodes algorithmically.
//
// Table construction is a breadth-first search over syndrome space: level k
// of the BFS reaches every syndrome producible by k faults (data errors or
// measurement errors — every graph edge is a fault mechanism), so the first
// visit to a syndrome records a minimum-weight fault set producing it, i.e.
// the minimum-weight decoding.
package lut

import (
	"fmt"

	"afs/internal/lattice"
)

// MaxTableBits bounds the syndrome width the decoder will build a table
// for; 2^24 entries (16 M) is ~64 MB of int32 and a few seconds of BFS.
const MaxTableBits = 24

// Decoder is a lookup-table decoder for a small decoding graph.
type Decoder struct {
	G *lattice.Graph

	// table[s] holds, for syndrome bitmask s, one edge of a minimum-weight
	// fault set producing s, or -1 for s = 0. Decoding peels one fault at
	// a time: apply table[s], XOR its syndrome mask, repeat. Storing one
	// edge index instead of the full correction keeps the table one word
	// per entry (as a hardware table would).
	table []int32
	// masks[e] is the syndrome produced by a fault on edge e.
	masks []uint32
	// weight[s] is the minimum fault weight for syndrome s.
	weight []uint8

	correction []int32
}

// New builds the lookup table for g, which must have at most MaxTableBits
// syndrome bits (vertices).
func New(g *lattice.Graph) (*Decoder, error) {
	m := g.V
	if m > MaxTableBits {
		return nil, fmt.Errorf("lut: syndrome width %d exceeds MaxTableBits=%d (table would need 2^%d entries)",
			m, MaxTableBits, m)
	}
	d := &Decoder{G: g}
	d.masks = make([]uint32, len(g.Edges))
	for e := range g.Edges {
		ed := &g.Edges[e]
		var mask uint32
		if !g.IsBoundary(ed.U) {
			mask |= 1 << uint(ed.U)
		}
		if !g.IsBoundary(ed.V) {
			mask |= 1 << uint(ed.V)
		}
		d.masks[e] = mask
	}
	size := 1 << uint(m)
	d.table = make([]int32, size)
	d.weight = make([]uint8, size)
	for i := range d.table {
		d.table[i] = -2 // unvisited
	}
	d.table[0] = -1
	// BFS over syndrome space: each level applies one more fault.
	frontier := []uint32{0}
	var next []uint32
	for level := uint8(1); len(frontier) > 0; level++ {
		next = next[:0]
		for _, s := range frontier {
			for e, mask := range d.masks {
				ns := s ^ mask
				if d.table[ns] == -2 {
					d.table[ns] = int32(e)
					d.weight[ns] = level
					next = append(next, ns)
				}
			}
		}
		frontier, next = next, frontier
	}
	return d, nil
}

// TableEntries returns the number of table entries, 2^V.
func (d *Decoder) TableEntries() int { return len(d.table) }

// TableBytes returns the storage a hardware table would need: one
// edge-index word of ceil(log2 E) bits per entry. This is the quantity
// that explodes with distance.
func (d *Decoder) TableBytes() int64 {
	w := bitsFor(len(d.G.Edges))
	return int64(len(d.table)) * int64(w) / 8
}

func bitsFor(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

// MinWeight returns the minimum fault weight producing the given syndrome
// bitmask.
func (d *Decoder) MinWeight(s uint32) int { return int(d.weight[s]) }

// Decode looks up the correction for the given defects and returns it as
// edge indices into G.Edges. The returned slice is reused by the next call.
func (d *Decoder) Decode(defects []int32) []int32 {
	d.correction = d.correction[:0]
	var s uint32
	for _, v := range defects {
		s |= 1 << uint(v)
	}
	for s != 0 {
		e := d.table[s]
		if e < 0 {
			// Unreachable for any valid syndrome: BFS covers the whole
			// image of the fault map, and defects outside it indicate a
			// caller bug.
			panic(fmt.Sprintf("lut: syndrome %b not in table image", s))
		}
		d.correction = append(d.correction, e)
		s ^= d.masks[e]
	}
	return d.correction
}
