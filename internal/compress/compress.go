// Package compress implements Syndrome Compression (paper §VI): a hybrid of
// three schemes applied to each round's syndrome frame, always selecting
// the one that compresses best (Fig. 14).
//
//   - Dynamic Zero Compression (DZC): the frame is split into K blocks of W
//     bits; a K-bit Zero Indicator Bit vector marks all-zero blocks, and
//     only non-zero blocks are transmitted.
//   - Sparse representation: a Sparse Representation Bit marks an all-zero
//     frame; otherwise the indices of the non-zero bits are sent.
//   - Geometry-based compression (Geo-Comp): a DZC variant whose blocks
//     *are* square tiles of the qubit grid, covering ancillas of both
//     types, so the pairs of neighboring detection events produced by
//     single data-qubit errors (and the X/Z quadruples produced by Y
//     errors) fall into as few blocks as possible.
//
// Unlike a pure accounting model, the package actually encodes and decodes
// frames; compressed sizes are the exact bit counts of the real encodings,
// including the 2-bit scheme selector and, for the sparse scheme, the
// explicit count field a self-delimiting stream needs. Compression Ratio is
// raw frame bits divided by encoded bits.
package compress

import (
	"fmt"

	"afs/internal/noise"
	"afs/internal/syndrome"
)

// Scheme identifies one compression scheme.
type Scheme uint8

const (
	// DZC is dynamic zero compression.
	DZC Scheme = iota
	// Sparse is the non-zero-index representation.
	Sparse
	// Geo is geometry-based compression.
	Geo
	numSchemes
)

func (s Scheme) String() string {
	switch s {
	case DZC:
		return "dzc"
	case Sparse:
		return "sparse"
	case Geo:
		return "geo"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// selectorBits identify the chosen scheme in the hybrid stream.
const selectorBits = 2

// Config parameterizes a Compressor.
type Config struct {
	// DZCWidth is the block width W in bits; 0 selects 8.
	DZCWidth int
	// GeoTile is the tile side length in qubit-grid units; 0 selects 4
	// (a 4x4 grid tile holds ~8 ancillas of the two types).
	GeoTile int
}

func (c Config) dzcWidth() int {
	if c.DZCWidth <= 0 {
		return 8
	}
	return c.DZCWidth
}

func (c Config) geoTile() int {
	if c.GeoTile <= 0 {
		return 4
	}
	return c.GeoTile
}

// Compressor compresses per-round combined syndrome frames of one logical
// qubit. Not safe for concurrent use.
type Compressor struct {
	Layout *syndrome.Layout
	Cfg    Config

	n        int     // frame bits
	idxBits  int     // ceil(log2 n)
	cntBits  int     // ceil(log2 (n+1))
	geoTiles [][]int // bit indices per tile, tile-major geo order

	w bitWriter
}

// New builds a Compressor for the layout.
func New(l *syndrome.Layout, cfg Config) *Compressor {
	c := &Compressor{Layout: l, Cfg: cfg, n: l.CombinedBits()}
	c.idxBits = ceilLog2(c.n)
	c.cntBits = ceilLog2(c.n + 1)
	c.buildTiles(cfg.geoTile())
	return c
}

// buildTiles groups the combined-frame bits into square tiles of the qubit
// grid using the layout's geometry ordering; tiles become the Geo-Comp
// blocks.
func (c *Compressor) buildTiles(tileSize int) {
	perm := c.Layout.GeoOrder(tileSize)
	order := make([]int, c.n) // geo position -> bit
	for bit, pos := range perm {
		order[pos] = bit
	}
	side := 2*c.Layout.D - 1
	ntx := (side + tileSize - 1) / tileSize
	tileOf := func(bit int) int {
		i, j := c.Layout.GridPos(bit)
		return (i/tileSize)*ntx + j/tileSize
	}
	var cur []int
	curTile := -1
	for _, bit := range order {
		tl := tileOf(bit)
		if tl != curTile {
			if cur != nil {
				c.geoTiles = append(c.geoTiles, cur)
			}
			cur = nil
			curTile = tl
		}
		cur = append(cur, bit)
	}
	if cur != nil {
		c.geoTiles = append(c.geoTiles, cur)
	}
}

func ceilLog2(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

// FrameBits returns the raw size of one frame.
func (c *Compressor) FrameBits() int { return c.n }

// SizeScheme returns the encoded size in bits of frame under one scheme,
// including the scheme selector.
func (c *Compressor) SizeScheme(s Scheme, frame noise.Bitset) int {
	switch s {
	case DZC:
		return selectorBits + c.sizeDZC(frame)
	case Sparse:
		return selectorBits + c.sizeSparse(frame)
	case Geo:
		return selectorBits + c.sizeGeo(frame)
	default:
		panic("compress: unknown scheme")
	}
}

func (c *Compressor) sizeGeo(frame noise.Bitset) int {
	size := len(c.geoTiles) // one ZIB bit per tile
	for _, tile := range c.geoTiles {
		if tileNonZero(frame, tile) {
			size += len(tile)
		}
	}
	return size
}

func (c *Compressor) sizeDZC(frame noise.Bitset) int {
	w := c.Cfg.dzcWidth()
	k := (c.n + w - 1) / w
	size := k
	for b := 0; b < k; b++ {
		lo, hi := b*w, min(c.n, (b+1)*w)
		if blockNonZero(frame, lo, hi) {
			size += hi - lo
		}
	}
	return size
}

func (c *Compressor) sizeSparse(frame noise.Bitset) int {
	nz := frame.PopCount()
	if nz == 0 {
		return 1
	}
	return 1 + c.cntBits + nz*c.idxBits
}

// Best returns the scheme with the smallest encoding for frame and that
// size in bits.
func (c *Compressor) Best(frame noise.Bitset) (Scheme, int) {
	best, bestSize := DZC, c.SizeScheme(DZC, frame)
	for s := Sparse; s < numSchemes; s++ {
		if size := c.SizeScheme(s, frame); size < bestSize {
			best, bestSize = s, size
		}
	}
	return best, bestSize
}

// Encode compresses frame with the best scheme and returns the encoded
// stream; the returned slice is reused by the next call. The bit length of
// the encoding equals Best's size.
func (c *Compressor) Encode(frame noise.Bitset) []byte {
	s, _ := c.Best(frame)
	return c.EncodeScheme(s, frame)
}

// EncodeScheme compresses frame with a specific scheme.
func (c *Compressor) EncodeScheme(s Scheme, frame noise.Bitset) []byte {
	if frame.Len() != c.n {
		panic("compress: frame size mismatch")
	}
	c.w.reset()
	c.w.writeBits(uint32(s), selectorBits)
	switch s {
	case DZC:
		c.encodeDZC(frame)
	case Sparse:
		c.encodeSparse(frame)
	case Geo:
		c.encodeGeo(frame)
	default:
		panic("compress: unknown scheme")
	}
	return c.w.buf
}

func (c *Compressor) encodeGeo(frame noise.Bitset) {
	for _, tile := range c.geoTiles {
		c.w.writeBit(!tileNonZero(frame, tile)) // ZIB: 1 = all-zero tile
	}
	for _, tile := range c.geoTiles {
		if !tileNonZero(frame, tile) {
			continue
		}
		for _, bit := range tile {
			c.w.writeBit(frame.Get(bit))
		}
	}
}

// EncodedBits returns the exact bit length of the last Encode result.
func (c *Compressor) EncodedBits() int { return c.w.len() }

func (c *Compressor) encodeDZC(frame noise.Bitset) {
	w := c.Cfg.dzcWidth()
	k := (c.n + w - 1) / w
	for b := 0; b < k; b++ {
		lo, hi := b*w, min(c.n, (b+1)*w)
		c.w.writeBit(!blockNonZero(frame, lo, hi)) // ZIB: 1 = all-zero block
	}
	for b := 0; b < k; b++ {
		lo, hi := b*w, min(c.n, (b+1)*w)
		if !blockNonZero(frame, lo, hi) {
			continue
		}
		for i := lo; i < hi; i++ {
			c.w.writeBit(frame.Get(i))
		}
	}
}

func (c *Compressor) encodeSparse(frame noise.Bitset) {
	nz := frame.PopCount()
	c.w.writeBit(nz == 0) // SRB: 1 = all-zero frame
	if nz == 0 {
		return
	}
	c.w.writeBits(uint32(nz), c.cntBits)
	frame.ForEachSet(func(i int) {
		c.w.writeBits(uint32(i), c.idxBits)
	})
}

// Decode reconstructs a frame from an encoded stream into out.
func (c *Compressor) Decode(data []byte, out *noise.Bitset) error {
	r := bitReader{buf: data}
	s := Scheme(r.readBits(selectorBits))
	out.Resize(c.n)
	out.Clear()
	switch s {
	case DZC:
		c.decodeDZC(&r, out)
	case Sparse:
		if r.readBit() {
			return nil
		}
		nz := int(r.readBits(c.cntBits))
		for i := 0; i < nz; i++ {
			out.Set(int(r.readBits(c.idxBits)))
		}
	case Geo:
		c.decodeGeo(&r, out)
	default:
		return fmt.Errorf("compress: invalid scheme %d in stream", s)
	}
	return nil
}

func (c *Compressor) decodeDZC(r *bitReader, out *noise.Bitset) {
	w := c.Cfg.dzcWidth()
	k := (c.n + w - 1) / w
	zero := make([]bool, k)
	for b := 0; b < k; b++ {
		zero[b] = r.readBit()
	}
	for b := 0; b < k; b++ {
		if zero[b] {
			continue
		}
		lo, hi := b*w, min(c.n, (b+1)*w)
		for i := lo; i < hi; i++ {
			if r.readBit() {
				out.Set(i)
			}
		}
	}
}

func (c *Compressor) decodeGeo(r *bitReader, out *noise.Bitset) {
	zero := make([]bool, len(c.geoTiles))
	for ti := range c.geoTiles {
		zero[ti] = r.readBit()
	}
	for ti, tile := range c.geoTiles {
		if zero[ti] {
			continue
		}
		for _, bit := range tile {
			if r.readBit() {
				out.Set(bit)
			}
		}
	}
}

func blockNonZero(frame noise.Bitset, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if frame.Get(i) {
			return true
		}
	}
	return false
}

func tileNonZero(frame noise.Bitset, tile []int) bool {
	for _, bit := range tile {
		if frame.Get(bit) {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
