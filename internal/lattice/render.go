package lattice

import "strings"

// Glyphs used by Render for unmarked sites.
const (
	GlyphData     = '.'
	GlyphZAncilla = 'o'
	GlyphXAncilla = 'x'
)

// Render draws one detector layer of the code as the (2d-1)x(2d-1) qubit
// grid of paper Fig. 2: data qubits as '.', Z-type ancillas (the vertices
// of this decoding graph) as 'o', X-type ancillas as 'x'.
//
// qubitMark, if non-nil, can override the glyph for a data qubit (return 0
// to keep the default) — used to draw error chains and corrections.
// vertexMark can likewise override ancilla glyphs for the given layer's
// vertices — used to draw detection events.
func (g *Graph) Render(layer int, qubitMark func(q int32) byte, vertexMark func(v int32) byte) string {
	d := g.Distance
	side := 2*d - 1
	var b strings.Builder
	b.Grow((side + 1) * (2 * side))
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteByte(g.glyphAt(i, j, layer, qubitMark, vertexMark))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (g *Graph) glyphAt(i, j, layer int, qubitMark func(q int32) byte, vertexMark func(v int32) byte) byte {
	switch {
	case (i+j)%2 == 0: // data qubit
		var q int32
		if i%2 == 0 { // vertical-type data qubit at (2k, 2c)
			q = g.VerticalQubit(i/2, j/2)
		} else { // horizontal-type at (2r+1, 2h+1)
			q = g.HorizontalQubit((i-1)/2, (j-1)/2)
		}
		if qubitMark != nil {
			if m := qubitMark(q); m != 0 {
				return m
			}
		}
		return GlyphData
	case i%2 == 1: // Z-type ancilla at (2r+1, 2c): a decoding-graph vertex
		v := g.VertexID((i-1)/2, j/2, layer)
		if vertexMark != nil {
			if m := vertexMark(v); m != 0 {
				return m
			}
		}
		return GlyphZAncilla
	default: // X-type ancilla
		return GlyphXAncilla
	}
}
