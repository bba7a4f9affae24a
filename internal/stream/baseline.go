package stream

import (
	"fmt"

	"afs/internal/core"
	"afs/internal/lattice"
)

// Baseline is the pre-engine streaming decoder, kept verbatim for
// differential testing and as the reference the streaming benchmarks
// measure against (BENCH_2.json's before/after is an interleaved run of
// Baseline and Decoder in the same process). It buffers layers as freshly
// allocated slices, dedupes with an O(k^2) scan, sorts with insertion sort,
// carries seam toggles through a map, and re-slices its buffer on every
// slide — exactly the costs Decoder's reused defect list removes. Committed
// corrections are identical to Decoder's for identical input.
type Baseline struct {
	Distance       int
	Window, Commit int

	g   *lattice.Graph
	dec *core.Decoder

	finals map[int]*core.Decoder
	closed map[int]*lattice.Graph

	buffer    [][]int32
	carry     []int32
	base      int
	committed []Correction

	defects []int32
	seam    map[int32]bool
}

// NewBaseline creates a pre-engine streaming decoder with the same
// parameter semantics as New.
func NewBaseline(distance, window, commit int) (*Baseline, error) {
	if distance < 2 {
		return nil, fmt.Errorf("stream: distance %d < 2", distance)
	}
	if window == 0 {
		window = distance
	}
	if window < 2 {
		return nil, fmt.Errorf("stream: window %d < 2", window)
	}
	if commit == 0 {
		commit = window / 2
		if commit < 1 {
			commit = 1
		}
	}
	if commit < 1 || commit >= window {
		return nil, fmt.Errorf("stream: commit %d outside [1, %d); committing a full window would finalize its deferred boundary matches", commit, window)
	}
	g := lattice.New3DWindow(distance, window)
	return &Baseline{
		Distance: distance,
		Window:   window,
		Commit:   commit,
		g:        g,
		dec:      core.NewDecoder(g, core.Options{}),
		finals:   map[int]*core.Decoder{},
		closed:   map[int]*lattice.Graph{},
		seam:     map[int32]bool{},
	}, nil
}

// PushLayer feeds one round's detection events, as Decoder.PushLayer.
func (d *Baseline) PushLayer(events []int32) error {
	per := int32(d.Distance * (d.Distance - 1))
	layer := make([]int32, 0, len(events))
	for _, x := range events {
		if x < 0 || x >= per {
			return fmt.Errorf("stream: ancilla index %d outside [0,%d)", x, per)
		}
		dup := false
		for _, y := range layer {
			if y == x {
				dup = true
				break
			}
		}
		if !dup {
			layer = append(layer, x)
		}
	}
	d.buffer = append(d.buffer, layer)
	if len(d.buffer) >= d.Window {
		d.decodeWindow(false)
	}
	return nil
}

// Flush decodes any remaining buffered layers as a closed window and
// returns all committed corrections, as Decoder.Flush.
func (d *Baseline) Flush() []Correction {
	for len(d.buffer) > 0 {
		d.decodeWindow(true)
	}
	out := d.committed
	d.committed = nil
	d.base = 0
	d.carry = nil
	return out
}

// Committed returns the corrections finalized so far (without flushing).
func (d *Baseline) Committed() []Correction { return d.committed }

func (d *Baseline) decodeWindow(final bool) {
	var g *lattice.Graph
	var dec *core.Decoder
	var layers, commit int
	if final {
		layers = len(d.buffer)
		commit = layers
		g, dec = d.finalDecoder(layers)
	} else {
		layers = d.Window
		commit = d.Commit
		g, dec = d.g, d.dec
	}

	per := d.Distance * (d.Distance - 1)
	d.defects = d.defects[:0]
	for _, x := range d.carry {
		d.seam[x] = !d.seam[x]
	}
	for t := 0; t < layers; t++ {
		for _, x := range d.buffer[t] {
			if t == 0 && d.seam[x] {
				d.seam[x] = false
				continue // carried toggle cancels the event
			}
			d.defects = append(d.defects, int32(t*per)+x)
		}
		if t == 0 {
			for x, on := range d.seam {
				if on {
					d.defects = append(d.defects, x)
					d.seam[x] = false
				}
			}
		}
	}
	d.carry = d.carry[:0]
	sortInt32(d.defects)

	corr := dec.Decode(d.defects)

	for _, ei := range corr {
		e := &g.Edges[ei]
		round := int(e.Round)
		if round >= commit {
			continue
		}
		switch e.Kind {
		case lattice.Spatial:
			d.committed = append(d.committed, Correction{
				Kind: lattice.Spatial, Qubit: e.Qubit, Ancilla: -1,
				Round: d.base + round,
			})
		case lattice.Temporal:
			r, c, _ := g.VertexCoords(e.U)
			x := int32(r*d.Distance + c)
			d.committed = append(d.committed, Correction{
				Kind: lattice.Temporal, Qubit: -1, Ancilla: x,
				Round: d.base + round,
			})
			if round == commit-1 && !g.IsBoundary(e.V) {
				d.carry = append(d.carry, x)
			}
		}
	}

	d.buffer = d.buffer[commit:]
	d.base += commit
}

func (d *Baseline) finalDecoder(layers int) (*lattice.Graph, *core.Decoder) {
	if dec, ok := d.finals[layers]; ok {
		return d.closed[layers], dec
	}
	var g *lattice.Graph
	if layers == 1 {
		g = lattice.New2D(d.Distance)
	} else {
		g = lattice.New3D(d.Distance, layers)
	}
	dec := core.NewDecoder(g, core.Options{})
	d.finals[layers] = dec
	d.closed[layers] = g
	return g, dec
}

func sortInt32(a []int32) {
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
