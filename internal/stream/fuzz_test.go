package stream

import (
	"slices"
	"testing"

	"afs/internal/core"
	"afs/internal/lattice"
)

// FuzzStreamArbitraryLayers feeds arbitrary detection-event layers
// (including duplicates) and checks the streaming invariant: the committed
// corrections toggle exactly the fed detection events, for any input.
func FuzzStreamArbitraryLayers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 7, 7, 255, 0, 0, 9, 9})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	const d = 4
	per := d * (d - 1)
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := New(d, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Interpret the bytes as (round, events) groups of 3 events each.
		rounds := len(raw)/3 + 1
		if rounds > 24 {
			rounds = 24
		}
		fed := map[[2]int32]bool{} // (round, ancilla) -> present
		for r := 0; r < rounds; r++ {
			var events []int32
			for k := 0; k < 3 && r*3+k < len(raw); k++ {
				x := int32(int(raw[r*3+k]) % per)
				if !fed[[2]int32{int32(r), x}] {
					fed[[2]int32{int32(r), x}] = true
					events = append(events, x)
				}
				// Feed the duplicate anyway: PushLayer must ignore it.
				events = append(events, x)
			}
			dec.PushLayer(events)
		}
		corr := dec.Flush()

		// The corrections' detection-event toggles must equal fed.
		g := lattice.New3D(d, rounds)
		marks := map[int32]bool{}
		toggle := func(v int32) {
			if !g.IsBoundary(v) {
				marks[v] = !marks[v]
			}
		}
		for _, c := range corr {
			switch c.Kind {
			case lattice.Spatial:
				e := g.Edges[g.SpatialEdge(c.Qubit, c.Round)]
				toggle(e.U)
				toggle(e.V)
			case lattice.Temporal:
				toggle(int32(c.Round*per) + c.Ancilla)
				toggle(int32((c.Round+1)*per) + c.Ancilla)
			}
		}
		for key := range fed {
			marks[key[0]*int32(per)+key[1]] = !marks[key[0]*int32(per)+key[1]]
		}
		for v, odd := range marks {
			if odd {
				t.Fatalf("vertex %d unexplained after streaming arbitrary layers", v)
			}
		}
	})
}

// fuzzLayers decodes raw bytes into per-round event lists (3 events per
// round, duplicates preserved so PushLayer's dedup stays under test).
func fuzzLayers(raw []byte, per, maxRounds int) [][]int32 {
	rounds := len(raw)/3 + 1
	if rounds > maxRounds {
		rounds = maxRounds
	}
	out := make([][]int32, rounds)
	for r := 0; r < rounds; r++ {
		for k := 0; k < 3 && r*3+k < len(raw); k++ {
			out[r] = append(out[r], int32(int(raw[r*3+k])%per))
		}
	}
	return out
}

// FuzzStreamMatchesBaseline is the differential fuzz target for the
// streaming rebuild: arbitrary layers, duplicates included, through the
// Decoder and the preserved pre-rebuild Baseline must commit identical
// correction sets, across a window geometry that actually slides.
func FuzzStreamMatchesBaseline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 3, 0, 1, 2})
	f.Add([]byte{9, 14, 2, 9, 14, 2, 9, 14, 2, 1, 1, 1})
	const d, w, c = 4, 4, 2
	per := d * (d - 1)
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := New(d, w, c)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := NewBaseline(d, w, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, layer := range fuzzLayers(raw, per, 24) {
			dec.PushLayer(layer)
			bl.PushLayer(layer)
		}
		got := dec.Flush()
		want := bl.Flush()
		sortCorrections(got)
		sortCorrections(want)
		if !slices.Equal(got, want) {
			t.Fatalf("rebuilt decoder diverged from baseline:\n new  %v\n base %v", got, want)
		}
	})
}

// FuzzStreamMonolithicWindowMatchesClosedDecode checks the streaming-vs-
// monolithic parity property in its exact form: when the window exceeds the
// stream length it never slides, so Flush must reproduce a direct closed-
// graph core decode edge for edge.
func FuzzStreamMonolithicWindowMatchesClosedDecode(f *testing.F) {
	f.Add([]byte{0, 5, 11})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	const d, maxRounds = 4, 12
	per := d * (d - 1)
	f.Fuzz(func(t *testing.T, raw []byte) {
		layers := fuzzLayers(raw, per, maxRounds)
		if len(layers) < 2 {
			return // a 1-layer stream decodes on the 2-D graph; covered elsewhere
		}
		dec, err := New(d, maxRounds+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var defects []int32
		seen := map[int32]bool{}
		for r, layer := range layers {
			dec.PushLayer(layer)
			for _, x := range layer {
				// Duplicates within a round are ignored by PushLayer (an event
				// either happened or it did not), so dedup, don't toggle.
				v := int32(r*per) + x
				if !seen[v] {
					seen[v] = true
					defects = append(defects, v)
				}
			}
		}
		slices.Sort(defects)

		g := lattice.Cached3D(d, len(layers))
		got := correctionEdges(t, g, dec.Flush())
		want := append([]int32(nil), core.NewDecoder(g, core.Options{}).Decode(defects)...)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("monolithic-window stream decode %v != closed core decode %v", got, want)
		}
	})
}
