package core

import (
	"reflect"
	"testing"

	"afs/internal/lattice"
)

// FuzzDecodeArbitraryDefects feeds arbitrary byte strings as defect
// selections and checks the decoder's fundamental contract: it never
// panics, terminates, and its correction reproduces the syndrome exactly.
// The seed corpus runs as part of `go test`; `go test -fuzz=FuzzDecode`
// explores further.
func FuzzDecodeArbitraryDefects(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 254, 253, 0, 0, 1})
	g := lattice.New3D(4, 4)
	dec := NewDecoder(g, Options{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Interpret bytes as vertex picks; dedupe and sort.
		seen := make(map[int32]bool)
		var defects []int32
		for _, b := range raw {
			v := int32(int(b) % g.V)
			if !seen[v] {
				seen[v] = true
				defects = append(defects, v)
			}
		}
		sortInt32(defects)
		corr := dec.Decode(defects)
		got := SyndromeOf(g, corr)
		if len(got) == 0 && len(defects) == 0 {
			return
		}
		if !reflect.DeepEqual(got, defects) {
			t.Fatalf("correction does not reproduce syndrome:\n got  %v\n want %v", got, defects)
		}
	})
}
