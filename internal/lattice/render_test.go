package lattice

import (
	"strings"
	"testing"
)

func TestRenderDistance3Layout(t *testing.T) {
	g := New2D(3)
	got := g.Render(0, nil, nil)
	want := strings.Join([]string{
		". x . x .",
		"o . o . o",
		". x . x .",
		"o . o . o",
		". x . x .",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("render mismatch:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderGlyphCounts(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		g := New2D(d)
		s := g.Render(0, nil, nil)
		if n := strings.Count(s, string(GlyphData)); n != g.NumDataQubits() {
			t.Errorf("d=%d: %d data glyphs, want %d", d, n, g.NumDataQubits())
		}
		if n := strings.Count(s, string(GlyphZAncilla)); n != d*(d-1) {
			t.Errorf("d=%d: %d Z glyphs, want %d", d, n, d*(d-1))
		}
		if n := strings.Count(s, string(GlyphXAncilla)); n != d*(d-1) {
			t.Errorf("d=%d: %d X glyphs, want %d", d, n, d*(d-1))
		}
	}
}

// markDefects is Render's vertexMark for a defect set: '#' on each defect.
func markDefects(defects ...int32) func(v int32) byte {
	return func(v int32) byte {
		for _, u := range defects {
			if u == v {
				return '#'
			}
		}
		return 0
	}
}

func TestRenderMarksErrorAndDefects(t *testing.T) {
	g := New2D(3)
	// An error on the central horizontal qubit flips its two row ancillas.
	q := g.HorizontalQubit(0, 0)
	e := g.SpatialEdge(q, 0)
	ed := g.Edges[e]
	got := g.Render(0, func(u int32) byte {
		if u == q {
			return 'E'
		}
		return 0
	}, markDefects(ed.U, ed.V))
	want := strings.Join([]string{
		". x . x .",
		"# E # . o",
		". x . x .",
		"o . o . o",
		". x . x .",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("syndrome render mismatch:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderLayerSelectsVertices(t *testing.T) {
	g := New3D(3, 3)
	v := g.VertexID(0, 0, 2) // defect in layer 2 only
	layer0 := g.Render(0, nil, markDefects(v))
	layer2 := g.Render(2, nil, markDefects(v))
	if strings.Contains(layer0, "#") {
		t.Fatal("layer 0 shows a layer-2 defect")
	}
	if !strings.Contains(layer2, "#") {
		t.Fatal("layer 2 misses its defect")
	}
}
