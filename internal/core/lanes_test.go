package core

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"afs/internal/lattice"
	"afs/internal/lut"
	"afs/internal/noise"
)

// laneRef is the per-lane scalar reference for LaneTriage.Classify: weight
// class from the defect count, and the certificate and its parity from
// pairwise L1 distances and the boundary table.
type laneRef struct {
	weight      int
	certified   bool
	single      bool // the lane holds an isolated defect
	tieSingle   bool // the lane holds an isolated defect on a SideTie vertex
	singleNorth bool
}

func refClassify(g *lattice.Graph, bd *lut.Boundary, defs []int32) laneRef {
	ref := laneRef{weight: len(defs), certified: true}
	deg := make([]int, len(defs))
	for i, u := range defs {
		for j, v := range defs {
			if i != j && g.GraphDistance(u, v) == 1 {
				deg[i]++
			}
		}
	}
	// certified: no defect with two adjacent partners, and every isolated
	// defect a strict-side single at boundary distance 1 with no defect at
	// distance 2 and no isolated defect at distance 3.
	for i, u := range defs {
		if deg[i] >= 2 {
			ref.certified = false
		}
		if deg[i] != 0 {
			continue
		}
		ref.single = true
		if bd.Side[u] == lut.SideTie {
			ref.tieSingle = true
			ref.certified = false
		}
		if bd.Dist[u] != 1 {
			ref.certified = false
		}
		for j, v := range defs {
			if d := g.GraphDistance(u, v); d == 2 || d == 3 && deg[j] == 0 {
				ref.certified = false
			}
		}
		if bd.Side[u] == lut.SideNorth {
			ref.singleNorth = !ref.singleNorth
		}
	}
	if !ref.certified {
		ref.singleNorth = false
	}
	return ref
}

// buildPlanes scatters per-lane defect lists into plane + touched-bitmap
// form, optionally marking extra vertices touched with no defects (the
// cancelled-toggle case the classifier must skip). The planes carry the
// always-zero sentinel slot at index g.V, as PlaneGroup does.
func buildPlanes(g *lattice.Graph, lanes [][]int32, extraTouched []int32) (planes, touched []uint64) {
	planes = make([]uint64, g.V+1)
	touched = make([]uint64, (g.V+63)/64)
	for lane, defs := range lanes {
		for _, v := range defs {
			planes[v] |= 1 << uint(lane)
			touched[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	for _, v := range extraTouched {
		touched[v>>6] |= 1 << (uint(v) & 63)
	}
	return planes, touched
}

// randomLanes draws 64 random defect sets: a mix of uniform scatters,
// adjacency walks, adjacent pairs (so pair-only lanes actually occur), and
// empty lanes.
func randomLanes(g *lattice.Graph, rng *rand.Rand) [][]int32 {
	lanes := make([][]int32, 64)
	for lane := range lanes {
		seen := map[int32]bool{}
		add := func(v int32) {
			if !seen[v] {
				seen[v] = true
				lanes[lane] = append(lanes[lane], v)
			}
		}
		switch rng.IntN(5) {
		case 0: // empty or tiny scatter
			for i := rng.IntN(3); i > 0; i-- {
				add(int32(rng.IntN(g.V)))
			}
		case 1: // uniform scatter
			for i := rng.IntN(8); i > 0; i-- {
				add(int32(rng.IntN(g.V)))
			}
		case 2: // an adjacency walk (4-paths and longer chains), sometimes
			// with a domino elsewhere
			cur := int32(rng.IntN(g.V))
			add(cur)
			for step := 1 + rng.IntN(4); step > 0; step-- {
				nbrs := testNeighbors(g, cur)
				cur = nbrs[rng.IntN(len(nbrs))]
				add(cur)
			}
			if rng.IntN(2) == 0 {
				u := int32(rng.IntN(g.V))
				nbrs := testNeighbors(g, u)
				add(u)
				add(nbrs[rng.IntN(len(nbrs))])
			}
		default: // adjacent pairs, sometimes polluted with a scatter
			for i := 1 + rng.IntN(4); i > 0; i-- {
				u := int32(rng.IntN(g.V))
				r, c, t := g.VertexCoords(u)
				var v int32 = -1
				switch rng.IntN(3) {
				case 0:
					if c+1 < g.Distance {
						v = g.VertexID(r, c+1, t)
					}
				case 1:
					if r+1 < g.Distance-1 {
						v = g.VertexID(r+1, c, t)
					}
				default:
					if t+1 < g.Rounds {
						v = g.VertexID(r, c, t+1)
					}
				}
				if v >= 0 {
					add(u)
					add(v)
				}
			}
			if rng.IntN(3) == 0 {
				add(int32(rng.IntN(g.V)))
			}
		}
		sortInt32Test(lanes[lane])
	}
	return lanes
}

// testNeighbors enumerates v's real lattice neighbors from coordinates.
func testNeighbors(g *lattice.Graph, v int32) []int32 {
	r, c, t := g.VertexCoords(v)
	d := g.Distance
	var out []int32
	if t > 0 {
		out = append(out, g.VertexID(r, c, t-1))
	}
	if r > 0 {
		out = append(out, g.VertexID(r-1, c, t))
	}
	if c > 0 {
		out = append(out, g.VertexID(r, c-1, t))
	}
	if c < d-1 {
		out = append(out, g.VertexID(r, c+1, t))
	}
	if r < d-2 {
		out = append(out, g.VertexID(r+1, c, t))
	}
	if t < g.Rounds-1 {
		out = append(out, g.VertexID(r, c, t+1))
	}
	return out
}

func sortInt32Test(a []int32) {
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

func checkClasses(t *testing.T, g *lattice.Graph, bd *lut.Boundary, lt *LaneTriage, lanes [][]int32, laneMask uint64, extra []int32) {
	t.Helper()
	planes, touched := buildPlanes(g, lanes, extra)
	cls := lt.Classify(planes, touched, laneMask)
	wantDefects := 0
	var tieSingles uint64
	for lane, defs := range lanes {
		bit := uint64(1) << uint(lane)
		if bit&laneMask == 0 {
			continue
		}
		wantDefects += len(defs)
		ref := refClassify(g, bd, defs)
		var gotW int
		switch {
		case cls.W0&bit != 0:
			gotW = 0
		case cls.W1&bit != 0:
			gotW = 1
		case cls.W2&bit != 0:
			gotW = 2
		default:
			gotW = 3
		}
		wantW := ref.weight
		if wantW > 3 {
			wantW = 3
		}
		if gotW != wantW {
			t.Fatalf("lane %d: weight class %d, want %d (defects %v)", lane, gotW, wantW, defs)
		}
		if got := cls.Heavy&bit != 0; got != (ref.weight >= 3) {
			t.Fatalf("lane %d: heavy=%v, want %v", lane, got, ref.weight >= 3)
		}
		if got := cls.Certified&bit != 0; got != ref.certified {
			t.Fatalf("lane %d: certified %v, want %v (defects %v)", lane, got, ref.certified, defs)
		}
		if got := cls.SingleParity&bit != 0; got != ref.singleNorth {
			t.Fatalf("lane %d: single parity %v, want %v (defects %v)", lane, got, ref.singleNorth, defs)
		}
		if ref.tieSingle {
			tieSingles |= bit
		}
	}
	if cls.Defects != wantDefects {
		t.Fatalf("defect total %d, want %d", cls.Defects, wantDefects)
	}
	all := cls.W0 | cls.W1 | cls.W2 | cls.Heavy | cls.Certified | cls.SingleParity
	if all != all&laneMask {
		t.Fatal("class masks leak outside the lane mask")
	}
	// One rule behind both entry points: the Monte-Carlo certificate is the
	// stream's, less the lanes whose tie-side singles carry no parity.
	var emits [64][]int32
	if fast := lt.ClassifySparse(planes, touched, laneMask, &emits); cls.Certified != fast&^tieSingles {
		t.Fatalf("Certified %#x, want ClassifySparse's %#x less tie-single lanes %#x",
			cls.Certified, fast, tieSingles)
	}
	// The compact defect list must enumerate exactly the nonzero plane
	// words, in ascending vertex order.
	prev := int32(-1)
	for i, v := range lt.DefV {
		if v <= prev {
			t.Fatalf("DefV not ascending at %d: %v", i, lt.DefV)
		}
		prev = v
		if lt.DefW[i] != planes[v] || planes[v] == 0 {
			t.Fatalf("DefW[%d] = %x, want nonzero %x", i, lt.DefW[i], planes[v])
		}
	}
}

// Steady-state lane classification must not allocate: every scratch slice
// — the defect list and the single rule's isoV/isoM/isoPlane — is
// preallocated in NewLaneTriage or retained at its high-water mark across
// Classify calls.
func TestLaneClassifyZeroAllocSteadyState(t *testing.T) {
	g := lattice.New3D(7, 7)
	lt := NewLaneTriage(g)
	rng := rand.New(rand.NewPCG(21, 7))
	const groups = 8
	planes := make([][]uint64, groups)
	touched := make([][]uint64, groups)
	for i := range planes {
		planes[i], touched[i] = buildPlanes(g, randomLanes(g, rng), nil)
		lt.Classify(planes[i], touched[i], ^uint64(0)) // reach the high-water mark
	}
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		lt.Classify(planes[i%groups], touched[i%groups], ^uint64(0))
		i++
	})
	if avg != 0 {
		t.Fatalf("LaneTriage.Classify allocates %.1f times per call in steady state", avg)
	}
}

// A second classifier on one graph must share that graph's tables, not
// rebuild them: it may allocate only its own scratch (about 30 KB at d=11
// against about 1 MB for the tables).
func TestNewLaneTriageSharesGraphTables(t *testing.T) {
	g := lattice.Cached3D(11, 11)
	first := NewLaneTriage(g)
	var best uint64 = 1 << 62
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		second := NewLaneTriage(g)
		runtime.ReadMemStats(&after)
		if second.laneTables != first.laneTables {
			t.Fatal("second classifier on one graph built its own tables")
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best >= 64<<10 {
		t.Fatalf("second NewLaneTriage on one graph allocated %d bytes, want < 64 KB", best)
	}
}

// Classifiers on one graph share read-only tables and own their scratch,
// so two of them driven from two goroutines must give exactly the results
// one classifier gives serially. Run under -race, this also checks that
// no classification path writes the shared tables.
func TestLaneTriageConcurrentInstancesAgree(t *testing.T) {
	for _, g := range []*lattice.Graph{lattice.Cached3D(5, 5), lattice.Cached3DWindow(5, 5)} {
		rng := rand.New(rand.NewPCG(5, uint64(g.V)))
		const groups = 40
		type result struct {
			cls   LaneClasses
			fast  uint64
			emits [64][]int32
		}
		planes := make([][]uint64, groups)
		touched := make([][]uint64, groups)
		for i := range planes {
			planes[i], touched[i] = buildPlanes(g, randomLanes(g, rng), nil)
		}
		run := func(lt *LaneTriage) []result {
			out := make([]result, groups)
			for i := range out {
				r := &out[i]
				r.cls = lt.Classify(planes[i], touched[i], ^uint64(0))
				r.fast = lt.ClassifySparse(planes[i], touched[i], ^uint64(0), &r.emits)
			}
			return out
		}
		want := run(NewLaneTriage(g))
		var got [2][]result
		var wg sync.WaitGroup
		for w := range got {
			lt := NewLaneTriage(g)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = run(lt)
			}()
		}
		wg.Wait()
		for w := range got {
			for i, r := range got[w] {
				if r.cls != want[i].cls || r.fast != want[i].fast {
					t.Fatalf("V=%d goroutine %d group %d: classes %+v fast %#x, serial %+v fast %#x",
						g.V, w, i, r.cls, r.fast, want[i].cls, want[i].fast)
				}
				for lane := 0; lane < 64; lane++ {
					if r.fast>>uint(lane)&1 != 0 && !slices.Equal(r.emits[lane], want[i].emits[lane]) {
						t.Fatalf("V=%d goroutine %d group %d lane %d: emits %v, serial %v",
							g.V, w, i, lane, r.emits[lane], want[i].emits[lane])
					}
				}
			}
		}
	}
}

// BenchmarkNewLaneTriage measures a classifier's construction once its
// graph's tables exist (d=11 closed cycle): the per-worker cost every
// Monte-Carlo point and stream lane shape pays.
func BenchmarkNewLaneTriage(b *testing.B) {
	g := lattice.Cached3D(11, 11)
	NewLaneTriage(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLaneSink = NewLaneTriage(g)
	}
}

var benchLaneSink *LaneTriage

// LaneTriage must agree lane for lane with the scalar reference, on closed
// graphs (no ties) and window graphs (temporal-boundary ties).
func TestLaneTriageMatchesScalarReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *lattice.Graph
	}{
		{"closed-5x5", lattice.New3D(5, 5)},
		{"closed-3x3", lattice.New3D(3, 3)},
		{"window-5x5", lattice.New3DWindow(5, 5)},
	} {
		g := tc.g
		bd := lut.NewBoundary(g)
		lt := NewLaneTriage(g)
		rng := rand.New(rand.NewPCG(42, uint64(g.V)))
		for trial := 0; trial < 60; trial++ {
			lanes := randomLanes(g, rng)
			var extra []int32
			for i := 0; i < 5; i++ {
				extra = append(extra, int32(rng.IntN(g.V)))
			}
			mask := ^uint64(0)
			if trial%3 == 1 {
				// Partial group: dead-lane defect sets must be ignored.
				k := 1 + rng.IntN(63)
				mask = ^uint64(0) >> uint(64-k)
			}
			live := lanes
			if mask != ^uint64(0) {
				live = make([][]int32, 64)
				for lane := range lanes {
					if mask&(1<<uint(lane)) != 0 {
						live[lane] = lanes[lane]
					}
				}
			}
			checkClasses(t, g, bd, lt, live, mask, extra)
		}
	}
}

// Every certified lane must be a syndrome the scalar certificate resolves
// whole (empty residual) with the same parity — when it is small enough
// for the peel at all. Larger certified lanes (beyond maxTriageDefects)
// are the bit-plane layer's win over the peel.
func TestLaneTriageResolvedAgreesWithScalarTriage(t *testing.T) {
	g := lattice.New3D(7, 7)
	bd := lut.BoundaryFor(g)
	lt := NewLaneTriage(g)
	tri := NewTriage(g)
	rng := rand.New(rand.NewPCG(7, 11))
	pairsChecked, singlesChecked := 0, 0
	for trial := 0; trial < 300 && (pairsChecked < 300 || singlesChecked < 100); trial++ {
		lanes := randomLanes(g, rng)
		planes, touched := buildPlanes(g, lanes, nil)
		cls := lt.Classify(planes, touched, ^uint64(0))
		for lane, defs := range lanes {
			bit := uint64(1) << uint(lane)
			if cls.Certified&bit == 0 || len(defs) > maxTriageDefects || len(defs) < 2 {
				continue
			}
			if refClassify(g, bd, defs).single {
				singlesChecked++
			} else {
				pairsChecked++
			}
			want := cls.SingleParity&bit != 0
			parity, res, _ := tri.PeelResidual(defs)
			if len(res) != 0 || parity != want {
				t.Fatalf("certified lane %v: peel leaves residual %v parity=%v, want none and parity=%v",
					defs, res, parity, want)
			}
		}
	}
	if pairsChecked == 0 || singlesChecked == 0 {
		t.Fatalf("vacuous: pair-only=%d with-single=%d lanes checked", pairsChecked, singlesChecked)
	}
}

// checkFastLanes runs ClassifySparse over one plane group with every
// non-empty lane eligible, as the stream batcher admits them, and pins
// each fast lane to a full Union-Find decode of its window: the lane's
// emits and the decode's correction, both sorted, must be the same edges,
// which is the property a stream commits on; and LaneClusters of the emits
// must equal the decode's Stats.Clusters element for element, which is the
// profile a robust stream is charged. dec runs with the stream's options
// (LeanStats and ClusterStats). It returns the eligible and fast lane
// counts and the fast lanes holding a single.
func checkFastLanes(t *testing.T, g *lattice.Graph, lt *LaneTriage, dec *Decoder, lanes [][]int32, planes, touched []uint64) (eligible, fast, singles int) {
	t.Helper()
	var elig uint64
	for lane, defs := range lanes {
		if len(defs) != 0 {
			elig |= 1 << uint(lane)
			eligible++
		}
	}
	var emits [64][]int32
	mask := lt.ClassifySparse(planes, touched, elig, &emits)
	if mask&^elig != 0 {
		t.Fatalf("%v: fast mask %#x leaks outside eligible lanes %#x", g, mask, elig)
	}
	for lane, defs := range lanes {
		if mask>>uint(lane)&1 == 0 {
			continue
		}
		fast++
		got := slices.Clone(emits[lane])
		want := slices.Clone(dec.Decode(defs))
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%v: fast lane %v: emits %v, full decode %v", g, defs, got, want)
		}
		prof := LaneClusters(g, emits[lane], nil)
		if !slices.Equal(prof, dec.Stats.Clusters) {
			t.Fatalf("%v: fast lane %v: cluster profile %+v, full decode %+v", g, defs, prof, dec.Stats.Clusters)
		}
		if len(prof) != 0 && prof[0].TouchesBoundary {
			singles++
		}
	}
	return eligible, fast, singles
}

// TestClassifySparseMatchesFullDecode pins the stream's lane certificate to
// full Union-Find decodes on sampled windows (checkFastLanes), across the
// stream's window shapes and from the design point to past threshold.
func TestClassifySparseMatchesFullDecode(t *testing.T) {
	groups := 300
	if testing.Short() {
		groups = 40
	}
	lanes := make([][]int32, 64)
	for _, sh := range []struct{ d, w int }{{3, 3}, {5, 5}, {7, 7}, {11, 11}, {4, 6}} {
		var pg noise.PlaneGroup
		g := lattice.Cached3DWindow(sh.d, sh.w)
		lt := NewLaneTriage(g)
		dec := NewDecoder(g, Options{LeanStats: true, ClusterStats: true})
		eligible, fast, singles := 0, 0, 0
		for pi, p := range []float64{1e-3, 5e-3, 2e-2} {
			s := noise.NewPlaneSampler(g, p, 41, uint64(pi), g.NorthCutQubits())
			for n := 0; n < groups; n++ {
				s.SampleGroup(&pg, 64)
				for lane := range lanes {
					lanes[lane] = pg.AppendLaneDefects(lane, lanes[lane][:0])
				}
				e, f, sg := checkFastLanes(t, g, lt, dec, lanes, pg.Defects, pg.Touched)
				eligible += e
				fast += f
				singles += sg
			}
		}
		if fast == 0 || fast == eligible || singles == 0 {
			t.Fatalf("%v: %d of %d eligible lanes fast, %d with a single: fast lanes, singles or gathered lanes never ran",
				g, fast, eligible, singles)
		}
		t.Logf("%v: %d of %d eligible lanes fast (%d with a single), each equal to its full decode", g, fast, eligible, singles)
	}
}

// FuzzLaneClassify feeds fuzzer-chosen defect scatters through Classify
// and cross-checks every lane against the scalar reference, on a closed
// graph and on a window graph (temporal-boundary ties); on the window
// graph it also pins ClassifySparse's fast lanes to full decodes
// (checkFastLanes).
func FuzzLaneClassify(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(64))
	graphs := []*lattice.Graph{lattice.New3D(3, 3), lattice.New3DWindow(4, 4)}
	lts := []*LaneTriage{NewLaneTriage(graphs[0]), NewLaneTriage(graphs[1])}
	dec := NewDecoder(graphs[1], Options{LeanStats: true, ClusterStats: true})
	f.Fuzz(func(t *testing.T, data []byte, kByte uint8) {
		k := 1 + int(kByte)%64
		mask := ^uint64(0) >> uint(64-k)
		for gi, g := range graphs {
			lanes := make([][]int32, 64)
			seen := map[[2]int32]bool{}
			for i := 0; i+1 < len(data); i += 2 {
				lane := int(data[i]) % k
				v := int32(data[i+1]) % int32(g.V)
				key := [2]int32{int32(lane), v}
				if seen[key] {
					continue
				}
				seen[key] = true
				lanes[lane] = append(lanes[lane], v)
			}
			for lane := range lanes {
				sortInt32Test(lanes[lane])
			}
			checkClasses(t, g, lut.BoundaryFor(g), lts[gi], lanes, mask, nil)
			if gi == 1 {
				planes, touched := buildPlanes(g, lanes, nil)
				checkFastLanes(t, g, lts[gi], dec, lanes, planes, touched)
			}
		}
	})
}
