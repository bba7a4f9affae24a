// Benchmarks regenerating each of the paper's evaluation artifacts (one
// bench per table and figure — see DESIGN.md §5 for the index) plus the
// ablation studies of DESIGN.md §6. Domain results are attached to the
// benchmark output via ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both exercises every experiment pipeline and reports its headline number
// (logical error rate, latency, compression ratio, ...) alongside the
// usual ns/op.
package afs_test

import (
	"testing"

	"afs"
	"afs/internal/backlog"
	"afs/internal/cda"
	"afs/internal/compress"
	"afs/internal/core"
	"afs/internal/hierarchical"
	"afs/internal/lattice"
	"afs/internal/lut"
	"afs/internal/microarch"
	"afs/internal/mwpm"
	"afs/internal/noise"
	"afs/internal/storage"
	"afs/internal/stream"
	"afs/internal/syndrome"
)

// --- Figure 3: MWPM baseline accuracy -----------------------------------

func BenchmarkFig3_MWPMPerfectMeasurement(b *testing.B) {
	g := lattice.New2D(7)
	dec := mwpm.NewDecoder(g)
	s := noise.NewSampler(g, 5e-3, 3, 1)
	cut := g.NorthCutQubits()
	var trial noise.Trial
	var residual noise.Bitset
	failures := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(&trial)
		corr := dec.Decode(trial.Defects)
		residual.Resize(g.NumDataQubits())
		residual.Clear()
		for _, e := range corr {
			residual.Flip(int(g.Edges[e].Qubit))
		}
		residual.Xor(trial.NetData)
		if residual.Parity(cut) {
			failures++
		}
	}
	b.ReportMetric(float64(failures)/float64(b.N), "LER")
}

func BenchmarkFig3_MWPMNoisyMeasurement(b *testing.B) {
	// One iteration = one logical cycle of the repeated-2-D protocol.
	r, err := afs.MeasureLogicalErrorRate(afs.AccuracyConfig{
		Distance: 5, P: 5e-3, Trials: uint64(b.N),
		Decoder: afs.MWPM, Repeated2D: true, Seed: 5, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.LogicalErrorRate, "LER")
}

// --- Figure 8: AFS accuracy ----------------------------------------------

func BenchmarkFig8_AFSLogicalErrorRate(b *testing.B) {
	r, err := afs.MeasureLogicalErrorRate(afs.AccuracyConfig{
		Distance: 5, P: 5e-3, Trials: uint64(b.N), Seed: 8, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.LogicalErrorRate, "LER")
	b.ReportMetric(afs.HeuristicLogicalErrorRate(5, 5e-3), "LER-Eq1")
}

// --- §IV-E: dedicated-decoder latency ------------------------------------

func BenchmarkLatencyDedicated(b *testing.B) {
	g := lattice.New3DWindow(11, 11)
	dec := core.NewDecoder(g, core.Options{})
	s := noise.NewSampler(g, 1e-3, 4, 1)
	model := microarch.Model{}
	var trial noise.Trial
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(&trial)
		dec.Decode(trial.Defects)
		total += model.Latency(&dec.Stats).Exposed
	}
	b.ReportMetric(total/float64(b.N), "model-ns/decode")
}

// --- Table I / Table II / Figure 9: storage ------------------------------

func BenchmarkTable1_Storage(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += storage.ForQubit(11).TotalBits() + storage.ForQubit(25).TotalBits()
	}
	b.ReportMetric(storage.KB(storage.ForQubit(11).TotalBits()), "KB@d11")
	_ = sink
}

func BenchmarkTable2_CDAStorage(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += storage.ForSystem(1000, 11, true).TotalBits()
	}
	b.ReportMetric(storage.Reduction(1000, 11), "reduction-x")
	_ = sink
}

func BenchmarkFig9_MemoryScaling(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, l := range []int{1, 10, 100, 1000} {
			sink += storage.ForSystem(l, 11, false).TotalBits()
		}
	}
	b.ReportMetric(storage.MB(storage.ForSystem(1000, 11, false).TotalBits()), "MB@1000q")
	_ = sink
}

// --- Figure 12: CDA contention -------------------------------------------

func BenchmarkFig12_CDALatency(b *testing.B) {
	pool := latencyPool(b, 11, 1e-3, 50000)
	b.ResetTimer()
	r := cda.Simulate(cda.Config{}, pool, b.N, 12)
	b.ReportMetric(r.Summary.Mean, "mean-ns")
	b.ReportMetric(r.Summary.P999, "p99.9-ns")
}

// --- §V-F: threshold-regime decoding -------------------------------------

func BenchmarkThreshold(b *testing.B) {
	g := lattice.New3D(7, 7)
	dec := core.NewDecoder(g, core.Options{})
	s := noise.NewSampler(g, afs.UFThreshold, 6, 1)
	var trial noise.Trial
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(&trial)
		dec.Decode(trial.Defects)
	}
}

// --- Figure 13: bandwidth -------------------------------------------------

func BenchmarkFig13_Bandwidth(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for d := 3; d <= 25; d += 2 {
			sink += afs.RequiredBandwidthGbps(1000, d, 400)
		}
	}
	b.ReportMetric(afs.RequiredBandwidthGbps(1000, 11, 400), "Gbps@d11")
	_ = sink
}

// --- Figure 15: compression -----------------------------------------------

func BenchmarkFig15_Compression(b *testing.B) {
	layout := syndrome.NewLayout(11)
	comp := compress.New(layout, compress.Config{})
	g := lattice.New3D(11, 11)
	s := noise.NewSampler(g, 1e-3, 15, 1)
	var trial noise.Trial
	var frames []noise.Bitset
	var combined noise.Bitset
	var rawBits, encBits int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(&trial)
		frames = syndrome.RoundFrames(g, trial.Defects, frames)
		for t := range frames {
			syndrome.Combine(layout, frames[t], frames[t], &combined)
			_, size := comp.Best(combined)
			rawBits += comp.FrameBits()
			encBits += size
		}
	}
	if encBits > 0 {
		b.ReportMetric(float64(rawBits)/float64(encBits), "aggregate-ratio")
	}
}

// --- Backlog model (latency constraint, §II-C) ----------------------------

func BenchmarkBacklogStability(b *testing.B) {
	pool := exposedPool(b, 11, 1e-3, 20000)
	b.ResetTimer()
	r := backlog.Simulate(backlog.Config{ArrivalNS: 400, Jobs: b.N, Seed: 9}, pool)
	b.ReportMetric(r.Utilization, "utilization")
}

// --- Ablations (DESIGN.md §6) ---------------------------------------------

func BenchmarkAblationUnionFind(b *testing.B) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"no-weighted-union", core.Options{DisableWeightedUnion: true}},
		{"no-path-compression", core.Options{DisablePathCompression: true}},
		{"neither", core.Options{DisableWeightedUnion: true, DisablePathCompression: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			g := lattice.New3DWindow(11, 11)
			dec := core.NewDecoder(g, v.opts)
			s := noise.NewSampler(g, 1e-2, 7, 1)
			var trial noise.Trial
			var accesses uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(&trial)
				dec.Decode(trial.Defects)
				accesses += dec.Stats.RootTableAccesses + dec.Stats.SizeTableAccesses
			}
			b.ReportMetric(float64(accesses)/float64(b.N), "table-accesses/decode")
		})
	}
}

func BenchmarkAblationPipeline(b *testing.B) {
	for _, v := range []struct {
		name  string
		model microarch.Model
	}{
		{"pipelined", microarch.Model{}},
		{"serial", microarch.Model{DisablePipeline: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			g := lattice.New3DWindow(11, 11)
			dec := core.NewDecoder(g, core.Options{})
			s := noise.NewSampler(g, 1e-3, 8, 1)
			var trial noise.Trial
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(&trial)
				dec.Decode(trial.Defects)
				total += v.model.Latency(&dec.Stats).Exposed
			}
			b.ReportMetric(total/float64(b.N), "model-ns/decode")
		})
	}
}

func BenchmarkAblationGrowthCost(b *testing.B) {
	for _, v := range []struct {
		name  string
		model microarch.Model
	}{
		{"full-edge-iterations", microarch.Model{}},
		{"half-edge-sweeps", microarch.Model{HalfEdgeGrowthCost: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			g := lattice.New3DWindow(11, 11)
			dec := core.NewDecoder(g, core.Options{})
			s := noise.NewSampler(g, 1e-3, 8, 1)
			var trial noise.Trial
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(&trial)
				dec.Decode(trial.Defects)
				total += v.model.Latency(&dec.Stats).Exposed
			}
			b.ReportMetric(total/float64(b.N), "model-ns/decode")
		})
	}
}

// BenchmarkAblationZDR uses the access-count latency model to quantify the
// Zero Data Register: with it, the DFS Engine reads only occupied STM
// rows; without it, every row is scanned every decode.
func BenchmarkAblationZDR(b *testing.B) {
	g := lattice.New3DWindow(11, 11)
	for _, v := range []struct {
		name    string
		disable bool
	}{
		{"with-zdr", false},
		{"without-zdr", true},
	} {
		b.Run(v.name, func(b *testing.B) {
			m := microarch.NewAccessModel(g)
			m.DisableZDR = v.disable
			dec := core.NewDecoder(g, core.Options{})
			s := noise.NewSampler(g, 1e-3, 31, 1)
			var trial noise.Trial
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(&trial)
				dec.Decode(trial.Defects)
				total += m.Latency(&dec.Stats).Exposed
			}
			b.ReportMetric(total/float64(b.N), "access-ns/decode")
		})
	}
}

func BenchmarkAblationCDASharing(b *testing.B) {
	pool := latencyPool(b, 11, 1e-3, 50000)
	for _, v := range []struct {
		name string
		cfg  cda.Config
	}{
		{"paper-N2-dfs1-corr1", cda.Config{}},
		{"dfs2-corr2", cda.Config{DFSUnits: 2, CorrUnits: 2}},
		{"no-shared-tables", cda.Config{NoSharedTables: true}},
		{"N4-dfs2-corr2", cda.Config{QubitsPerBlock: 4, DFSUnits: 2, CorrUnits: 2}},
	} {
		b.Run(v.name, func(b *testing.B) {
			r := cda.Simulate(v.cfg, pool, b.N, 21)
			b.ReportMetric(r.Summary.Mean, "mean-ns")
			b.ReportMetric(r.EmpiricalTimeoutRate, "timeout-rate")
		})
	}
}

func BenchmarkAblationCompression(b *testing.B) {
	layout := syndrome.NewLayout(11)
	comp := compress.New(layout, compress.Config{})
	g := lattice.New3D(11, 11)
	schemes := []struct {
		name string
		s    compress.Scheme
	}{
		{"dzc", compress.DZC}, {"sparse", compress.Sparse}, {"geo", compress.Geo},
	}
	for _, sc := range schemes {
		b.Run(sc.name, func(b *testing.B) {
			s := noise.NewSampler(g, 1e-3, 16, 1)
			var trial noise.Trial
			var frames []noise.Bitset
			var combined noise.Bitset
			var rawBits, encBits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(&trial)
				frames = syndrome.RoundFrames(g, trial.Defects, frames)
				for t := range frames {
					syndrome.Combine(layout, frames[t], frames[t], &combined)
					rawBits += comp.FrameBits()
					encBits += comp.SizeScheme(sc.s, combined)
				}
			}
			if encBits > 0 {
				b.ReportMetric(float64(rawBits)/float64(encBits), "aggregate-ratio")
			}
		})
	}
}

// BenchmarkAblationDecoderAlgorithms compares decode speed of the three
// implemented decoders on the same 2-D workload.
func BenchmarkAblationDecoderAlgorithms(b *testing.B) {
	g := lattice.New2D(4)
	lutDec, err := lut.New(g)
	if err != nil {
		b.Fatal(err)
	}
	decoders := []struct {
		name string
		dec  interface{ Decode([]int32) []int32 }
	}{
		{"union-find", core.NewDecoder(g, core.Options{})},
		{"mwpm", mwpm.NewDecoder(g)},
		{"lut", lutDec},
	}
	for _, d := range decoders {
		b.Run(d.name, func(b *testing.B) {
			s := noise.NewSampler(g, 1e-2, 17, 1)
			var trial noise.Trial
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(&trial)
				d.dec.Decode(trial.Defects)
			}
		})
	}
}

// BenchmarkHierarchicalOffload measures the two-level decoding scheme of
// §VII-B related work: the first stage absorbs most syndromes at the
// design point, so the mean decode cost drops well below pure Union-Find.
func BenchmarkHierarchicalOffload(b *testing.B) {
	g := lattice.New3DWindow(11, 11)
	for _, v := range []struct {
		name string
		dec  interface{ Decode([]int32) []int32 }
	}{
		{"pure-union-find", core.NewDecoder(g, core.Options{})},
		{"hierarchical", hierarchical.New(g, core.NewDecoder(g, core.Options{}))},
	} {
		b.Run(v.name, func(b *testing.B) {
			s := noise.NewSampler(g, 1e-3, 23, 1)
			var trial noise.Trial
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(&trial)
				v.dec.Decode(trial.Defects)
			}
			if h, ok := v.dec.(*hierarchical.Decoder); ok {
				b.ReportMetric(h.Stats.OffloadFraction(), "offload-fraction")
			}
		})
	}
}

// BenchmarkStreamingDecoder drives the sliding-window decoder over a
// continuous round stream (one iteration = one pushed round, amortizing
// window decodes).
func BenchmarkStreamingDecoder(b *testing.B) {
	const d = 11
	g := lattice.New3D(d, d)
	s := noise.NewSampler(g, 1e-3, 29, 1)
	dec, err := stream.New(d, d, 0)
	if err != nil {
		b.Fatal(err)
	}
	var trial noise.Trial
	per := g.LayerVertices()
	layers := make([][]int32, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%d == 0 {
			s.Sample(&trial)
			for t := range layers {
				layers[t] = layers[t][:0]
			}
			for _, v := range trial.Defects {
				t := int(v) / per
				layers[t] = append(layers[t], int32(int(v)%per))
			}
		}
		dec.PushLayer(layers[i%d])
	}
	b.StopTimer()
	dec.Flush()
}

// --- helpers ---------------------------------------------------------------

func latencyPool(b *testing.B, d int, p float64, trials int) []microarch.Breakdown {
	b.Helper()
	r := microarch.CollectLatencies(microarch.CollectConfig{
		Distance: d, P: p, Trials: trials, Seed: 100, KeepBreakdowns: true,
	})
	return r.Breakdowns
}

func exposedPool(b *testing.B, d int, p float64, trials int) []float64 {
	b.Helper()
	r := microarch.CollectLatencies(microarch.CollectConfig{
		Distance: d, P: p, Trials: trials, Seed: 101,
	})
	return r.ExposedNS
}
