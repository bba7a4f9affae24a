package compress

import (
	"runtime"
	"sync"
	"sync/atomic"

	"afs/internal/lattice"
	"afs/internal/noise"
	"afs/internal/syndrome"
)

// ExperimentConfig drives the compression-ratio measurement of Fig. 15.
type ExperimentConfig struct {
	Distance int
	P        float64
	// Trials is the number of logical cycles sampled; each contributes d
	// per-round frames.
	Trials  int
	Seed    uint64
	Workers int // 0 => GOMAXPROCS
	Cfg     Config
}

// ExperimentResult reports average compression ratios over all sampled
// frames. MeanRatio* is the mean of per-frame (raw bits / encoded bits);
// AggregateRatio is total raw bits over total encoded bits (the bandwidth
// reduction a link actually sees); SchemeWins counts how often the hybrid
// selector picked each scheme.
type ExperimentResult struct {
	Distance        int
	P               float64
	Frames          uint64
	MeanRatioHybrid float64
	MeanRatio       [int(numSchemes)]float64
	AggregateRatio  float64
	SchemeWins      [int(numSchemes)]uint64
	MeanWeight      float64 // mean non-zero bits per frame
}

// experimentChunk is RunExperiment's logical cycles per work chunk.
const experimentChunk = 64

// RunExperiment samples logical cycles under the phenomenological model for
// both error types, forms each round's combined 2d(d-1)-bit frame, and
// measures the compression each scheme achieves. Cycles run in chunks of
// experimentChunk claimed off a shared counter, chunk c drawing its X and Z
// errors from its own streams and merging in chunk order, so the result
// depends on (Seed, Trials) and not on Workers.
func RunExperiment(cfg ExperimentConfig) ExperimentResult {
	layout := syndrome.NewLayout(cfg.Distance)
	gx := lattice.New3D(cfg.Distance, cfg.Distance)

	nChunks := (cfg.Trials + experimentChunk - 1) / experimentChunk
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, nChunks), 1)

	type part struct {
		frames    uint64
		sumHybrid float64
		sum       [int(numSchemes)]float64
		rawBits   uint64
		encBits   uint64
		wins      [int(numSchemes)]uint64
		weight    uint64
	}
	parts := make([]part, nChunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comp := New(layout, cfg.Cfg)
			// X- and Z-error streams are sampled independently; the two
			// graphs are congruent, so one geometry serves both.
			sx := noise.NewSampler(gx, cfg.P, cfg.Seed^0x5a5a, 1)
			sz := noise.NewSampler(gx, cfg.P, cfg.Seed^0xa5a5, 2)
			var tx, tz noise.Trial
			var fx, fz []noise.Bitset
			var combined noise.Bitset
			for {
				c := int(next.Add(1) - 1)
				if c >= nChunks {
					return
				}
				sx.Reseed(cfg.Seed^0x5a5a, 2*uint64(c)+1)
				sz.Reseed(cfg.Seed^0xa5a5, 2*uint64(c)+2)
				pt := &parts[c]
				for i := c * experimentChunk; i < min((c+1)*experimentChunk, cfg.Trials); i++ {
					sx.Sample(&tx)
					sz.Sample(&tz)
					fx = syndrome.RoundFrames(gx, tx.Defects, fx)
					fz = syndrome.RoundFrames(gx, tz.Defects, fz)
					for t := 0; t < gx.Rounds; t++ {
						syndrome.Combine(layout, fx[t], fz[t], &combined)
						pt.frames++
						pt.weight += uint64(combined.PopCount())
						best, bestSize := comp.Best(combined)
						pt.wins[best]++
						pt.sumHybrid += float64(comp.FrameBits()) / float64(bestSize)
						pt.rawBits += uint64(comp.FrameBits())
						pt.encBits += uint64(bestSize)
						for s := DZC; s < numSchemes; s++ {
							size := comp.SizeScheme(s, combined)
							pt.sum[s] += float64(comp.FrameBits()) / float64(size)
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	var res ExperimentResult
	res.Distance, res.P = cfg.Distance, cfg.P
	var tot part
	for i := range parts {
		tot.frames += parts[i].frames
		tot.sumHybrid += parts[i].sumHybrid
		tot.rawBits += parts[i].rawBits
		tot.encBits += parts[i].encBits
		tot.weight += parts[i].weight
		for s := 0; s < int(numSchemes); s++ {
			tot.sum[s] += parts[i].sum[s]
			tot.wins[s] += parts[i].wins[s]
		}
	}
	res.Frames = tot.frames
	res.SchemeWins = tot.wins
	if tot.frames > 0 {
		res.MeanRatioHybrid = tot.sumHybrid / float64(tot.frames)
		res.MeanWeight = float64(tot.weight) / float64(tot.frames)
		for s := 0; s < int(numSchemes); s++ {
			res.MeanRatio[s] = tot.sum[s] / float64(tot.frames)
		}
	}
	if tot.encBits > 0 {
		res.AggregateRatio = float64(tot.rawBits) / float64(tot.encBits)
	}
	return res
}
