package obs_test

import (
	"io"
	"testing"

	"afs/internal/obs"

	// Imported for their registrations: with them, obs.Default() holds
	// every metric a production process exports, so
	// BenchmarkWritePrometheus times a real scrape.
	_ "afs/internal/faults"
	_ "afs/internal/fleet"
	_ "afs/internal/montecarlo"
	_ "afs/internal/stream"
)

// The hot-path primitives run on a scratch registry so the shared metrics
// stay clean. Together with TestABProbe's obs-on vs obs-off pairs in
// internal/stream, these are the observability layer's cost measurements.

func BenchmarkCounterInc(b *testing.B) {
	c := obs.New().NewCounter("bench_counter", "scratch", 0)
	for i := 0; i < b.N; i++ {
		c.Inc(i)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := obs.New().NewHistogram("bench_hist", "scratch", 0, 800, 40, 0)
	for i := 0; i < b.N; i++ {
		h.Observe(i, float64(i&1023))
	}
}

func BenchmarkTraceEmit(b *testing.B) {
	tr := obs.NewTrace(1 << 10)
	ev := obs.Event{TS: 1, Dur: 2, Arg: 3, TID: 0, Kind: obs.EvWindow}
	for i := 0; i < b.N; i++ {
		tr.Emit(ev) // saturates the buffer; drop-counting is the steady state
	}
}

// BenchmarkWritePrometheus renders the default registry in the Prometheus
// text format: the cost one /metrics scrape imposes, off the hot path.
func BenchmarkWritePrometheus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := obs.Default().WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
