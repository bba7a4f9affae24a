// Command perfbench is the repository's benchmark. It runs one workload —
// mc-design, mc-threshold, stream-engine or fleet — through the public
// entry points (afs.MeasureLogicalErrorRate, stream.Engine, fleet.Serve and
// fleet.Dial), checks the outputs, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, round-to-correction latency, peak memory). With -trace 1 a
// traced run times calls into every layer from this package's own code
// and reports the per-layer metrics; its spans are written as JSON lines
// under .bench_build/spans.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string // directory traced runs write their spans to

	// Set by the smoke test only: small inputs, and fixed work (calls MC
	// calls, rounds stream rounds) instead of a time budget when non-zero.
	small  bool
	calls  int
	rounds int
}

func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// fleetRounds rounds the fixed stream-round count up to whole RunRounds
// batches.
func (c config) fleetRounds() int {
	return (c.rounds + fleetBatch - 1) / fleetBatch * fleetBatch
}

var workloads = []string{"mc-design", "mc-threshold", "stream-engine", "fleet"}

// metricDef is one metric a run prints. moves names, for a per-layer
// metric, the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd and perLayer name every metric a run prints with -trace 0 and
// -trace 1 respectively; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"ops_per_s", "ops/s", ""},
	{"latency_p50_us", "us", ""},
	{"latency_p90_us", "us", ""},
	{"peak_rss_mb", "MB", ""},
}

var perLayer = []metricDef{
	{"latency_p99_us", "us", "none: the untraced tail, too noisy for a bound"},
	{"setup.graph_ms", "ms", "setup_s on mc-*"},
	{"setup.engine_ms", "ms", "setup_s on stream-engine"},
	{"setup.dial_ms", "ms", "setup_s on fleet"},
	{"noise.sample_ns_per_trial", "ns", "ops_per_s on mc-design"},
	{"triage.ns_per_trial", "ns", "ops_per_s on mc-design"},
	{"triage.resolved_frac", "ratio", "ops_per_s on mc-design"},
	{"peel.residual_frac", "ratio", "ops_per_s on mc-design"},
	{"uf.decodes_per_trial", "ratio", "ops_per_s on mc-threshold against mc-design"},
	{"uf.defects_per_decode", "count", "ops_per_s on mc-threshold against mc-design"},
	{"uf.ns_per_decode", "ns", "ops_per_s on mc-threshold"},
	{"uf.ns_per_decode_p99", "ns", "ops_per_s on mc-threshold"},
	{"uf.model_ns_mean", "ns", "none: algorithmic Union-Find changes on mc-design"},
	{"mc.parallel_eff", "ratio", "ops_per_s on mc-*"},
	{"stream.ingest_ns_per_round", "ns", "ops_per_s on stream-engine"},
	{"stream.window_ns_p50", "ns", "latency_p50_us on stream-engine"},
	{"stream.window_ns_p99", "ns", "latency_p90_us on stream-engine"},
	{"stream.w0_window_frac", "ratio", "ops_per_s on stream-engine"},
	{"stream.defects_per_window", "count", "ops_per_s on stream-engine"},
	{"engine.parallel_eff", "ratio", "ops_per_s on stream-engine"},
	{"engine.dispatch_ns_per_round", "ns", "latency_p50_us on stream-engine"},
	{"router.send_ns_per_round", "ns", "ops_per_s on fleet"},
	{"router.flush_ms", "ms", "ops_per_s on fleet"},
	{"frame.encode_ns_per_round", "ns", "ops_per_s on fleet"},
	{"frame.decode_ns_per_round", "ns", "ops_per_s on fleet"},
	{"wire.tx_bytes_per_round", "bytes", "ops_per_s on fleet"},
	{"wire.rx_bytes_per_round", "bytes", "ops_per_s on fleet"},
	{"shard.busy_frac", "ratio", "ops_per_s on fleet (which side bounds it)"},
	{"shard.syscalls_per_round", "count", "ops_per_s on fleet"},
	{"fleet.checkpoints_per_kround", "count", "ops_per_s on fleet"},
	{"fleet.gap_vs_engine", "ratio", "ops_per_s on fleet"},
	{"trace.overhead_frac", "ratio", "none: the traced run's own cost"},
	{"trace.uncovered_frac", "ratio", "none: time no layer span accounts for"},
}

func parseFlags(args []string) (config, error) {
	c := config{spans: filepath.Join(".bench_build", "spans")}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload: mc-design, mc-threshold, stream-engine or fleet")
	fs.Uint64Var(&c.seed, "seed", 1, "input seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	c.trace = trace == 1
	if familyOf(c.workload) == "" {
		return c, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloads)
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("-seconds must be positive")
	}
	return c, nil
}

// familyOf maps a workload to the layer family its traced run measures in
// full.
func familyOf(workload string) string {
	switch workload {
	case "mc-design", "mc-threshold":
		return "mc"
	case "stream-engine":
		return "stream"
	case "fleet":
		return "fleet"
	}
	return ""
}

// run executes one workload and returns its report.
func run(cfg config) (*report, error) {
	rep := newReport()
	want := endToEnd
	var err error
	if cfg.trace {
		want = perLayer
		err = runTraced(cfg, rep)
	} else {
		switch familyOf(cfg.workload) {
		case "mc":
			runMC(cfg, rep)
		case "stream":
			err = runStreamEngine(cfg, rep)
		case "fleet":
			err = runFleet(cfg, rep)
		}
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err != nil {
		return nil, err
	}
	for _, m := range want {
		v, ok := rep.Metrics[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rep.fail("metric %s missing or not finite", m.name)
			rep.Metrics[m.name] = metric{-1, m.unit}
		}
	}
	return rep, nil
}

// runTraced measures every layer family, so every traced run reports every
// per-layer metric. The workload's own family gets half the budget and the
// other two (the MC family at the design point) an eighth each; each
// family's passes and set-ups take about twice their budget, so the run
// lasts about as long as an untraced one.
func runTraced(cfg config, rep *report) error {
	rec := newRecorder(fmt.Sprintf("%s/seed=%d/pid=%d", cfg.workload, cfg.seed, os.Getpid()))
	root := rec.begin("run", 0)
	home := familyOf(cfg.workload)
	pt := mcPointFor("mc-design", cfg.small)
	if home == "mc" {
		pt = mcPointFor(cfg.workload, cfg.small)
	}
	for _, fam := range []string{"mc", "stream", "fleet"} {
		b := cfg.budget() / 8
		if fam == home {
			b = cfg.budget() / 2
		}
		var err error
		switch fam {
		case "mc":
			traceMC(cfg, rep, rec, root, pt, b, fam == home)
		case "stream":
			err = traceStream(cfg, rep, rec, root, b, fam == home)
		case "fleet":
			err = traceFleet(cfg, rep, rec, root, b, fam == home)
		}
		if err != nil {
			return err
		}
	}
	total := rec.end(root)
	// Uncovered time: the run's and each family's self time — everything no
	// layer span accounts for.
	uncovered := rec.self(root)
	for _, s := range rec.spans {
		if s.Parent == root {
			uncovered += rec.self(s.ID)
		}
	}
	rep.set("trace.uncovered_frac", float64(uncovered)/float64(total), "ratio")
	return rec.write(filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, c := range rep.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
