package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// smallRun runs one workload at smoke-test size with fixed work.
func smallRun(t *testing.T, workload string, seed uint64, trace bool) *report {
	t.Helper()
	cfg := config{
		workload: workload, seed: seed, seconds: 1, trace: trace,
		spans: t.TempDir(), small: true, calls: 2, rounds: 64,
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	return rep
}

// checkReport asserts every named metric is present with its unit, every
// output check passed and no op failed.
func checkReport(t *testing.T, name string, rep *report, want []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d checks=%v", name, rep.Correct, rep.Attempted, rep.Failed, rep.checks)
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", name, m.name, got, m.unit)
		}
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(rep.Metrics), len(want))
	}
}

func metricNames(rep *report) []string {
	var names []string
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			plain := smallRun(t, w, 1, false)
			checkReport(t, w+" untraced", plain, endToEnd)
			traced := smallRun(t, w, 1, true)
			checkReport(t, w+" traced", traced, perLayer)

			switch familyOf(w) {
			case "mc":
				// The traced kernel replays the untraced run's calls at one
				// worker: the engine's seeding makes failures identical.
				if plain.details["failures"] != traced.details["failures"] {
					t.Errorf("failures: untraced %v, traced %v", plain.details["failures"], traced.details["failures"])
				}
			default:
				// Digests were compared against the reference inside the run
				// (a mismatch fails ops); make sure there was something to
				// compare.
				if plain.details["corrections"] == 0 || plain.details["latency_samples"] == 0 {
					t.Errorf("no corrections or latency samples: %v", plain.details)
				}
			}

			other := smallRun(t, w, 2, false)
			checkReport(t, w+" seed 2", other, endToEnd)
			if other.details["input"] == plain.details["input"] {
				t.Errorf("seeds 1 and 2 drew the same inputs (fingerprint %v)", plain.details["input"])
			}
			a, b := metricNames(plain), metricNames(other)
			if len(a) != len(b) {
				t.Fatalf("metric sets differ across seeds: %v vs %v", a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("metric sets differ across seeds: %v vs %v", a, b)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with the program's tables.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q, want %q", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics, want %d", c.name, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", c.name, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
