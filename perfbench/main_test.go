package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchSpec is the part of ../BENCHMARK.json the test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

func shortRun(t *testing.T, workload string, seed uint64, trace bool) result {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, seconds: 0.3, trace: trace,
		short: true, traceDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d",
			workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestEveryMetricEmitted runs each workload in short mode, untraced and
// traced, and checks that exactly the metrics BENCHMARK.json names are
// emitted, each with its unit and a finite value, and that every op
// verified.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res := shortRun(t, w.Name, 1, trace)
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s missing", w.Name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s (trace %v): metric %s has unit %q, want %q", w.Name, trace, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s (trace %v): metric %s = %v", w.Name, trace, name, got.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s (trace %v): metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// TestCountsRepeat checks that the layer counts are a function of the
// seed alone: two traced runs with one seed report identical counts.
func TestCountsRepeat(t *testing.T) {
	counts := []string{
		"core.flops", "core.frontier_rows", "core.frontier_amplification",
		"wire.req_kb", "wire.res_kb", "server.intern_hits", "server.intern_misses",
	}
	a := shortRun(t, "stream-rmat", 7, true)
	b := shortRun(t, "stream-rmat", 7, true)
	for _, name := range counts {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s differs between runs of one seed: %v vs %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
}

// TestTraceFile checks that a traced run writes its spans and their self
// times.
func TestTraceFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := run(config{workload: "tc-rmat", seed: 2, seconds: 0.3, trace: true, short: true, traceDir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "tc-rmat-seed2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Host    map[string]any         `json:"host"`
		Summary map[string]spanSummary `json:"summary"`
		Spans   []span                 `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Host["nproc"] == nil || doc.Host["go_version"] == nil {
		t.Errorf("host metadata missing: %v", doc.Host)
	}
	for _, name := range []string{"tc.op", "matrix.relabel", "core.flops", "core.multiply", "apps.reduce"} {
		if doc.Summary[name].Count == 0 {
			t.Errorf("no %s spans in the trace", name)
		}
	}
	for i, s := range doc.Spans {
		if s.EndNs < s.StartNs || s.Parent >= i {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
}

// TestSelfTimes checks self time against a hand-built span tree: a parent
// of 10 ns with children covering [2, 5) and overlapping [4, 7).
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, StartNs: 0, EndNs: 10},
		{Name: "a", Parent: 0, StartNs: 2, EndNs: 5},
		{Name: "b", Parent: 0, StartNs: 4, EndNs: 7},
	}
	got := selfTimes(spans)
	want := []time.Duration{5, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}
