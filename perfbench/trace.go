package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the index of the enclosing span (-1 for an op's root span).
type span struct {
	Name    string `json:"name"`
	Op      int64  `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them at the end of a run. It
// is safe for concurrent use (the serve-wire loop traces from two
// clients). A nil *tracer records nothing, so probes run untraced when no
// tracer is given.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: now})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNs = now
	return time.Duration(now - t.spans[i].StartNs)
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, op int64, parent int, f func()) time.Duration {
	i := t.begin(name, op, parent)
	start := time.Now()
	f()
	if t == nil {
		return time.Since(start)
	}
	return t.end(i)
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count        int     `json:"count"`
	TotalMs      float64 `json:"total_ms"`
	SelfMs       float64 `json:"self_ms"`
	MedianMs     float64 `json:"median_ms"`
	MedianSelfMs float64 `json:"median_self_ms"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{max(spans[c].StartNs, s.StartNs), min(spans[c].EndNs, s.EndNs)})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, hi int64 = 0, s.StartNs
		for _, iv := range ivs {
			lo := max(iv[0], hi)
			if iv[1] > lo {
				covered += iv[1] - lo
				hi = iv[1]
			}
		}
		self[i] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// summary aggregates spans by name, with self times.
func (t *tracer) summary() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for i, s := range t.spans {
		durs[s.Name] = append(durs[s.Name], ms(time.Duration(s.EndNs-s.StartNs)))
		selfs[s.Name] = append(selfs[s.Name], ms(self[i]))
	}
	out := make(map[string]spanSummary, len(durs))
	for name, d := range durs {
		var tot, st float64
		for k := range d {
			tot += d[k]
			st += selfs[name][k]
		}
		out[name] = spanSummary{Count: len(d), TotalMs: tot, SelfMs: st,
			MedianMs: median(d), MedianSelfMs: median(selfs[name])}
	}
	return out
}

// write dumps the run's host metadata, span summary and every span as
// JSON to path.
func (t *tracer) write(cfg config, path string) error {
	sum := t.summary()
	t.mu.Lock()
	doc := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"host":     hostMeta(),
		"summary":  sum,
		"spans":    t.spans,
	}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// overheadMetrics reports the traced op time against the untraced one,
// both measured alternately in the same run, and how much of the
// untraced op the blocking-step spans account for.
func overheadMetrics(untraced, traced, steps []float64) map[string]metric {
	u := median(untraced)
	return map[string]metric{
		"trace.overhead_pct":  {100 * (median(traced) - u) / u, "%"},
		"trace.op_ms":         {u, "ms"},
		"trace.steps_ms":      {median(steps), "ms"},
		"trace.steps_gap_pct": {100 * (u - median(steps)) / u, "%"},
	}
}
