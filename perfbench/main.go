// Command perfbench is the repository's benchmark: three in-process
// workloads (tc-rmat, serve-wire, stream-rmat) driven through the public
// APIs of masked, server/wire and core/matrix. An untraced run
// (-trace 0) reports the end-to-end metrics of one workload; a traced run
// (-trace 1) records spans around the calls into each layer and reports
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md for
// what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/hostid"
)

// threads is the worker budget every workload runs with: two, or fewer on
// a smaller host, so plans and arbiter shares do not follow the host size.
func threads() int { return min(2, runtime.NumCPU()) }

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short shrinks every input and loop so the benchmark's own test runs
	// all workloads in seconds; the command line never sets it.
	short bool
	// traceDir receives the span file of a traced run.
	traceDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts verified operations; a failed verification or a refused
// request counts as failed.
type tally struct{ attempted, failed int64 }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// workload is one of the benchmark's workloads: run measures the
// end-to-end metrics, traced the per-layer ones.
type workload struct {
	run    func(cfg config) (map[string]metric, tally, error)
	traced func(cfg config, tr *tracer) (map[string]metric, tally, error)
}

var workloads = map[string]workload{
	"tc-rmat": {
		run:    runTC,
		traced: tracedTC,
	},
	"serve-wire": {
		run:    runServe,
		traced: tracedServe,
	},
	"stream-rmat": {
		run:    runStream,
		traced: tracedStream,
	},
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: tc-rmat, serve-wire or stream-rmat")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input and op sequence is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed loop in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.traceDir = filepath.Join(".bench_build", "traces")
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host, _ := json.Marshal(map[string]any{"host": hostMeta(), "workload": cfg.workload, "seed": cfg.seed, "trace": traceFlag})
	fmt.Println(string(host))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one invocation and assembles its result.
func run(cfg config) (result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(threads())
	var (
		m   map[string]metric
		t   tally
		err error
	)
	if cfg.trace {
		m, t, err = runTraced(cfg, w)
	} else {
		m, t, err = w.run(cfg)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if t.attempted == 0 {
		return result{}, fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// runTraced is the per-layer run: the selected workload's traced loop
// (which yields its trace.* metrics and the layer spans), then the layer
// probes of the other workloads, so every traced run reports every
// per-layer metric. Spans are kept in memory and written once at the end.
func runTraced(cfg config, w workload) (map[string]metric, tally, error) {
	tr := newTracer()
	out, total, err := w.traced(cfg, tr)
	if err != nil {
		return nil, total, err
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == cfg.workload {
			continue
		}
		// The other workloads run their loops and probes with span
		// recording off; their trace.* metrics are not reported.
		probeCfg := cfg
		probeCfg.workload = name
		m, t, err := workloads[name].traced(probeCfg, nil)
		if err != nil {
			return nil, total, fmt.Errorf("%s probes: %w", name, err)
		}
		total.merge(t)
		for k, v := range m {
			out[k] = v
		}
	}
	if err := tr.write(cfg, filepath.Join(cfg.traceDir,
		fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
		return nil, total, err
	}
	return out, total, nil
}

// hostMeta describes the machine a result was measured on.
func hostMeta() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"threads":    threads(),
		"cpu_model":  hostid.CPUModel(),
		"go_version": runtime.Version(),
		"goarch":     runtime.GOARCH,
		"host_key":   hostid.Key(),
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// --- timing helpers ---

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minOf returns the smallest value of xs.
func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// endToEnd assembles the five end-to-end metrics from a timed loop's
// per-op latencies (ms), its timed wall time and the set-up times.
func endToEnd(lat []float64, wall time.Duration, setups []float64) map[string]metric {
	return map[string]metric{
		"op_ms":       {median(lat), "ms"},
		"op_p90_ms":   {quantile(lat, 0.9), "ms"},
		"ops_per_s":   {float64(len(lat)) / wall.Seconds(), "1/s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {peakRSSMB(), "MiB"},
	}
}

// setupRuns is how many times each workload sets up per run; setup_s is
// the median. The last set-up is the one the timed loop uses.
const setupRuns = 5

// timeSetup runs setup setupRuns times, tearing down all but the last,
// and returns the last state with every set-up time in seconds. Each
// set-up ends with a forced GC so its garbage is not billed to timed ops.
func timeSetup[S any](setup func() (S, error), teardown func(S)) (S, []float64, error) {
	var (
		st    S
		times []float64
	)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			teardown(st)
		}
		t0 := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, nil, err
		}
		runtime.GC()
		times = append(times, time.Since(t0).Seconds())
	}
	return st, times, nil
}

// mixSeed derives an independent stream seed from the run seed and a
// salt (splitmix64 finalizer).
func mixSeed(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
