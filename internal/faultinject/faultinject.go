// Package faultinject is the deterministic fault-injection registry behind
// the resilience layer's chaos testing. Production code threads named
// injection points through the wire codec, the server handlers, the serving
// session and the parallel runtime; a test (or a server started with
// -faults / MSPGEMM_FAULTS) installs a Registry arming some of those points,
// and every armed point then fires panics, delays, corruption or forced
// slow paths on a seed-driven schedule. The chaos suite asserts the stack
// survives each fault class with bit-identical results.
//
// # Zero cost when disabled
//
// The registry is installed in a package-level atomic pointer whose default
// is nil. Every hook (Fire, Sleep) starts with one atomic load and returns
// immediately when no registry is installed, so instrumented hot paths pay
// a single predictable branch in production.
//
// # Determinism
//
// A Registry is seeded explicitly (Parse's seed= key, New's argument).
// Probability rules draw from one seeded math/rand source under the
// registry mutex, so a fixed seed yields the same fire/no-fire sequence for
// the same sequence of evaluations; every:N rules fire on a modular counter
// with no randomness at all; limit:N caps total fires, which lets a test
// arm "fail the first k evaluations, then heal" schedules whose eventual
// success is guaranteed, not probabilistic.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injection point names wired through the repository. A Registry can arm
// any string, but these are the points production code evaluates.
const (
	// PointWireTruncate truncates an encoded frame sequence before it is
	// handed to the transport (detected as wire.ErrTruncated by the peer).
	PointWireTruncate = "wire.truncate"
	// PointWireBitflip flips one payload bit after checksumming (detected
	// as wire.ErrChecksum by the peer).
	PointWireBitflip = "wire.bitflip"
	// PointServerPanic panics inside an HTTP handler after the body is
	// read (recovered by the server's panic barrier into a 500).
	PointServerPanic = "server.handler.panic"
	// PointServerSlow sleeps the rule's delay inside a handler before
	// execution (exercises deadlines and drain under latency).
	PointServerSlow = "server.handler.slow"
	// PointInternMiss forces an operand intern lookup to miss, driving the
	// full revalidate-and-copy path for an operand the table already holds.
	PointInternMiss = "server.intern.miss"
	// PointInternRefMiss forces an operand reference lookup to miss, as if
	// the entry had just been evicted: the server answers "unknown
	// reference" and the client must resend the operands inline.
	PointInternRefMiss = "server.intern.ref_miss"
	// PointKernelPanic panics inside Session.execute, under the serving
	// layer's recover barrier and the arbiter grant (tests leak-free panic
	// recovery on the kernel path).
	PointKernelPanic = "masked.kernel.panic"
	// PointArbiterStall sleeps the rule's delay before a serving request
	// asks the arbiter for admission (exercises admission queue timing and
	// saturation under slow admission).
	PointArbiterStall = "masked.arbiter.stall"
	// PointWorkerPanic panics on a parallel worker goroutine, exercising
	// the re-panic-to-coordinator machinery in internal/parallel.
	PointWorkerPanic = "parallel.worker.panic"
	// PointDeltaApply panics inside Session.Update after the edge batch
	// has landed in the delta overlays but before the incremental
	// recompute (tests that a mid-update panic retains the dirty frontier
	// so a retried refresh recovers bit-identically).
	PointDeltaApply = "delta.apply"
)

// Rule arms one injection point.
type Rule struct {
	// Point is the injection point name the rule arms.
	Point string
	// Rate is the per-evaluation fire probability in [0, 1], drawn from the
	// registry's seeded source. Ignored when Every is set.
	Rate float64
	// Every fires deterministically on every Nth evaluation of the point
	// (1 = every evaluation). Overrides Rate when positive.
	Every int
	// Limit caps the total number of fires (0 = unlimited). After the
	// limit the point never fires again — the "fail k times, then heal"
	// schedule the chaos suite's guaranteed-recovery cases use.
	Limit int
	// Delay is how long delay points (Sleep) block when the rule fires.
	Delay time.Duration
}

// ruleState is a rule plus its evaluation counters.
type ruleState struct {
	Rule
	evals int64
	fires int64
}

// Registry holds armed rules and the seeded randomness they share. Install
// it process-wide with Set; a nil registry means every point is disabled.
type Registry struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]*ruleState
}

// New returns an empty registry whose probability rules draw from a source
// seeded with seed.
func New(seed int64) *Registry {
	return &Registry{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]*ruleState),
	}
}

// Add arms a rule, replacing any existing rule for the same point.
func (r *Registry) Add(rule Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules[rule.Point] = &ruleState{Rule: rule}
}

// evaluate decides whether the point fires this evaluation.
func (r *Registry) evaluate(point string) (fire bool, delay time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.rules[point]
	if !ok {
		return false, 0
	}
	st.evals++
	if st.Limit > 0 && st.fires >= int64(st.Limit) {
		return false, 0
	}
	switch {
	case st.Every > 0:
		fire = st.evals%int64(st.Every) == 0
	default:
		fire = r.rng.Float64() < st.Rate
	}
	if fire {
		st.fires++
	}
	return fire, st.Delay
}

// Stats returns the fired count per armed point (points that never fired
// report 0). The map is a copy.
func (r *Registry) Stats() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.rules))
	for p, st := range r.rules {
		out[p] = st.fires
	}
	return out
}

// active is the installed registry; nil (the default) disables every point.
var active atomic.Pointer[Registry]

// Set installs r as the process-wide registry (nil uninstalls). Chaos tests
// install a registry for one scenario and Set(nil) when done.
func Set(r *Registry) { active.Store(r) }

// Enabled reports whether a registry is installed.
func Enabled() bool { return active.Load() != nil }

// Fire evaluates point against the installed registry and reports whether
// the fault should trigger now. One atomic load and a return when no
// registry is installed.
func Fire(point string) bool {
	r := active.Load()
	if r == nil {
		return false
	}
	fire, _ := r.evaluate(point)
	return fire
}

// Sleep evaluates point and, when it fires, blocks for the rule's Delay.
// One atomic load and a return when no registry is installed.
func Sleep(point string) {
	r := active.Load()
	if r == nil {
		return
	}
	if fire, delay := r.evaluate(point); fire && delay > 0 {
		time.Sleep(delay)
	}
}

// Stats returns the installed registry's fired counts, nil when none is
// installed. The /metrics exporter surfaces it as
// mspgemm_faults_injected_total.
func Stats() map[string]int64 {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.Stats()
}

// Parse builds a registry from a -faults / MSPGEMM_FAULTS spec: semicolon-
// separated entries, each either "seed=N" or "point=params" with params a
// comma-separated list of a bare probability ("0.3"), "every:N", "limit:N"
// and "delay:DURATION". Example:
//
//	seed=7;server.handler.panic=0.3,limit:10;server.handler.slow=every:2,delay:20ms;wire.bitflip=1.0,limit:1
//
// An empty spec returns (nil, nil): nothing to install.
func Parse(spec string) (*Registry, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var seed int64 = 1
	var rules []Rule
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		point, params, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: entry %q: want point=params", entry)
		}
		point = strings.TrimSpace(point)
		if point == "seed" {
			v, err := strconv.ParseInt(strings.TrimSpace(params), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: seed %q: %v", params, err)
			}
			seed = v
			continue
		}
		rule := Rule{Point: point}
		for _, p := range strings.Split(params, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			key, val, hasKey := strings.Cut(p, ":")
			if !hasKey {
				rate, err := strconv.ParseFloat(p, 64)
				if err != nil || rate < 0 || rate > 1 {
					return nil, fmt.Errorf("faultinject: %s: probability %q not in [0,1]", point, p)
				}
				rule.Rate = rate
				continue
			}
			switch key {
			case "every":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: %s: every:%q wants a positive integer", point, val)
				}
				rule.Every = n
			case "limit":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultinject: %s: limit:%q wants a positive integer", point, val)
				}
				rule.Limit = n
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faultinject: %s: delay:%q wants a duration", point, val)
				}
				rule.Delay = d
			default:
				return nil, fmt.Errorf("faultinject: %s: unknown param %q", point, p)
			}
		}
		if rule.Rate == 0 && rule.Every == 0 {
			return nil, fmt.Errorf("faultinject: %s: rule needs a probability or every:N", point)
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	r := New(seed)
	for _, rule := range rules {
		r.Add(rule)
	}
	return r, nil
}

// Describe renders the armed rules of a registry in a stable order, for
// startup logs.
func (r *Registry) Describe() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	points := make([]string, 0, len(r.rules))
	for p := range r.rules {
		points = append(points, p)
	}
	sort.Strings(points)
	var b strings.Builder
	for i, p := range points {
		if i > 0 {
			b.WriteString("; ")
		}
		st := r.rules[p]
		switch {
		case st.Every > 0:
			fmt.Fprintf(&b, "%s every %d", p, st.Every)
		default:
			fmt.Fprintf(&b, "%s p=%g", p, st.Rate)
		}
		if st.Limit > 0 {
			fmt.Fprintf(&b, " limit %d", st.Limit)
		}
		if st.Delay > 0 {
			fmt.Fprintf(&b, " delay %s", st.Delay)
		}
	}
	return b.String()
}
