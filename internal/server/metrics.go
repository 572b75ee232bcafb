package server

// The /metrics exporter: one snapshot struct serialized two ways —
// Prometheus text exposition for scrapers, JSON for the bench harness and
// humans with curl. All *_total counters are monotonic over the server's
// lifetime; the rest are gauges describing the scrape instant.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/masked"
)

// MetricsSnapshot is one point-in-time reading of every server and
// session counter /metrics exports.
type MetricsSnapshot struct {
	// UptimeSeconds is the time since the server was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// MultiplyRequests counts /v1/multiply requests; MultiplyFrames the
	// request frames inside them (a batch is one request, many frames).
	MultiplyRequests int64 `json:"multiply_requests"`
	MultiplyFrames   int64 `json:"multiply_frames"`
	// TriangleCountRequests and BFSRequests count the app endpoints.
	TriangleCountRequests int64 `json:"triangle_count_requests"`
	BFSRequests           int64 `json:"bfs_requests"`
	// Rejected counts whole-request 429s; Errors other 4xx/5xx responses.
	Rejected int64 `json:"rejected"`
	Errors   int64 `json:"errors"`
	// HandlerPanics counts panics recovered by the handler-level barrier
	// (decode/encode bugs, injected handler faults); SessionPanics those
	// recovered at the session request boundary (kernel and worker panics).
	// Both monotonic; nonzero outside chaos runs means a bug.
	HandlerPanics int64 `json:"handler_panics"`
	SessionPanics int64 `json:"session_panics"`
	// FaultsInjected reports fired fault-injection points by name; nil when
	// fault injection is disabled (the production state).
	FaultsInjected map[string]int64 `json:"faults_injected,omitempty"`
	// BytesIn and BytesOut count request body bytes read and response
	// frame bytes written.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// QueuedFrames is the batch frames currently queued (gauge).
	QueuedFrames int64 `json:"queued_frames"`
	// Intern* report the operand intern table (see intern.go).
	InternHits      int64 `json:"operand_intern_hits"`
	InternMisses    int64 `json:"operand_intern_misses"`
	InternEvictions int64 `json:"operand_intern_evictions"`
	InternEntries   int   `json:"operand_intern_entries"`
	InternBytes     int64 `json:"operand_intern_bytes"`
	// RefHits counts operand references resolved to a held operand (each
	// also counts as an intern hit); RefMisses references the table did
	// not hold, each answered with an unknown-reference error.
	RefHits   int64 `json:"operand_ref_hits"`
	RefMisses int64 `json:"operand_ref_misses"`
	// Session is the unified session snapshot: plan cache, arbiter,
	// driver pools.
	Session masked.Stats `json:"session"`
}

// Metrics reads one snapshot of all counters.
func (sv *Server) Metrics() MetricsSnapshot {
	in := sv.intern.stats()
	sess := sv.sess.Stats()
	return MetricsSnapshot{
		UptimeSeconds:         time.Since(sv.start).Seconds(),
		MultiplyRequests:      sv.nMultiply.Load(),
		MultiplyFrames:        sv.nFrames.Load(),
		TriangleCountRequests: sv.nTC.Load(),
		BFSRequests:           sv.nBFS.Load(),
		Rejected:              sv.nRejected.Load(),
		Errors:                sv.nErrors.Load(),
		BytesIn:               sv.bytesIn.Load(),
		BytesOut:              sv.bytesOut.Load(),
		QueuedFrames:          sv.queuedFrames.Load(),
		InternHits:            in.Hits,
		InternMisses:          in.Misses,
		InternEvictions:       in.Evictions,
		InternEntries:         in.Entries,
		InternBytes:           in.Bytes,
		RefHits:               in.RefHits,
		RefMisses:             in.RefMisses,
		HandlerPanics:         sv.nPanics.Load(),
		SessionPanics:         sess.Panics,
		FaultsInjected:        faultinject.Stats(),
		Session:               sess,
	}
}

// writeProm serializes a snapshot in the Prometheus text exposition
// format (the flat counter/gauge subset — no histograms here; latency
// distributions are the bench study's job).
func writeProm(w io.Writer, m MetricsSnapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("mspgemm_uptime_seconds", "Seconds since the server started.", m.UptimeSeconds)

	fmt.Fprintf(w, "# HELP mspgemm_requests_total Requests served by endpoint.\n# TYPE mspgemm_requests_total counter\n")
	fmt.Fprintf(w, "mspgemm_requests_total{endpoint=\"multiply\"} %d\n", m.MultiplyRequests)
	fmt.Fprintf(w, "mspgemm_requests_total{endpoint=\"triangle_count\"} %d\n", m.TriangleCountRequests)
	fmt.Fprintf(w, "mspgemm_requests_total{endpoint=\"bfs\"} %d\n", m.BFSRequests)

	counter("mspgemm_multiply_frames_total", "Multiply request frames decoded (a batch is many).", m.MultiplyFrames)
	counter("mspgemm_rejected_total", "Whole requests refused with 429 (admission saturated).", m.Rejected)
	counter("mspgemm_errors_total", "Non-429 error responses.", m.Errors)

	fmt.Fprintf(w, "# HELP mspgemm_panics_total Panics recovered at request boundaries.\n# TYPE mspgemm_panics_total counter\n")
	fmt.Fprintf(w, "mspgemm_panics_total{scope=\"handler\"} %d\n", m.HandlerPanics)
	fmt.Fprintf(w, "mspgemm_panics_total{scope=\"session\"} %d\n", m.SessionPanics)

	if len(m.FaultsInjected) > 0 {
		points := make([]string, 0, len(m.FaultsInjected))
		for p := range m.FaultsInjected {
			points = append(points, p)
		}
		sort.Strings(points)
		fmt.Fprintf(w, "# HELP mspgemm_faults_injected_total Fired fault-injection points (chaos runs only).\n# TYPE mspgemm_faults_injected_total counter\n")
		for _, p := range points {
			fmt.Fprintf(w, "mspgemm_faults_injected_total{point=%q} %d\n", p, m.FaultsInjected[p])
		}
	}

	fmt.Fprintf(w, "# HELP mspgemm_bytes_total Wire bytes by direction.\n# TYPE mspgemm_bytes_total counter\n")
	fmt.Fprintf(w, "mspgemm_bytes_total{direction=\"in\"} %d\n", m.BytesIn)
	fmt.Fprintf(w, "mspgemm_bytes_total{direction=\"out\"} %d\n", m.BytesOut)

	gauge("mspgemm_queued_frames", "Batch frames currently queued.", float64(m.QueuedFrames))

	fmt.Fprintf(w, "# HELP mspgemm_operand_intern_total Operand intern table events.\n# TYPE mspgemm_operand_intern_total counter\n")
	fmt.Fprintf(w, "mspgemm_operand_intern_total{event=\"hit\"} %d\n", m.InternHits)
	fmt.Fprintf(w, "mspgemm_operand_intern_total{event=\"miss\"} %d\n", m.InternMisses)
	fmt.Fprintf(w, "mspgemm_operand_intern_total{event=\"eviction\"} %d\n", m.InternEvictions)
	fmt.Fprintf(w, "# HELP mspgemm_operand_ref_total Operand references resolved (hit) or not held (miss, answered unknown-reference).\n# TYPE mspgemm_operand_ref_total counter\n")
	fmt.Fprintf(w, "mspgemm_operand_ref_total{event=\"hit\"} %d\n", m.RefHits)
	fmt.Fprintf(w, "mspgemm_operand_ref_total{event=\"miss\"} %d\n", m.RefMisses)
	gauge("mspgemm_operand_intern_entries", "Resident interned operands.", float64(m.InternEntries))
	gauge("mspgemm_operand_intern_bytes", "Bytes retained by interned operand copies.", float64(m.InternBytes))

	c := m.Session.Cache
	fmt.Fprintf(w, "# HELP mspgemm_plan_cache_total Plan cache events.\n# TYPE mspgemm_plan_cache_total counter\n")
	fmt.Fprintf(w, "mspgemm_plan_cache_total{event=\"hit\"} %d\n", c.Hits)
	fmt.Fprintf(w, "mspgemm_plan_cache_total{event=\"miss\"} %d\n", c.Misses)
	fmt.Fprintf(w, "mspgemm_plan_cache_total{event=\"eviction\"} %d\n", c.Evictions)
	gauge("mspgemm_plan_cache_entries", "Resident cached plans.", float64(c.Entries))
	fmt.Fprintf(w, "# HELP mspgemm_plan_transpose_total Transposes of B for the Inner blocks of cached plans: built on a cache hit and kept while B lives, or reused for the same B arrays.\n# TYPE mspgemm_plan_transpose_total counter\n")
	fmt.Fprintf(w, "mspgemm_plan_transpose_total{event=\"built\"} %d\n", c.TransposeBuilds)
	fmt.Fprintf(w, "mspgemm_plan_transpose_total{event=\"reused\"} %d\n", c.TransposeReuses)
	fmt.Fprintf(w, "# HELP mspgemm_plan_sort_recheck_total Sortedness re-checks of M and A on plan cache hits: run, or skipped because an earlier hit found the same arrays sorted.\n# TYPE mspgemm_plan_sort_recheck_total counter\n")
	fmt.Fprintf(w, "mspgemm_plan_sort_recheck_total{event=\"run\"} %d\n", c.SortRechecks)
	fmt.Fprintf(w, "mspgemm_plan_sort_recheck_total{event=\"skipped\"} %d\n", c.SortRechecksSkipped)
	fmt.Fprintf(w, "# HELP mspgemm_count_operand_total Triangle-count operands: built by a repeated count of a graph and kept while the graph lives, or reused for the same graph arrays.\n# TYPE mspgemm_count_operand_total counter\n")
	fmt.Fprintf(w, "mspgemm_count_operand_total{event=\"built\"} %d\n", c.CountOperandBuilds)
	fmt.Fprintf(w, "mspgemm_count_operand_total{event=\"reused\"} %d\n", c.CountOperandReuses)
	gauge("mspgemm_plan_retained_bytes", "Bytes of the transposes of B kept for later plan cache hits and of the triangle-count operands kept for later counts; each is released once the operand it was built from is collected.", float64(c.RetainedBytes))

	a := m.Session.Arbiter
	gauge("mspgemm_arbiter_budget_workers", "Total session worker budget.", float64(a.Budget))
	gauge("mspgemm_arbiter_granted_workers", "Workers currently granted.", float64(a.Granted))
	gauge("mspgemm_arbiter_inflight", "Requests holding admission slots.", float64(a.Inflight))
	gauge("mspgemm_arbiter_waiting", "Requests queued for admission.", float64(a.Waiting))
	counter("mspgemm_arbiter_admitted_total", "Admission grants ever issued.", a.Admitted)
	counter("mspgemm_arbiter_steals_total", "Workers stolen to fund new admissions.", a.Steals)
	counter("mspgemm_arbiter_topups_total", "Workers rebalanced to running grants.", a.TopUps)
	counter("mspgemm_arbiter_rejected_total", "Non-queuing admissions refused.", a.Rejected)

	p := m.Session.DriverPool
	counter("mspgemm_driver_pool_gets_total", "Driver buffer pool fetches.", p.Gets)
	counter("mspgemm_driver_pool_misses_total", "Pool fetches that allocated.", p.Misses)
}
