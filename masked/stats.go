package masked

// Unified per-session observability: Session.Stats returns one snapshot of
// the plan cache, the serving arbiter and the driver buffer pools, the
// surface every consumer (the /metrics exporter, perfbench, dashboards)
// reads.

import (
	"repro/internal/core"
	"repro/internal/parallel"
)

// ArbiterStats is a snapshot of the serving arbiter's admission and
// budget accounting; see Stats.Arbiter and parallel.ArbiterStats.
type ArbiterStats = parallel.ArbiterStats

// DriverPoolStats is a snapshot of the session workspace's driver buffer
// pool counters: Gets counts fetches, Misses the subset that had to
// allocate (zero growth once the session is warm).
type DriverPoolStats = core.PoolStats

// Stats is one unified snapshot of a session's observability counters:
// the plan cache, the serving arbiter and the driver buffer pools. The
// monotonic fields within each component (hits, misses, evictions,
// admitted, steals, top-ups, rejections, pool gets/misses) can be
// differenced between two snapshots to rate a serving window; the rest
// describe the moment of the snapshot.
type Stats struct {
	// Cache is the plan cache snapshot.
	Cache CacheStats
	// Arbiter is the serving arbiter snapshot.
	Arbiter ArbiterStats
	// DriverPool is the driver buffer pool snapshot.
	DriverPool DriverPoolStats
	// Panics counts request-boundary panics the serving layer recovered
	// (monotonic). Nonzero values outside chaos tests mean a kernel or
	// planner bug that panic isolation is papering over — investigate.
	Panics int64
}

// Stats returns one snapshot of all the session's observability counters.
// The three components are read in sequence, not atomically with respect
// to each other — fine for dashboards and rate computation, which is what
// snapshots are for.
func (s *Session) Stats() Stats {
	return Stats{
		Cache:      s.cache.Stats(),
		Arbiter:    s.arb.Stats(),
		DriverPool: s.ws.PoolStatsSnapshot(),
		Panics:     s.panics.Load(),
	}
}
