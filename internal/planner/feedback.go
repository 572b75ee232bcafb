package planner

// Online prediction-error feedback. Every executed plan's measured kernel
// time (the drivers' summed per-block worker nanoseconds, core.BlockStat.
// ElapsedNs) is compared against the plan's PredictedNs and folded into an
// EWMA stored on the plan's cache entry. The first FeedbackWarmup executions
// freeze a baseline ratio — so the loop detects *drift* relative to the
// plan's own established accuracy, whatever the model's NsPerUnit — and a
// sustained departure (the EWMA outside FeedbackBand× the baseline for
// FeedbackTrigger consecutive executions, with a tighter re-entry band for
// hysteresis) invalidates the cache entry: the next call re-analyzes with
// current statistics. Mispredictions of that persistence mean the operands' real
// cost structure moved inside their cache bucket, which is exactly when the
// chosen variant may be stale too.

import "sync"

// Feedback-loop tuning. Exported so tests and docs state the contract; the
// values are deliberately conservative — re-planning costs an O(nnz(A))
// analysis, so only sustained multi-× drift triggers it.
const (
	// FeedbackAlpha is the EWMA smoothing factor of the actual/predicted
	// ratio series.
	FeedbackAlpha = 0.25
	// FeedbackWarmup is the number of executions that establish the
	// baseline ratio before drift detection engages.
	FeedbackWarmup = 3
	// FeedbackBand bounds accepted drift: an EWMA outside
	// [baseline/FeedbackBand, baseline×FeedbackBand] counts toward the
	// misprediction streak.
	FeedbackBand = 3.0
	// FeedbackReenterBand is the hysteresis band: the streak only resets
	// once the EWMA is back within [baseline/FeedbackReenterBand,
	// baseline×FeedbackReenterBand]. Between the two bands the streak
	// holds, so a ratio oscillating on the trigger boundary cannot
	// indefinitely dodge — or indefinitely re-arm — invalidation.
	FeedbackReenterBand = 1.5
	// FeedbackTrigger is the consecutive out-of-band execution count that
	// invalidates the cached plan.
	FeedbackTrigger = 4
)

// feedback is the per-entry prediction-error state of one cache entry,
// shared by every copy of the entry's plan and guarded by mu. The struct
// outlives cache eviction (a caller holding an evicted plan keeps recording
// into it harmlessly — invalidation of a no-longer-resident key is a no-op).
type feedback struct {
	mu          sync.Mutex
	key         cacheKey
	ewma        float64 // smoothed actual/predicted ratio
	baseline    float64 // EWMA frozen after FeedbackWarmup executions
	execs       int64   // executions recorded
	streak      int     // consecutive out-of-band executions
	invalidated bool

	// c is the cache the entry was created in, whose memo a hit's Execute
	// reads B's transpose from.
	c *Cache
}

// FeedbackState is a snapshot of one plan's prediction-error feedback, as
// returned by Cache.Record and stamped into ExecStats.
type FeedbackState struct {
	// EWMA is the smoothed actual/predicted time ratio (0 until the first
	// recorded execution).
	EWMA float64
	// Baseline is the frozen warmup EWMA drift is measured against (0 while
	// still warming up).
	Baseline float64
	// Execs is the number of executions recorded against the entry.
	Execs int64
	// Streak is the current consecutive out-of-band execution count.
	Streak int
	// Invalidated reports that the entry was dropped by the feedback loop
	// (recording stops once set).
	Invalidated bool
}

func (fb *feedback) state() FeedbackState {
	return FeedbackState{EWMA: fb.ewma, Baseline: fb.baseline, Execs: fb.execs, Streak: fb.streak, Invalidated: fb.invalidated}
}

// ExecStats describes one observed execution of a plan, stamped by the
// masked session on the plan copy it returns (cached plans are shared and
// never mutated — see TestExplainExecStampImmutable).
type ExecStats struct {
	// ActualNs is the execution's summed per-block worker kernel time.
	ActualNs int64
	// BlockNs is the per-plan-block split of ActualNs, index-aligned with
	// Plan.Blocks.
	BlockNs []int64
	// Feedback is the entry's feedback state after recording this
	// execution.
	Feedback FeedbackState
}

// Feedback returns the current feedback state of the plan's cache entry
// (zero value when the plan never entered a cache).
func (p *Plan) Feedback() FeedbackState {
	if p.fb == nil {
		return FeedbackState{}
	}
	p.fb.mu.Lock()
	defer p.fb.mu.Unlock()
	return p.fb.state()
}

// WithExec returns a shallow copy of p stamped with the given execution
// observation (like the session's ops stamp, the copy keeps the cached plan
// immutable). The feedback state and predicted-vs-actual appear in the
// copy's Explain output.
func (p *Plan) WithExec(e ExecStats) *Plan {
	q := *p
	q.Exec = &e
	return &q
}

// Record folds one measured execution of p into its cache entry's feedback
// state: actualNs is the drivers' summed per-block kernel time. It returns
// the post-update state and whether this record invalidated the entry
// (sustained drift — the next Analyze of the product re-plans). Records
// against plans that never entered the cache, zero/negative measurements,
// or unpriced plans (PredictedNs 0) are ignored.
func (c *Cache) Record(p *Plan, actualNs int64) (FeedbackState, bool) {
	if p == nil || p.fb == nil || actualNs <= 0 || !(p.PredictedNs > 0) {
		return FeedbackState{}, false
	}
	ratio := float64(actualNs) / p.PredictedNs
	fb := p.fb
	fb.mu.Lock()
	if fb.invalidated {
		st := fb.state()
		fb.mu.Unlock()
		return st, false
	}
	c.records.Add(1)
	fb.execs++
	if fb.execs == 1 {
		fb.ewma = ratio
	} else {
		fb.ewma = FeedbackAlpha*ratio + (1-FeedbackAlpha)*fb.ewma
	}
	if fb.execs <= FeedbackWarmup {
		fb.baseline = fb.ewma
		st := fb.state()
		fb.mu.Unlock()
		return st, false
	}
	rel := fb.ewma / fb.baseline
	switch {
	case rel > FeedbackBand || rel < 1/FeedbackBand:
		fb.streak++
	case rel < FeedbackReenterBand && rel > 1/FeedbackReenterBand:
		fb.streak = 0
	}
	if fb.streak >= FeedbackTrigger {
		fb.invalidated = true
		st := fb.state()
		fb.mu.Unlock()
		c.invalidate(fb)
		c.replans.Add(1)
		return st, true
	}
	st := fb.state()
	fb.mu.Unlock()
	return st, false
}

// invalidate drops the cache entry fb belongs to, if it is still resident
// and still owned by fb (a concurrent re-analysis may have replaced the
// entry's feedback state, in which case the newer entry survives).
func (c *Cache) invalidate(fb *feedback) {
	sh := c.shard(fb.key)
	sh.mu.Lock()
	if el, ok := sh.plans[fb.key]; ok && el.Value.(*cacheEntry).plan.fb == fb {
		sh.lru.Remove(el)
		delete(sh.plans, fb.key)
	}
	sh.mu.Unlock()
}
