package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/planner"
	"repro/masked"
)

// stream-rmat: a seeded sliding-window edge stream on an R-MAT graph. Each
// op is one Session.Update on the triangle product C = L .* (L·L) held as
// a DeltaProduct; the batch inserts fresh edges and deletes the batch
// inserted streamWindow ops earlier, so the graph size is stationary.

// streamWindow is how many ops an inserted edge lives. It is longer than
// the auto-compaction period (about 0.25 / (2 × 0.25%) = 50 ops), so every
// delete hits an edge already folded into the base and compaction recurs
// at a fixed cadence.
const streamWindow = 64

// checkEvery is the op interval of the untimed bit-identity checkpoints.
const checkEvery = 16

// streamShape is the R-MAT scale and edge factor of the streamed graph.
func streamShape(short bool) (scale, edgeFactor int) {
	if short {
		return 9, 8
	}
	return 14, 8
}

func edgeKey(i, j masked.Index) uint64 { return uint64(i)<<32 | uint64(uint32(j)) }

// edgeStream generates the op batches. Inserted edges are uniform random
// strictly lower-triangular entries absent from the current graph. The
// window starts full: its batches are part of the initial graph, so every
// op, the first included, deletes one batch and inserts one.
type edgeStream struct {
	rng     *rand.Rand
	n       int
	present map[uint64]struct{}
	window  [][]masked.Update // inserted batches, oldest at head
	head    int
	size    int
}

// newEdgeStream starts a stream on the R-MAT graph l and returns it with
// the initial graph: l plus the window's edges.
func newEdgeStream(l *masked.Matrix, seed uint64) (*edgeStream, *masked.Matrix) {
	s := &edgeStream{
		rng:     rand.New(rand.NewSource(int64(mixSeed(seed, 7)))),
		n:       int(l.NRows),
		present: make(map[uint64]struct{}, l.NNZ()),
		size:    max(8, l.NNZ()/400), // about 0.25% of the edges
	}
	coo := &masked.COO{NRows: l.NRows, NCols: l.NCols}
	for i := masked.Index(0); i < l.NRows; i++ {
		cols, _ := l.Row(i)
		for _, j := range cols {
			s.present[edgeKey(i, j)] = struct{}{}
			coo.Row, coo.Col, coo.Val = append(coo.Row, i), append(coo.Col, j), append(coo.Val, 1)
		}
	}
	for w := 0; w < streamWindow; w++ {
		batch := s.inserts()
		for _, u := range batch {
			coo.Row, coo.Col, coo.Val = append(coo.Row, u.Row), append(coo.Col, u.Col), append(coo.Val, 1)
		}
		s.window = append(s.window, batch)
	}
	return s, masked.FromCOO(coo)
}

// inserts draws one batch of new edges and marks them present.
func (s *edgeStream) inserts() []masked.Update {
	ins := make([]masked.Update, 0, s.size)
	for len(ins) < s.size {
		i := masked.Index(s.rng.Intn(s.n-1)) + 1
		j := masked.Index(s.rng.Intn(int(i)))
		k := edgeKey(i, j)
		if _, dup := s.present[k]; dup {
			continue
		}
		s.present[k] = struct{}{}
		ins = append(ins, masked.Update{Row: i, Col: j, Val: 1})
	}
	return ins
}

// next returns the next op's batch: the deletes of the oldest window
// batch, then a new batch of inserts.
func (s *edgeStream) next() []masked.Update {
	old := s.window[s.head]
	out := make([]masked.Update, 0, 2*s.size)
	for _, u := range old {
		delete(s.present, edgeKey(u.Row, u.Col))
		out = append(out, masked.Update{Row: u.Row, Col: u.Col, Delete: true})
	}
	ins := s.inserts()
	s.window[s.head] = ins
	s.head = (s.head + 1) % streamWindow
	return append(out, ins...)
}

// streamState is a set-up stream-rmat workload.
type streamState struct {
	sess   *masked.Session
	d      *masked.DeltaMatrix
	p      *masked.DeltaProduct
	stream *edgeStream
	since  int64 // ops since the last checkpoint
}

// setupStream builds the graph and the stream, computes the full product
// (the cold op), and warms up with a few ops and a checkpoint.
func setupStream(cfg config, t *tally) (*streamState, error) {
	ctx := context.Background()
	scale, ef := streamShape(cfg.short)
	stream, l := newEdgeStream(matrix.Tril(grgen.RMAT(scale, ef, mixSeed(cfg.seed, 3))), cfg.seed)
	d, err := masked.NewDeltaMatrix(l)
	if err != nil {
		return nil, err
	}
	st := &streamState{
		sess:   masked.NewSession(masked.WithThreads(threads())),
		d:      d,
		stream: stream,
	}
	st.p = st.sess.NewDeltaProduct(d, d, d, plusPair)
	if _, err := st.sess.MultiplyDelta(ctx, st.p); err != nil {
		return nil, fmt.Errorf("initial product: %w", err)
	}
	for i := 0; i < 8; i++ {
		st.op(ctx, st.stream.next(), t)
	}
	if _, err := st.checkpoint(ctx, t); err != nil {
		return nil, err
	}
	return st, nil
}

// op applies one batch through Session.Update. It is counted now and
// verified at the next checkpoint; an error fails it at once.
func (st *streamState) op(ctx context.Context, batch []masked.Update, t *tally) {
	_, err := st.sess.Update(ctx, st.p, batch)
	t.attempted++
	if err != nil {
		t.failed++
		return
	}
	st.since++
}

// rebuild multiplies the current graph from scratch.
func rebuild(ctx context.Context, sess *masked.Session, d *masked.DeltaMatrix) (*masked.Matrix, error) {
	cur := d.Current()
	return sess.Multiply(ctx, cur.Pattern(), cur, cur, plusPair)
}

// bitEqual reports whether two products are bit-identical.
func bitEqual(a, b *masked.Matrix) bool {
	return matrix.Equal(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkpoint compares the incremental output with a from-scratch multiply
// on the current graph. On a mismatch every op since the previous
// checkpoint counts as failed. It returns the rebuild's duration.
func (st *streamState) checkpoint(ctx context.Context, t *tally) (time.Duration, error) {
	t0 := time.Now()
	want, err := rebuild(ctx, st.sess, st.d)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("rebuild: %w", err)
	}
	if !bitEqual(st.p.Output(), want) {
		t.failed += st.since
	}
	st.since = 0
	return d, nil
}

func runStream(cfg config) (map[string]metric, tally, error) {
	var t tally
	st, setups, err := timeSetup(func() (*streamState, error) { return setupStream(cfg, &t) }, func(*streamState) {})
	if err != nil {
		return nil, t, err
	}
	ctx := context.Background()
	var (
		lat    []float64
		paused time.Duration
	)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 1; time.Now().Before(deadline.Add(paused)); k++ {
		batch := st.stream.next()
		t0 := time.Now()
		st.op(ctx, batch, &t)
		lat = append(lat, ms(time.Since(t0)))
		if k%checkEvery == 0 {
			c0 := time.Now()
			if _, err := st.checkpoint(ctx, &t); err != nil {
				return nil, t, err
			}
			paused += time.Since(c0)
		}
	}
	wall := time.Since(start) - paused
	if _, err := st.checkpoint(ctx, &t); err != nil {
		return nil, t, err
	}
	return endToEnd(lat, wall, setups), t, nil
}

// tracedDelta is the traced twin of the session's product: the same
// stream applied to its own overlay through core.DeltaProduct directly,
// with auto-compaction replaced by the same threshold test done in the
// open, so Apply, Compact and Refresh each get their own span.
type tracedDelta struct {
	d    *masked.DeltaMatrix
	p    *core.DeltaProduct[float64]
	opts core.Options
	mdl  *planner.Model
}

func newTracedDelta(l *masked.Matrix) (*tracedDelta, error) {
	d, err := masked.NewDeltaMatrix(l)
	if err != nil {
		return nil, err
	}
	d.SetMergeThreshold(math.Inf(1))
	return &tracedDelta{
		d:    d,
		p:    core.NewDeltaProduct(d, d, d),
		opts: core.Options{Threads: threads(), Workspaces: core.NewWorkspaces()},
		mdl:  planner.DefaultModel(),
	}, nil
}

// streamSteps are the step times and counts of one traced op.
type streamSteps struct {
	apply, compact, refresh, analyze time.Duration
	compacted                        bool
	frontier, touched                int
}

// mult plans and runs one (sub-)product as the session's delta path does:
// a cold analysis with the default cost model, then the planned kernels.
func (td *tracedDelta) mult(tr *tracer, op int64, parent int, s *streamSteps) core.DeltaMult[float64] {
	return func(m *matrix.Pattern, a, b *masked.Matrix) (*masked.Matrix, error) {
		var pl *planner.Plan
		s.analyze += tr.do("planner.analyze", op, parent, func() {
			pl = planner.AnalyzeModel(m, a.Pattern(), b.Pattern(), td.opts, td.mdl)
		})
		var (
			c   *masked.Matrix
			err error
		)
		tr.do("core.execute", op, parent, func() {
			c, err = planner.Execute(pl, m, a, b, masked.PlusPair(), td.opts, nil)
		})
		return c, err
	}
}

// op applies one batch with a span per step.
func (td *tracedDelta) op(tr *tracer, op int64, batch []masked.Update) (streamSteps, error) {
	var (
		s   streamSteps
		err error
	)
	rows := map[masked.Index]struct{}{}
	for _, u := range batch {
		rows[u.Row] = struct{}{}
	}
	s.touched = len(rows)
	root := tr.begin("stream.op", op, -1)
	defer tr.end(root)
	s.apply = tr.do("matrix.apply", op, root, func() { err = td.p.Apply(core.DeltaAll, batch) })
	if err != nil {
		return s, err
	}
	if float64(td.d.Pending()) > matrix.DefaultMergeThreshold*float64(max(td.d.Base().NNZ(), 1)) {
		s.compacted = true
		s.compact = tr.do("matrix.compact", op, root, td.p.Compact)
	}
	var frontier []masked.Index
	refresh := tr.begin("core.refresh", op, root)
	t0 := time.Now()
	_, frontier, err = td.p.Refresh(td.mult(tr, op, refresh, &s))
	s.refresh = time.Since(t0)
	tr.end(refresh)
	s.frontier = len(frontier)
	return s, err
}

// tracedStream is the per-layer run of stream-rmat: each op applies the
// same batch to the session's product (untraced, timed as in the
// end-to-end run) and to the traced twin, with checkpoints that time a
// from-scratch rebuild and check both outputs against it.
func tracedStream(cfg config, tr *tracer) (map[string]metric, tally, error) {
	var t tally
	ctx := context.Background()
	st, err := setupStream(cfg, &t)
	if err != nil {
		return nil, t, err
	}
	// Compacting first gives the twin the same base and an empty log, so
	// both products auto-compact on the same ops.
	st.p.Compact()
	td, err := newTracedDelta(st.d.Current())
	if err != nil {
		return nil, t, err
	}
	if _, _, err := td.p.Refresh(td.mult(nil, -1, -1, &streamSteps{})); err != nil {
		return nil, t, fmt.Errorf("traced initial product: %w", err)
	}
	ops := 160
	if cfg.short {
		ops = 32
	}
	var (
		untraced, traced, steps                     []float64
		apply, refresh, analyze, compact, rebuildMs []float64
		frontier, touched                           int
		tracedSince                                 int64
	)
	for k := 1; k <= ops; k++ {
		batch := st.stream.next()
		t0 := time.Now()
		st.op(ctx, batch, &t)
		untraced = append(untraced, ms(time.Since(t0)))

		t0 = time.Now()
		s, err := td.op(tr, int64(k), batch)
		traced = append(traced, ms(time.Since(t0)))
		t.attempted++
		if err != nil {
			t.failed++
		} else {
			tracedSince++
		}
		steps = append(steps, ms(s.apply+s.compact+s.refresh))
		apply = append(apply, float64(s.apply)/float64(time.Microsecond))
		refresh = append(refresh, ms(s.refresh))
		analyze = append(analyze, float64(s.analyze)/float64(time.Microsecond))
		if s.compacted {
			compact = append(compact, ms(s.compact))
		}
		frontier += s.frontier
		touched += s.touched
		if k%checkEvery == 0 || k == ops {
			d, err := st.checkpoint(ctx, &t)
			if err != nil {
				return nil, t, err
			}
			rebuildMs = append(rebuildMs, ms(d))
			if !bitEqual(td.p.Output(), st.p.Output()) {
				t.failed += tracedSince
			}
			tracedSince = 0
		}
	}
	if len(compact) == 0 { // no auto-compaction fell in the loop: time one
		compact = append(compact, ms(tr.do("matrix.compact", int64(ops), -1, td.p.Compact)))
	}
	out := map[string]metric{
		"matrix.apply_us":             {median(apply), "us"},
		"core.refresh_ms":             {median(refresh), "ms"},
		"planner.frontier_analyze_us": {median(analyze), "us"},
		"core.frontier_rows":          {float64(frontier) / float64(ops), "count"},
		"core.frontier_amplification": {float64(frontier) / float64(touched), "ratio"},
		"matrix.compact_ms":           {median(compact), "ms"},
		"core.rebuild_ms":             {median(rebuildMs), "ms"},
		"core.speedup_vs_rebuild":     {median(rebuildMs) / median(untraced), "ratio"},
	}
	if tr != nil {
		for k, v := range overheadMetrics(untraced, traced, steps) {
			out[k] = v
		}
	}
	return out, t, nil
}
