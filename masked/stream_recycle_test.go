package masked

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/planner"
)

// slidingStream is a stationary edge stream on a strictly lower-triangular
// graph: once its window is full, each batch deletes the edges inserted
// window batches earlier and inserts as many new absent edges, so the
// graph's nnz stops changing.
type slidingStream struct {
	rng     *rand.Rand
	n       int
	size    int
	present map[[2]Index]bool
	window  [][]Update
	head    int
}

func newSlidingStream(l *Matrix, window, size int, seed int64) *slidingStream {
	s := &slidingStream{
		rng:     rand.New(rand.NewSource(seed)),
		n:       int(l.NRows),
		size:    size,
		present: make(map[[2]Index]bool, l.NNZ()),
		window:  make([][]Update, window),
	}
	for i := Index(0); i < l.NRows; i++ {
		cols, _ := l.Row(i)
		for _, j := range cols {
			s.present[[2]Index{i, j}] = true
		}
	}
	return s
}

// next returns the next batch: the deletes of the oldest window batch (none
// while the window fills), then a batch of new inserts.
func (s *slidingStream) next() []Update {
	out := make([]Update, 0, 2*s.size)
	for _, u := range s.window[s.head] {
		delete(s.present, [2]Index{u.Row, u.Col})
		out = append(out, Update{Row: u.Row, Col: u.Col, Delete: true})
	}
	ins := make([]Update, 0, s.size)
	for len(ins) < s.size {
		i := Index(s.rng.Intn(s.n-1)) + 1
		j := Index(s.rng.Intn(int(i)))
		if s.present[[2]Index{i, j}] {
			continue
		}
		s.present[[2]Index{i, j}] = true
		ins = append(ins, Update{Row: i, Col: j, Val: 1})
	}
	s.window[s.head] = ins
	s.head = (s.head + 1) % len(s.window)
	return append(out, ins...)
}

// TestStreamRecycledSnapshotsStayPrivate guards the refresh's recycled
// operand snapshots. Only the incremental refresh may read them: every
// snapshot Current returns and every output Update returns must stay
// unchanged for good, and a full product, whose operands the plan cache
// keys on by array identity and whose cache hits reuse B's transpose, must
// get fresh snapshots. The product is C = M .* (G·G) on an R-MAT graph G
// under a sparse R-MAT mask M, so its plan runs Inner, which reads that
// transpose. The first refresh runs with a batch's logs pending, so the
// full product patches a snapshot rather than reading the base, and every
// eighth update a second product on the same overlays runs its full
// product while the overlays' private snapshots are current. Once the
// stream's window is full, G's nnz stays fixed, so a full product handed
// the recycled arrays would hit its earlier cache entry on the same
// arrays, now holding other content, and take a stale transpose. The
// reference products run on a separate session, whose cache is not the
// one under test.
func TestStreamRecycledSnapshotsStayPrivate(t *testing.T) {
	ctx := context.Background()
	g, mask := RMAT(10, 8, 3), Tril(RMAT(10, 2, 4))
	s := NewSession(WithThreads(2), WithAccumulate(PlusPair()))
	ref := NewSession(WithThreads(2), WithAccumulate(PlusPair()))
	if pl := s.Explain(mask.Pattern(), g, g); !slices.ContainsFunc(pl.Blocks, func(b planner.Block) bool { return b.Alg == Inner }) {
		t.Fatalf("fixture plan should have an Inner block:\n%s", pl.Explain())
	}
	dm, err := NewDeltaMatrix(mask)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := NewDeltaMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewDeltaProduct(dm, dg, dg)
	stream := newSlidingStream(g, 8, 24, 5)
	type held struct {
		label     string
		m, frozen *Matrix
	}
	var kept []held
	hold := func(label string, m *Matrix) { kept = append(kept, held{label, m, m.Clone()}) }
	for step := 0; step <= 200; step++ {
		got, err := s.Update(ctx, p, stream.next())
		if err != nil {
			t.Fatalf("update %d: %v", step, err)
		}
		cm, cg := dm.Current(), dg.Current()
		want, err := ref.Multiply(ctx, cm.Pattern(), cg, cg)
		if err != nil {
			t.Fatalf("update %d rebuild: %v", step, err)
		}
		sameBits(t, fmt.Sprintf("update %d", step), got, want)
		hold(fmt.Sprintf("output of update %d", step), got)
		hold(fmt.Sprintf("mask snapshot after update %d", step), cm)
		hold(fmt.Sprintf("graph snapshot after update %d", step), cg)
		if step%8 == 0 {
			q := s.NewDeltaProduct(dm, dg, dg)
			c, err := s.MultiplyDelta(ctx, q)
			if err != nil {
				t.Fatalf("second product at update %d: %v", step, err)
			}
			sameBits(t, fmt.Sprintf("second product at update %d", step), c, want)
			hold(fmt.Sprintf("second product at update %d", step), c)
		}
	}
	for _, h := range kept {
		sameBits(t, h.label+" changed later", h.m, h.frozen)
	}
}

// csrBytes is the size of a's three arrays.
func csrBytes(a *Matrix) int {
	return 4*(len(a.RowPtr)+len(a.Col)) + 8*len(a.Val)
}

// TestStreamUpdateAllocs guards what a warmed stream update allocates. The
// output C is a fresh CSR per Update, and the batch and its frontier cost
// a bounded amount per update; the operand snapshot is recycled, so the
// heap bytes per Update must stay below bytes(C) + bytes(L)/2 +
// perUpdate·batch. An update that allocates a fresh snapshot of L, as
// every one did before the refresh recycled it, takes at least bytes(C) +
// bytes(L) and fails.
func TestStreamUpdateAllocs(t *testing.T) {
	ctx := context.Background()
	_, l := tcOperands(12, 8, 7)
	s := NewSession(WithThreads(2), WithAccumulate(PlusPair()))
	d, err := NewDeltaMatrix(l)
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewDeltaProduct(d, d, d)
	size := max(8, l.NNZ()/400) // about 0.25% of the edges
	stream := newSlidingStream(l, 16, size, 9)
	batches := make([][]Update, 96)
	for k := range batches {
		batches[k] = stream.next()
	}
	if _, err := s.MultiplyDelta(ctx, p); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:32] { // fill the window and grow every buffer
		if _, err := s.Update(ctx, p, b); err != nil {
			t.Fatal(err)
		}
	}
	const perUpdate = 256 // bytes per update of the batch: logs, frontier, sub-product
	var before, after runtime.MemStats
	cBytes, updates := 0, 0
	runtime.ReadMemStats(&before)
	for _, b := range batches[32:] {
		c, err := s.Update(ctx, p, b)
		if err != nil {
			t.Fatal(err)
		}
		cBytes += csrBytes(c)
		updates += len(b)
	}
	runtime.ReadMemStats(&after)
	n := len(batches) - 32
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	bound := float64(cBytes)/float64(n) + float64(csrBytes(d.Current()))/2 + perUpdate*float64(updates)/float64(n)
	t.Logf("%.0f bytes per Update: C %d, L %d, batch %d updates",
		perOp, cBytes/n, csrBytes(d.Current()), updates/n)
	if perOp >= bound {
		t.Fatalf("a warmed Update allocates %.0f bytes, want below %.0f (bytes(C) + bytes(L)/2 + %d per batch update)",
			perOp, bound, perUpdate)
	}
}
