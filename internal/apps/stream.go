package apps

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Streaming graph applications: the incremental counterparts of
// TriangleCount and KTruss for graphs that evolve under an edge stream.
// Both maintain their masked product C = M .* (A·B) through a
// core.DeltaProduct, so each batch recomputes only the dirty-row frontier
// — the rows whose mask/A content changed plus each row i with
// A(i,k) != 0 for a changed B(k,j) whose column j the mask row i holds
// (for the triangle product: the rows that close a triangle on a changed
// edge) — and splices the recomputed rows into the cached output.
// Because every kernel produces bit-identical rows for identical
// inputs, the maintained results equal a from-scratch run on the current
// graph after every batch (stream_test.go checks each prefix against the
// exact references).

// StreamEdge is one undirected edge mutation in a graph stream: insert
// edge {U, V} (or delete it when Delete is set). Self-loops are ignored;
// duplicate inserts and deletes of absent edges are no-ops.
type StreamEdge struct {
	// U and V are the edge's endpoints.
	U, V Index
	// Delete removes the edge instead of inserting it.
	Delete bool
}

// symmetrize expands undirected edge mutations into the symmetric update
// pairs the adjacency overlays consume.
func symmetrize(edges []StreamEdge) []matrix.Update[float64] {
	batch := make([]matrix.Update[float64], 0, 2*len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		batch = append(batch,
			matrix.Update[float64]{Row: e.U, Col: e.V, Val: 1, Delete: e.Delete},
			matrix.Update[float64]{Row: e.V, Col: e.U, Val: 1, Delete: e.Delete})
	}
	return batch
}

// TCStreamStats counts the work a TCStream has done.
type TCStreamStats struct {
	// Batches is the number of non-empty ApplyEdges calls.
	Batches int64
	// RowsRecomputed is the total number of output rows recomputed across
	// all refreshes (the full row count once, then frontier-sized).
	RowsRecomputed int64
}

// TCStream maintains the triangle count of an undirected graph under an
// edge stream. It keeps the strictly lower triangular adjacency L as a
// delta overlay and the masked product C = L .* (L·L) (plus-pair)
// incrementally: each batch recomputes only the frontier rows, so a small
// batch costs a frontier-sized sub-product instead of a full multiply.
// Unlike TriangleCount it does not relabel vertices by degree — the count
// is permutation-invariant, and a stable labeling is what makes streamed
// updates addressable. Not safe for concurrent use.
type TCStream struct {
	l     *matrix.DeltaCSR[float64]
	p     *core.DeltaProduct[float64]
	eng   Engine
	count int64
	stats TCStreamStats
}

// TriangleCountStream starts incremental triangle counting on the
// undirected graph g (symmetric adjacency; self-loops ignored) using eng
// for the masked products. The constructor computes the initial full
// product; ApplyEdges then maintains the count incrementally.
func TriangleCountStream(g *matrix.CSR[float64], eng Engine) (*TCStream, error) {
	if g.NRows != g.NCols {
		return nil, fmt.Errorf("apps: triangle stream wants a square adjacency, got %dx%d", g.NRows, g.NCols)
	}
	l := matrix.Tril(g)
	for i := range l.Val {
		l.Val[i] = 1
	}
	d, err := matrix.NewDeltaCSR(l)
	if err != nil {
		return nil, err
	}
	st := &TCStream{l: d, p: core.NewDeltaProduct(d, d, d), eng: eng}
	if _, err := st.refresh(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *TCStream) mult(msub *matrix.Pattern, asub, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
	return st.eng.Mult(msub, asub, b, semiring.PlusPairF(), false)
}

func (st *TCStream) refresh() (int64, error) {
	c, rows, err := st.p.Refresh(st.mult)
	if err != nil {
		return 0, fmt.Errorf("apps: triangle stream with %s: %w", st.eng.Name, err)
	}
	st.stats.RowsRecomputed += int64(len(rows))
	st.count = int64(matrix.Sum(c))
	return st.count, nil
}

// ApplyEdges applies one batch of undirected edge mutations and returns
// the triangle count of the updated graph. Each edge {u, v} maps to the
// single L entry (max(u,v), min(u,v)). A batch with an out-of-range
// vertex is rejected whole, mutating nothing.
func (st *TCStream) ApplyEdges(edges []StreamEdge) (int64, error) {
	batch := make([]matrix.Update[float64], 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		r, c := e.U, e.V
		if r < c {
			r, c = c, r
		}
		batch = append(batch, matrix.Update[float64]{Row: r, Col: c, Val: 1, Delete: e.Delete})
	}
	if len(batch) == 0 {
		return st.count, nil
	}
	st.stats.Batches++
	if err := st.p.Apply(core.DeltaAll, batch); err != nil {
		return 0, err
	}
	return st.refresh()
}

// Count returns the triangle count of the current graph.
func (st *TCStream) Count() int64 { return st.count }

// Stats returns cumulative work counters.
func (st *TCStream) Stats() TCStreamStats { return st.stats }

// Compact folds the overlay's pending logs into a fresh base; content is
// unchanged. Call it periodically on long streams (see PERFORMANCE.md).
func (st *TCStream) Compact() { st.p.Compact() }

// KTrussStreamStats counts the work a KTrussStream has done.
type KTrussStreamStats struct {
	// Batches is the number of non-empty ApplyEdges calls.
	Batches int64
	// PeelRounds is the total number of peel iterations (rounds that
	// deleted at least one under-supported edge).
	PeelRounds int64
	// RowsRecomputed is the total number of support-matrix rows recomputed
	// across all refreshes of both maintained products.
	RowsRecomputed int64
	// FullPeels counts peels restarted from the full graph. Insertion
	// batches force one (a new edge can revive edges outside the current
	// truss); deletion-only batches never do — the truss only shrinks, so
	// the maintained truss product peels forward from the deleted edges.
	FullPeels int64
}

// KTrussStream maintains the k-truss of an undirected graph under an edge
// stream. It keeps two incrementally maintained support products:
// S_G = G .* (G·G) over the full evolving graph, and S_T over the current
// truss subgraph, both on the plus-pair semiring. A deletion-only batch
// peels the truss product forward from the deleted edges (the k-truss is
// monotone under edge removal, so T(G') equals the truss of T ∩ G');
// a batch with insertions restarts the peel from the full graph, seeded
// with the maintained S_G so even the restart skips the from-scratch
// support multiply. Not safe for concurrent use.
type KTrussStream struct {
	k       int
	support float64
	eng     Engine
	g       *matrix.DeltaCSR[float64]
	gProd   *core.DeltaProduct[float64]
	t       *matrix.DeltaCSR[float64]
	tProd   *core.DeltaProduct[float64]
	truss   *matrix.CSR[float64]
	stats   KTrussStreamStats
}

// NewKTrussStream starts incremental k-truss maintenance on the
// undirected graph g (symmetric adjacency; self-loops dropped) using eng
// for the masked products. k must be at least 3. The constructor runs the
// initial full support multiply and peel; ApplyEdges then maintains the
// truss incrementally.
func NewKTrussStream(g *matrix.CSR[float64], k int, eng Engine) (*KTrussStream, error) {
	if k < 3 {
		return nil, fmt.Errorf("apps: k-truss stream requires k >= 3, got %d", k)
	}
	if g.NRows != g.NCols {
		return nil, fmt.Errorf("apps: k-truss stream wants a square adjacency, got %dx%d", g.NRows, g.NCols)
	}
	norm := matrix.FilterEntries(g, func(i, j Index, _ float64) bool { return i != j })
	for i := range norm.Val {
		norm.Val[i] = 1
	}
	d, err := matrix.NewDeltaCSR(norm)
	if err != nil {
		return nil, err
	}
	st := &KTrussStream{
		k: k, support: float64(k - 2), eng: eng,
		g: d, gProd: core.NewDeltaProduct(d, d, d),
	}
	s, rows, err := st.gProd.Refresh(st.mult)
	if err != nil {
		return nil, fmt.Errorf("apps: k-truss stream with %s: %w", eng.Name, err)
	}
	st.stats.RowsRecomputed += int64(len(rows))
	if err := st.seedPeelFromGraph(s); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *KTrussStream) mult(msub *matrix.Pattern, asub, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
	// The mask is an adjacency (sub)graph, so its density is known without
	// a scan — same representation hint the batch KTruss passes.
	hint := core.HintMaskRep(int64(len(msub.Col)), int64(msub.NRows))
	return st.eng.mult(msub, asub, b, semiring.PlusPairF(), false, hint)
}

// seedPeelFromGraph rebuilds the truss product over the current full graph,
// seeded with s (the maintained S_G, valid for the graph's current
// content), and peels it to the fixed point.
func (st *KTrussStream) seedPeelFromGraph(s *matrix.CSR[float64]) error {
	cur := st.g.Current()
	t, err := matrix.NewDeltaCSR(cur)
	if err != nil {
		return err
	}
	st.t = t
	st.tProd = core.NewDeltaProductSeeded(t, t, t, false, s)
	all := make([]Index, cur.NRows)
	for i := range all {
		all[i] = Index(i)
	}
	return st.peel(all)
}

// underSupported scans the given rows of the truss candidate and collects
// deletion updates (both orientations) for every edge whose support in s
// is below k-2. Edges absent from s have zero support.
func (st *KTrussStream) underSupported(graph, s *matrix.CSR[float64], scan []Index) []matrix.Update[float64] {
	var drops []matrix.Update[float64]
	for _, i := range scan {
		gc, _ := graph.Row(i)
		sc, sv := s.Row(i)
		k := 0
		for _, j := range gc {
			for k < len(sc) && sc[k] < j {
				k++
			}
			sup := 0.0
			if k < len(sc) && sc[k] == j {
				sup = sv[k]
			}
			if sup < st.support {
				drops = append(drops,
					matrix.Update[float64]{Row: i, Col: j, Delete: true},
					matrix.Update[float64]{Row: j, Col: i, Delete: true})
			}
		}
	}
	return drops
}

// peel deletes under-supported edges round by round until the fixed
// point, scanning only the given rows in the first round and only the
// rows each refresh recomputed afterwards (support can only change where
// rows were recomputed).
func (st *KTrussStream) peel(scan []Index) error {
	for len(scan) > 0 {
		drops := st.underSupported(st.t.Current(), st.tProd.Output(), scan)
		if len(drops) == 0 {
			break
		}
		st.stats.PeelRounds++
		if err := st.tProd.Apply(core.DeltaAll, drops); err != nil {
			return err
		}
		_, frontier, err := st.tProd.Refresh(st.mult)
		if err != nil {
			return fmt.Errorf("apps: k-truss stream with %s: %w", st.eng.Name, err)
		}
		st.stats.RowsRecomputed += int64(len(frontier))
		scan = frontier
	}
	st.truss = st.t.Current()
	return nil
}

// ApplyEdges applies one batch of undirected edge mutations and returns
// the k-truss of the updated graph (callers must not mutate it). A batch
// with an out-of-range vertex is rejected whole, mutating nothing.
func (st *KTrussStream) ApplyEdges(edges []StreamEdge) (*matrix.CSR[float64], error) {
	batch := symmetrize(edges)
	if len(batch) == 0 {
		return st.truss, nil
	}
	st.stats.Batches++
	insert := false
	for _, u := range batch {
		if !u.Delete {
			insert = true
			break
		}
	}
	if err := st.gProd.Apply(core.DeltaAll, batch); err != nil {
		return nil, err
	}
	s, rows, err := st.gProd.Refresh(st.mult)
	if err != nil {
		return nil, fmt.Errorf("apps: k-truss stream with %s: %w", st.eng.Name, err)
	}
	st.stats.RowsRecomputed += int64(len(rows))
	if insert {
		st.stats.FullPeels++
		if err := st.seedPeelFromGraph(s); err != nil {
			return nil, err
		}
		return st.truss, nil
	}
	// Deletion-only: peel the maintained truss product forward. Deletes of
	// edges outside the current truss are no-ops there, but still dirty
	// their rows, which the refresh then recomputes cheaply.
	if err := st.tProd.Apply(core.DeltaAll, batch); err != nil {
		return nil, err
	}
	_, tf, err := st.tProd.Refresh(st.mult)
	if err != nil {
		return nil, fmt.Errorf("apps: k-truss stream with %s: %w", st.eng.Name, err)
	}
	st.stats.RowsRecomputed += int64(len(tf))
	if err := st.peel(tf); err != nil {
		return nil, err
	}
	return st.truss, nil
}

// Truss returns the current k-truss (callers must not mutate it).
func (st *KTrussStream) Truss() *matrix.CSR[float64] { return st.truss }

// Stats returns cumulative work counters.
func (st *KTrussStream) Stats() KTrussStreamStats { return st.stats }

// Compact folds both overlays' pending logs into fresh bases; content is
// unchanged. Call it periodically on long streams (see PERFORMANCE.md).
func (st *KTrussStream) Compact() {
	st.gProd.Compact()
	st.tProd.Compact()
}
