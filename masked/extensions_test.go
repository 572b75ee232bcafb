package masked

import (
	"context"
	"testing"
)

func TestBFSFacade(t *testing.T) {
	g := ErdosRenyi(200, 5, 41)
	ctx, s := context.Background(), NewSession()
	res, err := s.BFS(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Level) != 200 || res.Level[0] != 0 {
		t.Fatal("BFS levels")
	}
	ms, err := s.MultiSourceBFS(ctx, g, []Index{0, 5}, WithVariant(Variants()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Levels) != 2 {
		t.Fatal("multi-source levels")
	}
	// Single- and multi-source agree for the shared source.
	for v := range res.Level {
		if res.Level[v] != ms.Levels[0][v] {
			t.Fatalf("vertex %d: %d vs %d", v, res.Level[v], ms.Levels[0][v])
		}
	}
}

func TestCosineSimilarityFacade(t *testing.T) {
	f := FromCOO(&COO{
		NRows: 3, NCols: 2,
		Row: []Index{0, 1, 2, 2},
		Col: []Index{0, 0, 0, 1},
		Val: []float64{1, 2, 2, 1},
	})
	cand := FromCOO(&COO{
		NRows: 3, NCols: 3,
		Row: []Index{0, 1}, Col: []Index{1, 0}, Val: []float64{1, 1},
	}).Pattern()
	res, err := NewSession().CosineSimilarity(context.Background(), f, cand, WithVariant(Variants()[0]))
	if err != nil {
		t.Fatal(err)
	}
	// Items 0 and 1 are colinear: cosine 1.
	cols, vals := res.Scores.Row(0)
	if len(cols) != 1 || cols[0] != 1 || vals[0] != 1 {
		t.Fatalf("cosine(0,1) = %v %v", cols, vals)
	}
}
