package masked_test

import (
	"context"
	"errors"
	"fmt"

	"repro/masked"
)

// diamond returns a small undirected graph with two triangles sharing the
// edge 1-2 (vertices 0-1-2 and 1-2-3), in symmetric CSR storage.
func diamond() *masked.Matrix {
	coo := &masked.COO{NRows: 4, NCols: 4}
	add := func(u, v masked.Index) {
		coo.Row = append(coo.Row, u, v)
		coo.Col = append(coo.Col, v, u)
		coo.Val = append(coo.Val, 1, 1)
	}
	add(0, 1)
	add(0, 2)
	add(1, 2)
	add(1, 3)
	add(2, 3)
	return masked.FromCOO(coo)
}

// ExampleSession_Multiply computes a masked product the triangle-counting
// way: C = L .* (L·L) on the plus-pair semiring, where L is the strictly
// lower triangle of the graph. Summing C counts each triangle once.
func ExampleSession_Multiply() {
	s := masked.NewSession(masked.WithThreads(2))
	ctx := context.Background()

	g := diamond()
	l := masked.Tril(g)
	c, err := s.Multiply(ctx, l.Pattern(), l, l,
		masked.WithAccumulate(masked.PlusPair()))
	if err != nil {
		fmt.Println("multiply:", err)
		return
	}
	fmt.Printf("triangles: %.0f\n", masked.Sum(c))
	// Output:
	// triangles: 2
}

// ExampleSession_TriangleCount runs the paper's §8.2 triangle-counting
// application end to end (degree relabeling, masked product, reduction) on
// the session's planner-backed engine.
func ExampleSession_TriangleCount() {
	s := masked.NewSession()
	res, err := s.TriangleCount(context.Background(), diamond())
	if err != nil {
		fmt.Println("triangle count:", err)
		return
	}
	fmt.Println("triangles:", res.Triangles)
	// Output:
	// triangles: 2
}

// ExampleSession_Multiply_cancellation shows that operations honor their
// context: a cancelled context stops the product and surfaces ctx.Err()
// instead of a result.
func ExampleSession_Multiply_cancellation() {
	s := masked.NewSession()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the multiply starts

	g := diamond()
	l := masked.Tril(g)
	_, err := s.Multiply(ctx, l.Pattern(), l, l)
	fmt.Println("cancelled:", errors.Is(err, context.Canceled))
	// Output:
	// cancelled: true
}

// ExampleSession_Explain previews the plan the adaptive path would run —
// including the algorithm chosen per row block — without executing the
// product.
func ExampleSession_Explain() {
	s := masked.NewSession()
	g := diamond()
	l := masked.Tril(g)

	plan := s.Explain(l.Pattern(), l, l)
	fmt.Println("blocks:", len(plan.Blocks))
	fmt.Println("algorithm:", plan.Blocks[0].Alg)
	fmt.Println("schedule:", plan.Schedule())
	// Output:
	// blocks: 1
	// algorithm: MSA
	// schedule: equal-row
}

// ExampleSession_MultiplyBatch serves a batch of masked products
// concurrently on one session: requests are admitted up to the WithInflight
// cap, each runs on a worker share arbitrated from its planner cost
// estimate, and identical requests — here the repeated hot triangle query —
// are computed once and share the result (Coalesced reports it). Responses
// arrive in request order, bit-identical to sequential execution.
func ExampleSession_MultiplyBatch() {
	s := masked.NewSession(masked.WithThreads(2), masked.WithInflight(2))
	g := diamond()
	l := masked.Tril(g)
	hot := masked.BatchReq{ // the popular query, submitted three times
		M: l.Pattern(), A: l, B: l,
		Opts: []masked.Op{masked.WithAccumulate(masked.PlusPair())},
	}
	cold := masked.BatchReq{M: g.Pattern(), A: g, B: g} // a singleton

	res := s.MultiplyBatch(context.Background(), []masked.BatchReq{hot, hot, hot, cold})
	computed := 0
	for _, r := range res {
		if r.Err != nil {
			fmt.Println("batch:", r.Err)
			return
		}
		if !r.Coalesced {
			computed++
		}
	}
	fmt.Printf("triangles: %.0f (hot query computed %d time(s) for 3 requests)\n",
		masked.Sum(res[0].C), computed-1)
	fmt.Printf("cold result nnz: %d\n", res[3].C.NNZ())
	// Output:
	// triangles: 2 (hot query computed 1 time(s) for 3 requests)
	// cold result nnz: 10
}
