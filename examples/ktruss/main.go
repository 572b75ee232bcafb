// k-truss decomposition (§8.3 of the paper): iteratively compute per-edge
// triangle support with the masked product S = A .* (A·A) and prune edges
// below k-2, until a fixed point. Shows how the mask sparsifies over
// rounds — the effect that makes pull-based (Inner) algorithms competitive
// in this benchmark.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"slices"

	"repro/masked"
)

func main() {
	scale := flag.Int("scale", 11, "R-MAT scale")
	edgeFactor := flag.Int("ef", 16, "R-MAT edge factor")
	k := flag.Int("k", 5, "truss order (paper uses 5)")
	seed := flag.Uint64("seed", 7, "generator seed")
	flag.Parse()

	g := masked.RMAT(*scale, *edgeFactor, *seed)
	fmt.Printf("graph: %d vertices, %d directed edges, k=%d\n", g.NRows, g.NNZ(), *k)

	ctx := context.Background()
	s := masked.NewSession()
	var want *masked.Matrix
	for _, name := range []string{"MSA-1P", "Hash-1P", "Inner-1P", "MCA-1P"} {
		v, err := masked.VariantByName(name)
		if err != nil {
			log.Fatal(err)
		}
		truss, res, err := s.KTruss(ctx, g, *k, masked.WithVariant(v))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %2d iterations  %9d edges kept  %8.3f GFLOPS  masked %v\n",
			name, res.Iterations, truss.NNZ(), res.GFLOPS(), res.MaskedTime.Round(1000))
		if want == nil {
			want = truss
		} else if !slices.Equal(truss.RowPtr, want.RowPtr) || !slices.Equal(truss.Col, want.Col) {
			log.Fatalf("%s kept a different edge set than MSA-1P", name)
		}
	}
}
