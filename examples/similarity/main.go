// Masked inner-product similarity — the data-analytics use case the
// paper's abstract motivates: score only *candidate* item pairs of F·Fᵀ
// rather than materializing the full (quadratic) similarity matrix. The
// candidate mask comes from feature co-occurrence, and the masked SpGEMM
// computes exactly the wanted dot products.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"repro/internal/apps"
	"repro/masked"
)

func main() {
	items := flag.Int("items", 2000, "number of items")
	features := flag.Int("features", 500, "number of distinct features")
	perItem := flag.Float64("per-item", 8, "average features per item")
	minShared := flag.Int("min-shared", 2, "co-occurrence threshold for candidate pairs")
	seed := flag.Uint64("seed", 21, "generator seed")
	flag.Parse()

	// Synthetic item-feature matrix.
	f := masked.NewEmpty(0, 0)
	_ = f
	fm := rectFeatures(masked.Index(*items), masked.Index(*features), *perItem, *seed)
	fmt.Printf("features: %d items x %d features, %d entries\n", fm.NRows, fm.NCols, fm.NNZ())

	cand := apps.TopKCandidates(fm, *minShared, 64)
	fmt.Printf("candidates: %d pairs (%.4f%% of all pairs)\n", cand.NNZ(),
		100*float64(cand.NNZ())/(float64(fm.NRows)*float64(fm.NRows)))

	v, _ := masked.VariantByName("Hash-1P")
	s := masked.NewSession()
	res, err := s.CosineSimilarity(context.Background(), fm, cand, masked.WithVariant(v))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scored %d pairs, masked time %v\n", res.Pairs, res.MaskedTime.Round(1000))

	type pair struct {
		i, j masked.Index
		cos  float64
	}
	var top []pair
	for i := masked.Index(0); i < res.Scores.NRows; i++ {
		cols, vals := res.Scores.Row(i)
		for k := range cols {
			if cols[k] > i {
				top = append(top, pair{i, cols[k], vals[k]})
			}
		}
	}
	sort.Slice(top, func(a, b int) bool { return top[a].cos > top[b].cos })
	fmt.Println("top-5 most similar candidate pairs:")
	for _, p := range top[:min(5, len(top))] {
		fmt.Printf("  items %5d, %5d: cosine %.4f\n", p.i, p.j, p.cos)
	}
}

// rectFeatures builds a random items×features matrix via the public COO API.
func rectFeatures(items, features masked.Index, perItem float64, seed uint64) *masked.Matrix {
	// splitmix64-style generator for determinism without importing rand.
	state := seed*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	coo := &masked.COO{NRows: items, NCols: features}
	target := int(float64(items) * perItem)
	for e := 0; e < target; e++ {
		coo.Row = append(coo.Row, masked.Index(next()%uint64(items)))
		coo.Col = append(coo.Col, masked.Index(next()%uint64(features)))
		coo.Val = append(coo.Val, 1+float64(next()%3))
	}
	return masked.FromCOO(coo)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
