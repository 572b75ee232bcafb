package apps

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Breadth-first search expressed in masked products — the primitive's
// original habitat: the paper (§4) traces masking to direction-optimized
// graph traversal [5, 38], where the complement of the visited set masks
// frontier expansion so vertices are never rediscovered.

// BFSResult reports a single-source direction-optimized BFS.
type BFSResult struct {
	// Level[v] is the BFS depth of v, or -1 if unreachable.
	Level []int32
	// Depth is the number of frontier expansions performed.
	Depth int
	// PushSteps and PullSteps count the direction decisions taken.
	PushSteps, PullSteps int
	// TotalTime is the end-to-end latency.
	TotalTime time.Duration
}

// BFS runs a single-source breadth-first search on the graph a (CSR
// adjacency; for directed graphs edges point source→target) using the
// direction-optimized masked SpGEVM: each step computes
// next = ¬visited .* (frontierᵀ·A), switching between the push (MSA) and
// pull (dot) kernels by the [5] heuristic.
func BFS(a *matrix.CSR[float64], source Index, opt core.Options) (BFSResult, error) {
	n := a.NRows
	if source < 0 || source >= n {
		return BFSResult{}, fmt.Errorf("apps: BFS source %d out of range [0,%d)", source, n)
	}
	start := time.Now()
	bcsc := matrix.ToCSC(a)
	sr := semiring.PlusPairF()
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	frontier := &matrix.SparseVec[float64]{N: n, Idx: []Index{source}, Val: []float64{1}}
	visited := frontier.Clone()
	res := BFSResult{}
	stepOpt := opt // one copy: the session's ctx/threads/workspaces ride along
	stepOpt.Complement = true
	for frontier.NNZ() > 0 {
		next, dir, err := core.MaskedSpGEVMAuto(visited, frontier, a, bcsc, sr, stepOpt)
		if err != nil {
			return res, fmt.Errorf("apps: BFS step %d: %w", res.Depth, err)
		}
		if dir == core.Pull {
			res.PullSteps++
		} else {
			res.PushSteps++
		}
		res.Depth++
		if next.NNZ() == 0 {
			break
		}
		for _, v := range next.Idx {
			level[v] = int32(res.Depth)
		}
		visited = matrix.EWiseAddVec(visited, next, func(x, y float64) float64 { return x + y })
		frontier = next
	}
	res.Level = level
	res.TotalTime = time.Since(start)
	return res, nil
}

// MultiSourceBFSResult reports a batched BFS.
type MultiSourceBFSResult struct {
	// Levels[s][v] is the depth of v from sources[s], or -1.
	Levels [][]int32
	// Depth is the deepest level over the batch.
	Depth int
	// MaskedTime is the time inside masked SpGEMM calls.
	MaskedTime time.Duration
	// TotalTime is end-to-end.
	TotalTime time.Duration
}

// MultiSourceBFS runs BFS from every source simultaneously as a b×n
// frontier matrix expanded with complement-masked SpGEMM — the multi-source
// traversal pattern the paper's introduction describes ("any multi-source
// graph traversal where the mask serves as a filter to avoid rediscovery").
func MultiSourceBFS(a *matrix.CSR[float64], sources []Index, eng Engine) (MultiSourceBFSResult, error) {
	start := time.Now()
	n := a.NRows
	b := Index(len(sources))
	res := MultiSourceBFSResult{}
	res.Levels = make([][]int32, len(sources))
	for s := range res.Levels {
		res.Levels[s] = make([]int32, n)
		for v := range res.Levels[s] {
			res.Levels[s][v] = -1
		}
	}
	if b == 0 {
		res.TotalTime = time.Since(start)
		return res, nil
	}
	coo := &matrix.COO[float64]{NRows: b, NCols: n}
	for s, src := range sources {
		if src < 0 || src >= n {
			return res, fmt.Errorf("apps: source %d out of range [0,%d)", src, n)
		}
		coo.Row = append(coo.Row, Index(s))
		coo.Col = append(coo.Col, src)
		coo.Val = append(coo.Val, 1)
		res.Levels[s][src] = 0
	}
	frontier := matrix.NewCSRFromCOO(coo, func(x, y float64) float64 { return 1 })
	visited := frontier.Clone()
	sr := semiring.PlusPairF()
	for frontier.NNZ() > 0 {
		t0 := time.Now()
		next, err := eng.Mult(visited.Pattern(), frontier, a, sr, true)
		res.MaskedTime += time.Since(t0)
		if err != nil {
			return res, fmt.Errorf("apps: multi-source BFS with %s: %w", eng.Name, err)
		}
		if next.NNZ() == 0 {
			break
		}
		res.Depth++
		for s := Index(0); s < b; s++ {
			cols, _ := next.Row(s)
			for _, v := range cols {
				res.Levels[s][v] = int32(res.Depth)
			}
		}
		visited = matrix.EWiseAdd(visited, next, func(x, y float64) float64 { return 1 })
		frontier = next
	}
	res.TotalTime = time.Since(start)
	return res, nil
}

// BFSExact is the reference queue-based BFS for validation.
func BFSExact(a *matrix.CSR[float64], source Index) []int32 {
	n := int(a.NRows)
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[source] = 0
	queue := []Index{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		cols, _ := a.Row(v)
		for _, w := range cols {
			if level[w] < 0 {
				level[w] = level[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return level
}
