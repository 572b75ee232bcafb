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
