// Package core implements the paper's masked sparse matrix-matrix product
// algorithms: C = M .* (A·B) (and the complemented form C = ¬M .* (A·B))
// on an arbitrary semiring.
//
// Six algorithm families are provided, matching §8's evaluation:
//
//	MSA     push-based Gustavson with the Masked Sparse Accumulator (§5.2)
//	Hash    push-based with the hash accumulator (§5.3)
//	MCA     push-based with the Mask Compressed Accumulator (§5.4, novel)
//	Heap    push-based multi-way merge, NInspect=1 (§5.5)
//	HeapDot push-based multi-way merge, NInspect=∞ (§5.5)
//	Inner   pull-based dot products driven by the mask (§4.1)
//
// Every family runs either one-phase (allocate from the mask-derived upper
// bound, multiply once, compact) or two-phase (symbolic pass computes the
// output pattern size, then an exact-allocation numeric pass), reproducing
// the §6 study. All kernels are row-parallel over goroutines with dynamic
// chunk scheduling; workers own reusable accumulator scratch so no per-row
// allocation happens in steady state.
//
// MaskedSpGEMMBlocked layers a *mixed* plan on top of the (algorithm,
// phase) variant grid: each contiguous row block executes its own algorithm
// family under one global phase, with bit-identical results to any
// single-variant run. The adaptive planner (repro/internal/planner) emits
// such plans from the §8 cost model.
//
// Each family tests mask membership the one way the paper gives it: MSA
// and Hash mark the mask row into the accumulator, MCA and Heap merge
// against the sorted mask row, and Inner walks it. Complement is native to
// every family that supports it, so no kernel materializes an explicit
// complement pattern.
//
// Requirements: all kernels assume duplicate-free rows. MCA, Heap, HeapDot
// and Inner additionally require rows (and, for Inner, CSC columns) sorted
// by index, which every builder in internal/matrix guarantees.
package core

import (
	"context"
	"fmt"

	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/semiring"
)

// Index mirrors matrix.Index.
type Index = matrix.Index

// Algorithm selects the masked SpGEMM algorithm family.
type Algorithm uint8

// Algorithm families (§8 naming).
const (
	MSA Algorithm = iota
	Hash
	MCA
	Heap
	HeapDot
	Inner
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case MSA:
		return "MSA"
	case Hash:
		return "Hash"
	case MCA:
		return "MCA"
	case Heap:
		return "Heap"
	case HeapDot:
		return "HeapDot"
	case Inner:
		return "Inner"
	}
	return fmt.Sprintf("Algorithm(%d)", uint8(a))
}

// Phase selects one-phase or two-phase execution (§6).
type Phase uint8

// Execution phases.
const (
	OnePhase Phase = iota
	TwoPhase
)

// String returns the paper's suffix for the phase.
func (p Phase) String() string {
	if p == TwoPhase {
		return "2P"
	}
	return "1P"
}

// Options configures a masked SpGEMM call.
type Options struct {
	// Threads is the number of worker goroutines; 0 means GOMAXPROCS.
	Threads int
	// ThreadsFn, if non-nil, supplies the worker count dynamically and wins
	// over Threads: the drivers consult it at every parallel stage of a
	// call, so a serving arbiter (parallel.Arbiter) can grow a running
	// request's share — released budget rebalanced to stragglers — and have
	// the growth take effect at the request's next stage. Scheduling never
	// changes results, so a mid-call change of worker count is safe.
	ThreadsFn func() int
	// Grain is the number of rows a worker claims per scheduling step;
	// 0 means parallel.DefaultGrain.
	Grain int
	// Complement computes C = ¬M .* (A·B): entries present in M are masked
	// *out*. MCA does not support complemented masks (§8.4) and returns an
	// error; Heap/HeapDot run with NInspect=0 under complement (§5.5).
	Complement bool
	// RowCosts, if non-nil, supplies the per-row cost profile that decides
	// how the drivers distribute rows across workers: a profile marked
	// Skewed is claimed in equal-cost spans, anything else (nil, unskewed,
	// or stale — a length that does not match the row count) in equal-row
	// chunks. The planner attaches the profile its analysis sweep gathers;
	// callers pinning a variant can build one with ComputeRowCosts.
	// Scheduling never changes results — only who computes which rows when.
	RowCosts *RowCosts
	// Ctx, if non-nil, carries a cancellation signal honored cooperatively
	// by the parallel drivers: workers observe it between scheduling chunks
	// and the call returns ctx.Err() without completing the product. Nil
	// means the call cannot be cancelled.
	Ctx context.Context
	// Workspaces, if non-nil, supplies pooled accumulator scratch that is
	// reused across calls instead of reallocated per worker per call.
	// Sessions own one arena for their whole lifetime; see Workspaces.
	Workspaces *Workspaces
	// NowNs, if non-nil, replaces the monotonic clock the blocked drivers
	// time kernel chunks with (BlockStat.ElapsedNs). Tests inject a fake
	// clock here so timing-dependent assertions are deterministic; nil means
	// the real monotonic clock. Timing never changes results.
	NowNs func() int64
}

// Workers resolves the options' worker count for one parallel stage:
// ThreadsFn when set (the dynamic serving path), else Threads (0 still
// means GOMAXPROCS, resolved downstream by parallel.Threads).
func (o Options) Workers() int {
	if o.ThreadsFn != nil {
		return o.ThreadsFn()
	}
	return o.Threads
}

// Err returns the options' context error: non-nil once o.Ctx is cancelled.
func (o Options) Err() error {
	if o.Ctx != nil {
		return o.Ctx.Err()
	}
	return nil
}

// Variant is a named (algorithm, phase) pair, the unit the paper benchmarks
// (e.g. "MSA-1P").
type Variant struct {
	Alg   Algorithm
	Phase Phase
}

// Name returns the paper's label, e.g. "Hash-2P".
func (v Variant) Name() string { return v.Alg.String() + "-" + v.Phase.String() }

// SupportsComplement reports whether the variant can run with a
// complemented mask.
func (v Variant) SupportsComplement() bool { return v.Alg != MCA }

// AllVariants returns the 12 variants evaluated in §8 (6 algorithms × 1P/2P)
// in the paper's presentation order.
func AllVariants() []Variant {
	algs := []Algorithm{MSA, Hash, MCA, Heap, HeapDot, Inner}
	out := make([]Variant, 0, len(algs)*2)
	for _, a := range algs {
		out = append(out, Variant{a, OnePhase}, Variant{a, TwoPhase})
	}
	return out
}

// VariantByName returns the variant with the given paper label ("MSA-1P",
// "Inner-2P", ...).
func VariantByName(name string) (Variant, error) {
	for _, v := range AllVariants() {
		if v.Name() == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("core: unknown variant %q", name)
}

// MaskedSpGEMM computes C = M .* (A·B) (or the complement form per opt)
// over semiring sr using the given variant. M must be m-by-n, A m-by-k and
// B k-by-n. Output rows are sorted.
func MaskedSpGEMM[T any](v Variant, m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], opt Options) (*matrix.CSR[T], error) {
	if err := checkDims(m, a, b); err != nil {
		return nil, err
	}
	if opt.Complement && !v.SupportsComplement() {
		return nil, fmt.Errorf("core: %s does not support complemented masks", v.Alg)
	}
	if err := opt.Err(); err != nil {
		return nil, err
	}
	factory, err := algKernelFactory(v.Alg, m, a, b, nil, sr, opt.Complement, opt.Workspaces)
	if err != nil {
		return nil, err
	}
	bound := allocBound(m, a, b, opt.Complement)
	return runDriver(v.Phase, m, b.NCols, bound, factory, opt)
}

// algKernelFactory builds the per-worker kernel factory for one algorithm
// family. bcsc may be nil; it is only consulted for Inner, where a
// non-nil value avoids re-transposing B (blocked plans share one CSC
// across blocks). ws may be nil (no pooling).
//
// Dispatch happens here: a semiring carrying a recognized named operator
// gets the monomorphized kernel instantiation (Add/Mul inlined); any other
// semiring runs the same kernels through the FuncOps fallback. See OpsMode.
func algKernelFactory[T any](alg Algorithm, m *matrix.Pattern, a, b *matrix.CSR[T], bcsc *matrix.CSC[T], sr semiring.Semiring[T], complement bool, ws *Workspaces) (func() kernel[T], error) {
	if f := specializedFactory(alg, m, a, b, bcsc, sr, complement, ws); f != nil {
		return f, nil
	}
	return opsKernelFactory(alg, m, a, b, bcsc, funcOps(sr), opLoops[T]{}, complement, ws)
}

// ExecBlock assigns an algorithm family to the contiguous row range
// [Lo, Hi) of a blocked (mixed-variant) execution plan. The phase is global
// to the call — the drivers run all blocks under one phase strategy — so a
// block carries only the algorithm family.
type ExecBlock struct {
	Lo, Hi Index
	Alg    Algorithm
}

// BlockStat reports what one block of a blocked execution actually did.
type BlockStat struct {
	// Block is the executed row range and algorithm.
	Block ExecBlock
	// Rows is the number of rows in the block.
	Rows int64
	// MaskNNZ is the number of mask entries in the block's rows.
	MaskNNZ int64
	// OutNNZ is the number of output entries the block produced.
	OutNNZ int64
	// ElapsedNs is the summed wall time workers spent in the block's kernel
	// rows (both passes of a two-phase run; chunk time straddling a block
	// boundary is split pro-rata by rows). It is measured with Options.NowNs
	// when set, the real monotonic clock otherwise, and the masked session
	// stamps it on the returned plan (planner.ExecStats), where Explain sets
	// it against the planner's prediction.
	ElapsedNs int64
}

// MaskedSpGEMMBlocked computes C = M .* (A·B) (or the complement form) with
// a mixed-variant plan: each block of rows runs its own algorithm family,
// all under the given phase. Blocks must be sorted, non-overlapping and
// cover [0, m.NRows) exactly. All algorithms produce entries in sorted
// column order with identical per-row floating-point sums, so a blocked
// product is bit-identical to any single-variant product. If stats is
// non-nil it receives one BlockStat per block after execution. Inner
// blocks read B by columns from bcsc, which must be B's CSC (ToCSC of the
// same arrays); when bcsc is nil and the plan has an Inner block, B is
// transposed once here and shared by all of them.
func MaskedSpGEMMBlocked[T any](phase Phase, blocks []ExecBlock, m *matrix.Pattern, a, b *matrix.CSR[T], bcsc *matrix.CSC[T], sr semiring.Semiring[T], opt Options, stats *[]BlockStat) (*matrix.CSR[T], error) {
	if err := checkDims(m, a, b); err != nil {
		return nil, err
	}
	if bcsc != nil && (bcsc.NRows != b.NRows || bcsc.NCols != b.NCols) {
		return nil, fmt.Errorf("core: CSC of B is %dx%d, B is %dx%d", bcsc.NRows, bcsc.NCols, b.NRows, b.NCols)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("core: blocked plan has no blocks")
	}
	if err := opt.Err(); err != nil {
		return nil, err
	}
	segs := make([]execSeg[T], 0, len(blocks))
	next := Index(0)
	for _, blk := range blocks {
		if blk.Lo != next || blk.Hi < blk.Lo {
			return nil, fmt.Errorf("core: blocked plan does not tile the row space: block [%d,%d) after row %d", blk.Lo, blk.Hi, next)
		}
		next = blk.Hi
		if opt.Complement && blk.Alg == MCA {
			return nil, fmt.Errorf("core: %s does not support complemented masks", MCA)
		}
		if blk.Alg == Inner && bcsc == nil {
			bcsc = matrix.ToCSC(b)
		}
		factory, err := algKernelFactory(blk.Alg, m, a, b, bcsc, sr, opt.Complement, opt.Workspaces)
		if err != nil {
			return nil, err
		}
		segs = append(segs, execSeg[T]{lo: blk.Lo, hi: blk.Hi, factory: factory})
	}
	if next != m.NRows {
		return nil, fmt.Errorf("core: blocked plan covers rows [0,%d), want [0,%d)", next, m.NRows)
	}
	bound := allocBound(m, a, b, opt.Complement)
	var timer *segTimer
	if stats != nil {
		// Timing is only measured when the caller asked for stats; the cost
		// is one clock read per claimed chunk, zero on the untimed path.
		segHi := make([]Index, len(blocks))
		for i, blk := range blocks {
			segHi[i] = blk.Hi
		}
		timer = &segTimer{now: opt.nowFn(), segHi: segHi, segNs: make([]int64, len(blocks))}
	}
	out, err := runDriverBlocked(phase, m.NRows, b.NCols, bound, segs, opt, timer)
	if err != nil {
		return nil, err
	}
	if stats != nil {
		*stats = (*stats)[:0]
		for bi, blk := range blocks {
			s := BlockStat{
				Block:     blk,
				Rows:      int64(blk.Hi - blk.Lo),
				OutNNZ:    int64(out.RowPtr[blk.Hi] - out.RowPtr[blk.Lo]),
				ElapsedNs: timer.segNs[bi],
			}
			if int(blk.Hi) < len(m.RowPtr) { // degenerate zero-value masks have no RowPtr
				s.MaskNNZ = int64(m.RowPtr[blk.Hi] - m.RowPtr[blk.Lo])
			}
			*stats = append(*stats, s)
		}
	}
	return out, nil
}

// MaskedDotCSC runs the pull-based Inner algorithm with a pre-transposed B
// (CSC), excluding the transpose cost from measurement; the paper assumes B
// is stored column-major for the dot algorithm (§4.1).
func MaskedDotCSC[T any](phase Phase, m *matrix.Pattern, a *matrix.CSR[T], bcsc *matrix.CSC[T], sr semiring.Semiring[T], opt Options) (*matrix.CSR[T], error) {
	if m.NRows != a.NRows || m.NCols != bcsc.NCols || a.NCols != bcsc.NRows {
		return nil, fmt.Errorf("core: dimension mismatch M(%dx%d) A(%dx%d) B(%dx%d)",
			m.NRows, m.NCols, a.NRows, a.NCols, bcsc.NRows, bcsc.NCols)
	}
	if err := opt.Err(); err != nil {
		return nil, err
	}
	factory, err := algKernelFactory(Inner, m, a, nil, bcsc, sr, opt.Complement, opt.Workspaces)
	if err != nil {
		return nil, err
	}
	bound := innerBound(m, bcsc.NCols, opt.Complement)
	return runDriver(phase, m, bcsc.NCols, bound, factory, opt)
}

func checkDims[T any](m *matrix.Pattern, a, b *matrix.CSR[T]) error {
	if m.NRows != a.NRows || m.NCols != b.NCols || a.NCols != b.NRows {
		return fmt.Errorf("core: dimension mismatch M(%dx%d) A(%dx%d) B(%dx%d)",
			m.NRows, m.NCols, a.NRows, a.NCols, b.NRows, b.NCols)
	}
	return nil
}

// allocBound returns the one-phase per-row allocation upper bound (§6): the
// mask row size for normal masks — the output can never exceed the mask —
// and min(ncols, Σ_k nnz(B_k*)) under complement.
func allocBound[T any](m *matrix.Pattern, a, b *matrix.CSR[T], complement bool) func(i Index) int64 {
	if !complement {
		return func(i Index) int64 { return int64(m.RowNNZ(i)) }
	}
	n := int64(b.NCols)
	return func(i Index) int64 {
		var fl int64
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			k := a.Col[kk]
			fl += int64(b.RowPtr[k+1] - b.RowPtr[k])
			if fl >= n {
				return n
			}
		}
		return fl
	}
}

// innerBound is allocBound for the CSC entry point.
func innerBound(m *matrix.Pattern, ncols Index, complement bool) func(i Index) int64 {
	if !complement {
		return func(i Index) int64 { return int64(m.RowNNZ(i)) }
	}
	n := int64(ncols)
	return func(i Index) int64 { return n - int64(m.RowNNZ(i)) }
}

// MaskedSpGEMMHeapNInspect runs the Heap algorithm with an explicit
// NInspect setting, exposing the §5.5 knob for the ablation benchmark
// (NInspect 0, 1 and nInspectAll correspond to blind push, Heap, HeapDot).
func MaskedSpGEMMHeapNInspect[T any](phase Phase, m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], nInspect int32, opt Options) (*matrix.CSR[T], error) {
	if err := checkDims(m, a, b); err != nil {
		return nil, err
	}
	// Ablation entry point: always the FuncOps instantiation, so NInspect
	// comparisons are not confounded by operator dispatch differences.
	factory := newHeapKernelFactory(m, a, b, funcOps(sr), opt.Complement, nInspect, opt.Workspaces)
	bound := allocBound(m, a, b, opt.Complement)
	return runDriver(phase, m, b.NCols, bound, factory, opt)
}

// Flops returns flops(A·B) = Σ_{A_ik ≠ 0} nnz(B_k*), the number of
// multiply operations of the unmasked product — the work metric used by the
// paper's GFLOPS plots (one multiply plus one add per unit, so reported
// GFLOPS double this count, matching the SpGEMM convention of 2·flops).
func Flops[T any](a, b *matrix.CSR[T], threads int) int64 {
	partial := make([]int64, parallel.Threads(threads))
	parallel.ForWorkers(nil, int(a.NRows), threads, 256, func(id int, claim func() (int, int, bool)) {
		var sum int64
		for {
			lo, hi, ok := claim()
			if !ok {
				break
			}
			for i := lo; i < hi; i++ {
				for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
					k := a.Col[kk]
					sum += int64(b.RowPtr[k+1] - b.RowPtr[k])
				}
			}
		}
		partial[id] += sum
	})
	var total int64
	for _, s := range partial {
		total += s
	}
	return total
}
