// Package planner turns the paper's §8 variant-selection guidance into an
// explicit, executable cost model. Given the mask and input operands of a
// masked SpGEMM call it gathers cheap statistics (nnz, densities, the flop
// upper bound the one-phase driver already computes) and emits a Plan: the
// algorithm variant to run, the phase, and — when the row space has
// distinctly different local density profiles, as power-law graphs do — a
// *mixed* plan that partitions the rows into blocks and assigns each block
// its own algorithm family.
//
// The selection rules encode the paper's empirical findings:
//
//	Inner        mask much sparser than the product's work (§4.3, §8.1)
//	Heap/HeapDot inputs much sparser than the mask (§5.5, §8.1)
//	MSA/Hash     the comparable-density middle (§8.1; Hash when the work is
//	             tiny relative to the columns, so MSA's dense scratch is not
//	             amortized)
//	1P           unless the one-phase allocation bound is memory-tight (§6),
//	             which only happens under complemented masks
//
// Analysis costs O(nnz(A) + nrows) — negligible next to the multiply — and
// Cache memoizes plans across the iterative sweeps of BC.
package planner

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/semiring"
)

// Index mirrors matrix.Index.
type Index = matrix.Index

// Stats are the cheap per-call statistics the cost model consumes.
type Stats struct {
	// NRows, NCols are the output (= mask) dimensions.
	NRows, NCols Index
	// NNZM, NNZA, NNZB are the operand entry counts.
	NNZM, NNZA, NNZB int64
	// Flops is flops(A·B) = Σ_{A_ik≠0} nnz(B_k*), the §8 work metric and
	// the exact upper bound on unmasked accumulator traffic.
	Flops int64
	// Bound1P is the one-phase allocation bound summed over rows: nnz(M)
	// for normal masks, Σ min(ncols, flops_i) under complement.
	Bound1P int64
	// AvgDegB is nnz(B)/nrows(B); AvgColDegB is nnz(B)/ncols(B).
	AvgDegB, AvgColDegB float64
	// MaxRowCost is the largest single-row cost (flops + mask entries + 1)
	// seen by the analysis sweep — the scheduling skew diagnostic.
	MaxRowCost int64
	// Sorted reports whether all operand rows are sorted, the precondition
	// of the MCA/Heap/HeapDot/Inner kernels.
	Sorted bool
	// Complement is the mask mode of the call.
	Complement bool
}

// Block is one row range of a plan with its chosen algorithm and the local
// statistics that drove the decision.
type Block struct {
	// Lo, Hi delimit the row range [Lo, Hi).
	Lo, Hi Index
	// Alg is the algorithm family assigned to the range.
	Alg core.Algorithm
	// MaskNNZ, ANNZ and Flops are the range's mask entries, A entries and
	// flop bound.
	MaskNNZ, ANNZ, Flops int64
	// PredictedNs is the cost model's serial-kernel-time estimate for the
	// block in nanoseconds (Model.NsPerUnit × the block's cost units); 0 on
	// degenerate plans. Explain prints it beside the drivers' measured
	// per-block time (ExecStats.BlockNs).
	PredictedNs float64
	// Reason is a one-line human explanation of the choice.
	Reason string
}

// Plan is the planner's output: a phase, one or more row blocks with their
// algorithms, and the statistics behind them. Execute runs it.
type Plan struct {
	// Stats are the call statistics the plan was derived from.
	Stats Stats
	// Phase applies to every block (the drivers are phase-global).
	Phase core.Phase
	// Blocks tile [0, NRows) in order.
	Blocks []Block
	// Costs is the per-row cost profile the analysis sweep gathered (flops
	// plus mask entries per row, as a prefix sum), reused by the drivers for
	// cost-balanced scheduling instead of being discarded after aggregation.
	// Nil for degenerate operands; Execute attaches it to the options when
	// the caller did not supply a profile.
	Costs *core.RowCosts
	// CacheHit reports that the plan was reused from a Cache rather than
	// re-analyzed.
	CacheHit bool
	// Ops names the operator path the kernels will take for the semiring
	// this plan executes with: core.OpsInlined when the semiring carries a
	// named operator type (generated loops, Add/Mul inlined) or
	// core.OpsFuncPtr for custom semirings (indirect calls through the
	// Semiring func fields). Empty when the executing semiring is not yet
	// known (plans are cached per mask/operand shape, not per semiring);
	// the masked session stamps it on the copy it hands out.
	Ops string
	// PredictedNs is the cost model's end-to-end serial-kernel-time estimate
	// in nanoseconds (the sum of the blocks' PredictedNs); 0 on degenerate
	// plans. Explain prints it beside the measured time (ExecStats.ActualNs).
	PredictedNs float64
	// Exec carries the observed timing of one execution, stamped by the
	// masked session on the copy it hands out (like Ops) — nil on cached
	// plans, which are shared across callers and stay immutable.
	Exec *ExecStats
	// cache is the Cache the plan was installed in, whose memo a hit's
	// Execute reads B's transpose from; nil on plans that never entered a
	// Cache.
	cache *Cache
}

// ExecStats describes one observed execution of a plan, stamped by the
// masked session on the plan copy it returns (cached plans are shared and
// never mutated — see TestExplainExecStampImmutable).
type ExecStats struct {
	// ActualNs is the execution's summed per-block worker kernel time.
	ActualNs int64
	// BlockNs is the per-plan-block split of ActualNs, index-aligned with
	// Plan.Blocks.
	BlockNs []int64
}

// WithExec returns a shallow copy of p stamped with the given execution
// observation (like the session's ops stamp, the copy keeps the cached plan
// immutable). The predicted-vs-actual times appear in the copy's Explain
// output.
func (p *Plan) WithExec(e ExecStats) *Plan {
	q := *p
	q.Exec = &e
	return &q
}

// Schedule names the row schedule the drivers will run this plan with:
// "cost-balanced" when the analysis found the per-row cost profile heavily
// skewed (one row over ~8x the mean), "equal-row" otherwise. Matches
// schedPrefix's resolution in core.
func (p *Plan) Schedule() string {
	if p.Costs != nil && p.Costs.Skewed {
		return "cost-balanced"
	}
	return "equal-row"
}

// Mixed reports whether the plan assigns different algorithms to different
// row blocks.
func (p *Plan) Mixed() bool {
	for _, b := range p.Blocks[1:] {
		if b.Alg != p.Blocks[0].Alg {
			return true
		}
	}
	return false
}

// hasInner reports whether any block of the plan runs Inner.
func (p *Plan) hasInner() bool {
	for _, b := range p.Blocks {
		if b.Alg == core.Inner {
			return true
		}
	}
	return false
}

// ExecBlocks converts the plan's blocks to the core execution form.
func (p *Plan) ExecBlocks() []core.ExecBlock {
	out := make([]core.ExecBlock, len(p.Blocks))
	for i, b := range p.Blocks {
		out[i] = core.ExecBlock{Lo: b.Lo, Hi: b.Hi, Alg: b.Alg}
	}
	return out
}

// Restrict returns the plan of the sub-product on the given rows of this
// plan's product, taken in order: row r of the sub-product is row rows[r],
// and runs with the Alg of the block holding that row. Runs of rows that
// share an Alg form one block, so the blocks tile [0, len(rows)). The cost
// profile is this plan's, cut to the rows, so each row keeps its cost and
// the skew verdict is taken afresh. Nothing is re-analyzed: the result is
// only as fresh as this plan, which callers re-analyze once their operands
// have moved far. The sub-plan's blocks carry no per-block statistics or
// predictions, and its Stats stay this plan's apart from NRows and
// MaxRowCost. rows must be in [0, NRows); the plan is not modified.
func (p *Plan) Restrict(rows []Index) *Plan {
	q := &Plan{Stats: p.Stats, Phase: p.Phase}
	q.Stats.NRows = Index(len(rows))
	q.Stats.MaxRowCost = 0
	costs := p.Costs
	var prefix []int64
	if costs != nil {
		prefix = make([]int64, len(rows)+1)
	}
	for r, i := range rows {
		src := &p.Blocks[sort.Search(len(p.Blocks)-1, func(b int) bool { return p.Blocks[b].Hi > i })]
		if n := len(q.Blocks); n > 0 && q.Blocks[n-1].Alg == src.Alg {
			q.Blocks[n-1].Hi = Index(r + 1)
		} else {
			q.Blocks = append(q.Blocks, Block{Lo: Index(r), Hi: Index(r + 1), Alg: src.Alg, Reason: src.Reason})
		}
		if costs != nil {
			c := costs.Prefix[i+1] - costs.Prefix[i]
			prefix[r+1] = prefix[r] + c
			q.Stats.MaxRowCost = max(q.Stats.MaxRowCost, c)
		}
	}
	if len(q.Blocks) == 0 {
		b := p.Blocks[0]
		q.Blocks = []Block{{Alg: b.Alg, Reason: "restricted to no rows"}}
	}
	if costs != nil {
		q.Costs = core.NewRowCosts(prefix, q.Stats.MaxRowCost)
	}
	return q
}

// Explain renders the plan and the statistics behind it as a multi-line
// human-readable report.
func (p *Plan) Explain() string {
	var sb strings.Builder
	kind := "uniform"
	if p.Mixed() {
		kind = "mixed"
	}
	from := "analyzed"
	if p.CacheHit {
		from = "cached"
	}
	fmt.Fprintf(&sb, "plan: %s, %d block(s), phase %s, %s", kind, len(p.Blocks), p.Phase, from)
	if p.Ops != "" {
		fmt.Fprintf(&sb, ", ops=%s", p.Ops)
	}
	sb.WriteString("\n")
	s := p.Stats
	mode := "normal"
	if s.Complement {
		mode = "complemented"
	}
	fmt.Fprintf(&sb, "stats: %dx%d %s mask nnz=%d, nnz(A)=%d, nnz(B)=%d, flops(A·B)=%d, 1P bound=%d\n",
		s.NRows, s.NCols, mode, s.NNZM, s.NNZA, s.NNZB, s.Flops, s.Bound1P)
	if p.Costs != nil {
		mean := int64(1)
		if s.NRows > 0 {
			mean = p.Costs.Total() / int64(s.NRows)
		}
		fmt.Fprintf(&sb, "sched: %s (max row cost %d, mean %d)\n", p.Schedule(), s.MaxRowCost, mean)
	}
	if e := p.Exec; e != nil {
		fmt.Fprintf(&sb, "feedback: predicted %s, actual %s", fmtNs(p.PredictedNs), fmtNs(float64(e.ActualNs)))
		if p.PredictedNs > 0 {
			fmt.Fprintf(&sb, " (ratio %.2f)", float64(e.ActualNs)/p.PredictedNs)
		}
		sb.WriteString("\n")
	}
	for i, b := range p.Blocks {
		fmt.Fprintf(&sb, "  rows [%d,%d) → %s sched=%s: %s (mask nnz=%d, flops=%d)",
			b.Lo, b.Hi, b.Alg, p.Schedule(), b.Reason, b.MaskNNZ, b.Flops)
		if e := p.Exec; e != nil && i < len(e.BlockNs) {
			fmt.Fprintf(&sb, " [predicted %s, actual %s]", fmtNs(b.PredictedNs), fmtNs(float64(e.BlockNs[i])))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// fmtNs renders a nanosecond quantity as a duration string ("1.234µs");
// sub-nanosecond noise is truncated so the output is stable.
func fmtNs(ns float64) string {
	if ns < 0 {
		ns = 0
	}
	return time.Duration(int64(ns)).String()
}

// Selection and analysis constants: the hand-tuned margins of the §8 and §6
// rules (decide, pushAlg and AnalyzeModel's phase choice) and the sizes of
// the row blocks the analysis sweep aggregates over.
const (
	// pullMargin: Inner must beat the best push-style estimate by this
	// factor (its strided column accesses are pessimistic per unit cost);
	// ~8× was tuned by hand against the Fig. 7 regimes (§4.3).
	pullMargin = 8
	// heapMaskDiscountShift: heap's mask term is a sequential merge, ~4×
	// cheaper per entry than the scatter/gather of MSA/Hash.
	heapMaskDiscountShift = 2
	// heapDotMaxMaskFraction: within the heap regime, full mask inspection
	// (NInspect=∞, HeapDot) only pays when the mask is sparse enough that
	// inspections actually skip pushes — mask rows under 1/64 of the
	// columns. Denser masks run NInspect=1 (Heap).
	heapDotMaxMaskFraction = 64
	// hashWorkFraction: prefer Hash over MSA when the call's total work is
	// under ncols/hashWorkFraction — MSA's O(ncols) dense scratch per
	// worker would dominate (tiny frontiers in BFS/BC sweeps).
	hashWorkFraction = 4
	// phaseMemFactor: switch to two-phase when the 1P allocation bound
	// exceeds phaseMemFactor × the operand footprint (§6 "memory tight").
	phaseMemFactor = 4
	// analysisBlocks is the target number of row blocks the analysis
	// aggregates over; minBlockRows floors their size so per-block stats
	// stay meaningful.
	analysisBlocks = 64
	minBlockRows   = 1024
	// maxPlanBlocks caps a mixed plan's block count after coalescing; a
	// profile more fragmented than this collapses to the global winner.
	maxPlanBlocks = 32
)

// NeedsSortedRows reports whether any block of the plan runs a kernel with
// the sorted-rows precondition: MCA, Heap, HeapDot or Inner.
func (p *Plan) NeedsSortedRows() bool {
	for _, b := range p.Blocks {
		if b.Alg != core.MSA && b.Alg != core.Hash {
			return true
		}
	}
	return false
}

// Analyze derives a Plan for C = M .* (A·B) from operand structure alone
// (values never matter to selection, so all operands are Patterns — use
// CSR.Pattern() for free views). opt contributes only Complement. Selection
// runs under the hand-tuned DefaultModel; use AnalyzeModel (or
// Cache.SetModel) for other coefficients.
func Analyze(m, a, b *matrix.Pattern, opt core.Options) *Plan {
	return AnalyzeModel(m, a, b, opt, nil)
}

// AnalyzeModel is Analyze selecting with the given cost-model coefficients
// (nil means DefaultModel, which reproduces the hand-tuned constants
// exactly). The model also prices the emitted plan: Plan.PredictedNs and
// each block's PredictedNs carry the model's serial-time estimate, which
// Explain sets against the measured execution time.
func AnalyzeModel(m, a, b *matrix.Pattern, opt core.Options, mdl *Model) *Plan {
	if mdl == nil {
		mdl = DefaultModel()
	}
	nrows, ncols := m.NRows, m.NCols
	if nrows == 0 || len(m.RowPtr) == 0 || len(a.RowPtr) == 0 || len(b.RowPtr) == 0 {
		// Degenerate (possibly zero-value) operands: nothing to analyze, and
		// the scans below must not index empty row pointers.
		return &Plan{
			Stats:  Stats{NRows: nrows, NCols: ncols, Complement: opt.Complement, Sorted: true},
			Phase:  core.OnePhase,
			Blocks: []Block{{Lo: 0, Hi: nrows, Alg: core.MSA, Reason: "empty operands"}},
		}
	}
	st := Stats{
		NRows: nrows, NCols: ncols,
		NNZM: int64(m.NNZ()), NNZA: int64(a.NNZ()), NNZB: int64(b.NNZ()),
		Complement: opt.Complement,
		Sorted:     sortedRows(m, opt.Workers()) && sortedRows(a, opt.Workers()) && sortedRows(b, opt.Workers()),
	}
	if b.NRows > 0 {
		st.AvgDegB = float64(st.NNZB) / float64(b.NRows)
	}
	if b.NCols > 0 {
		st.AvgColDegB = float64(st.NNZB) / float64(b.NCols)
	}

	// Partition the rows into analysis blocks and gather per-block flop
	// bounds in one parallel O(nnz(A)) sweep. The 1P complement bound
	// rides along.
	blockRows := int64(minBlockRows)
	if want := (int64(nrows) + analysisBlocks - 1) / analysisBlocks; want > blockRows {
		blockRows = want
	}
	nblocks := int((int64(nrows) + blockRows - 1) / blockRows)
	if nblocks < 1 {
		nblocks = 1
	}
	flopsPerBlock := make([]int64, nblocks)
	boundPerBlock := make([]int64, nblocks)
	maxCostPerBlock := make([]int64, nblocks)
	// rowCosts[i] holds row i's cost during the sweep and becomes the
	// scheduling cost prefix after the scan below; the +1 slot carries the
	// total. This is the per-row flops data the sweep previously discarded
	// after aggregating it into flopsPerBlock.
	rowCosts := make([]int64, int64(nrows)+1)
	parallel.ForChunks(nil, nblocks, opt.Workers(), 1, func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			lo := Index(int64(bi) * blockRows)
			hi := Index(int64(bi+1) * blockRows)
			if hi > nrows {
				hi = nrows
			}
			var flops, bnd, maxCost int64
			for i := lo; i < hi; i++ {
				var rowFlops int64
				for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
					k := a.Col[kk]
					rowFlops += int64(b.RowPtr[k+1] - b.RowPtr[k])
				}
				flops += rowFlops
				mn := m.RowPtr[i+1] - m.RowPtr[i]
				cost := rowFlops + int64(mn) + 1
				rowCosts[i] = cost
				if cost > maxCost {
					maxCost = cost
				}
				if opt.Complement {
					if rowFlops > int64(ncols) {
						rowFlops = int64(ncols)
					}
					bnd += rowFlops
				}
			}
			flopsPerBlock[bi] = flops
			boundPerBlock[bi] = bnd
			maxCostPerBlock[bi] = maxCost
		}
	})
	for _, f := range flopsPerBlock {
		st.Flops += f
	}
	for _, c := range maxCostPerBlock {
		if c > st.MaxRowCost {
			st.MaxRowCost = c
		}
	}
	parallel.ExclusiveScanParallel(rowCosts, opt.Workers())
	costs := core.NewRowCosts(rowCosts, st.MaxRowCost)
	if opt.Complement {
		for _, bnd := range boundPerBlock {
			st.Bound1P += bnd
		}
	} else {
		st.Bound1P = st.NNZM
	}

	phase := core.OnePhase
	if st.Bound1P > phaseMemFactor*(st.NNZM+st.NNZA+st.NNZB+int64(ncols)) {
		phase = core.TwoPhase
	}

	// Decide per analysis block, then coalesce equal neighbours.
	push := pushAlg(st, mdl)
	blocks := make([]Block, 0, nblocks)
	for bi := 0; bi < nblocks; bi++ {
		lo := Index(int64(bi) * blockRows)
		hi := Index(int64(bi+1) * blockRows)
		if hi > nrows {
			hi = nrows
		}
		mn := int64(m.RowPtr[hi] - m.RowPtr[lo])
		an := int64(a.RowPtr[hi] - a.RowPtr[lo])
		alg, reason := decide(st, push, int64(hi-lo), mn, an, flopsPerBlock[bi], mdl)
		blocks = append(blocks, Block{Lo: lo, Hi: hi, Alg: alg, MaskNNZ: mn, ANNZ: an, Flops: flopsPerBlock[bi], Reason: reason})
	}
	blocks = demoteUnpaidInner(st, push, blocks, mdl)
	blocks = coalesce(blocks)
	if len(blocks) > maxPlanBlocks {
		// Too fragmented to pay for per-block dispatch: one global decision.
		alg, reason := decide(st, push, int64(nrows), st.NNZM, st.NNZA, st.Flops, mdl)
		blocks = []Block{{Lo: 0, Hi: nrows, Alg: alg, MaskNNZ: st.NNZM, ANNZ: st.NNZA, Flops: st.Flops,
			Reason: "collapsed fragmented profile: " + reason}}
	}
	if len(blocks) == 0 { // nrows == 0
		blocks = []Block{{Lo: 0, Hi: 0, Alg: push, Reason: "empty row space"}}
	}
	p := &Plan{Stats: st, Phase: phase, Blocks: blocks, Costs: costs}
	mdl.predictNs(p)
	return p
}

// sortedRows is a parallel matrix.Pattern.IsSortedRows: the check is the
// most expensive part of a cold analysis on dense masks, and it runs once
// per cache miss.
func sortedRows(p *matrix.Pattern, threads int) bool {
	var unsorted atomic.Bool
	parallel.ForChunks(nil, int(p.NRows), threads, 2048, func(lo, hi int) {
		if !unsorted.Load() && !p.SortedRowsIn(Index(lo), Index(hi)) {
			unsorted.Store(true)
		}
	})
	return !unsorted.Load()
}

// pushAlg picks the scatter/gather family for the comparable-density middle:
// MSA (the paper's overall winner) unless the call's total work cannot
// amortize MSA's O(ncols) per-worker dense scratch, where Hash wins (§8.1
// "Hash on larger matrices"; BFS/BC early sweeps). The model's hash-vs-push
// unit ratio shifts the crossover: a host where hash probes are relatively
// expensive needs even less work before MSA's scratch amortizes.
func pushAlg(st Stats, mdl *Model) core.Algorithm {
	if float64((st.NNZM+st.Flops)*hashWorkFraction)*mdl.HashUnit < float64(st.NCols)*mdl.PushUnit {
		return core.Hash
	}
	return core.MSA
}

// ceilLog2 returns ⌈log2(v)⌉ for v ≥ 1, the heap's per-pop merge depth.
func ceilLog2(v int64) int64 {
	return int64(math.Ceil(math.Log2(float64(v))))
}

// decide applies the §8 selection rules to one row range. push is the
// globally-chosen scatter/gather family; rows/maskNNZ/aNNZ/flops are the
// range's local statistics; mdl supplies the per-family unit costs (under
// DefaultModel the estimates equal the historical integer formulas).
func decide(st Stats, push core.Algorithm, rows, maskNNZ, aNNZ, flops int64, mdl *Model) (core.Algorithm, string) {
	if st.Complement {
		// MCA cannot run complemented (§8.4), and pull complement probes
		// Θ(ncols − nnz(m_i)) columns per row, defeating its advantage.
		return push, "complemented mask: scatter/gather push"
	}
	if !st.Sorted {
		return push, "unsorted operand rows: only MSA/Hash are applicable"
	}
	if maskNNZ == 0 || rows == 0 {
		return push, "no mask entries: any kernel emits nothing"
	}
	// Abstract per-entry cost estimates (§4.3, §5): push gathers the whole
	// mask row and touches every flop; heap replaces the gather with a
	// cheap merge but pays a log factor on flops; inner scatters each A row
	// once and probes the B column of every mask entry. Its nnz(A) term is
	// the kernel's real cost, one scatter per A entry; the nnz(M)·AvgColDegB
	// term charges the B entries the probes walk, at the average column
	// degree.
	pu := mdl.PushUnit
	if push == core.Hash {
		pu = mdl.HashUnit
	}
	costPush := mdl.MaskUnit*float64(maskNNZ) + pu*float64(flops)
	logU := ceilLog2(aNNZ/rows + 2)
	costHeap := mdl.MaskUnit*float64(maskNNZ>>heapMaskDiscountShift) + mdl.HeapUnit*float64(logU*flops)
	costInner := mdl.InnerUnit * float64(aNNZ+maskNNZ+int64(float64(maskNNZ)*st.AvgColDegB))
	switch {
	case costInner*mdl.PullMargin < costPush && costInner*mdl.PullMargin < costHeap:
		return core.Inner, fmt.Sprintf("mask ≪ work: pull dot products (est %.0f vs push %.0f)", costInner, costPush)
	case costHeap < costPush:
		if maskNNZ*heapDotMaxMaskFraction < rows*int64(st.NCols) {
			return core.HeapDot, fmt.Sprintf("work ≪ mask: heap merge, full mask inspection (est %.0f vs push %.0f)", costHeap, costPush)
		}
		return core.Heap, fmt.Sprintf("work ≪ mask: heap merge (est %.0f vs push %.0f)", costHeap, costPush)
	default:
		return push, fmt.Sprintf("comparable densities: %s (est push %.0f, heap %.0f, inner %.0f)", push, costPush, costHeap, costInner)
	}
}

// demoteUnpaidInner drops Inner blocks when their combined estimated saving
// cannot repay the one-off B transpose (ToCSC is O(nnz(B) + ncols)).
func demoteUnpaidInner(st Stats, push core.Algorithm, blocks []Block, mdl *Model) []Block {
	var saving float64
	for _, b := range blocks {
		if b.Alg == core.Inner {
			costPush := mdl.MaskUnit*float64(b.MaskNNZ) + mdl.PushUnit*float64(b.Flops)
			costInner := mdl.InnerUnit * float64(b.ANNZ+b.MaskNNZ+int64(float64(b.MaskNNZ)*st.AvgColDegB))
			saving += costPush - costInner
		}
	}
	if saving == 0 || saving >= float64(st.NNZB+int64(st.NCols)) {
		return blocks
	}
	for i := range blocks {
		if blocks[i].Alg == core.Inner {
			blocks[i].Alg = push
			blocks[i].Reason = "pull saving does not repay the B transpose: " + blocks[i].Reason
		}
	}
	return blocks
}

// coalesce merges adjacent blocks that chose the same algorithm.
func coalesce(blocks []Block) []Block {
	out := blocks[:0]
	for _, b := range blocks {
		if n := len(out); n > 0 && out[n-1].Alg == b.Alg {
			out[n-1].Hi = b.Hi
			out[n-1].MaskNNZ += b.MaskNNZ
			out[n-1].ANNZ += b.ANNZ
			out[n-1].Flops += b.Flops
			continue
		}
		out = append(out, b)
	}
	return out
}

// Execute runs a plan. stats, if non-nil, receives per-block execution
// results. The plan must have been analyzed for operands with the same row
// count and mask mode (Cache guarantees this; core re-validates the tiling).
// A plan from a cache hit with an Inner block reads B's transpose from the
// cache's memo, built on the first such hit and reused while b is the same
// arrays.
func Execute[T any](p *Plan, m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], opt core.Options, stats *[]core.BlockStat) (*matrix.CSR[T], error) {
	if opt.Complement != p.Stats.Complement {
		return nil, fmt.Errorf("planner: plan analyzed with Complement=%v, executed with Complement=%v",
			p.Stats.Complement, opt.Complement)
	}
	if opt.RowCosts == nil {
		// Reuse the analysis sweep's per-row cost profile for scheduling.
		// Cached plans may be paired with operands of slightly different
		// shape (the cache buckets M and A by size); the drivers fall back
		// to equal-row chunking when the profile's length no longer matches,
		// and a stale-but-matching profile only skews span sizes, never
		// results.
		opt.RowCosts = p.Costs
	}
	var bcsc *matrix.CSC[T]
	if p.CacheHit && p.cache != nil && p.hasInner() {
		// Inner blocks read B by columns: a hit takes the memo's transpose
		// (see cachedCSC); any other plan transposes B in core per call.
		bcsc = cachedCSC(p.cache, b)
	}
	return core.MaskedSpGEMMBlocked(p.Phase, p.ExecBlocks(), m, a, b, bcsc, sr, opt, stats)
}
