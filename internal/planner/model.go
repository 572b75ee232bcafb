package planner

// The parameterized form of the §8 cost model. The selection rules in
// decide()/pushAlg() historically compared integer cost estimates built from
// hand-tuned unit costs (every kernel family's per-entry cost implicitly 1);
// Model makes those unit costs explicit, so tests can skew one family's cost
// and Plan.PredictedNs can be stated in one place. DefaultModel reproduces
// the hand-tuned behavior exactly.

import "repro/internal/core"

// Model is one set of cost-model coefficients. All *Unit fields are relative
// per-entry costs with the MSA scatter as the 1.0 anchor; NsPerUnit converts
// abstract cost units into nanoseconds, which is what makes Plan.PredictedNs
// comparable against measured block times. Models are immutable once built:
// the cache holds one by pointer and concurrent analyses read it without
// locking.
type Model struct {
	// PushUnit is the MSA scatter/gather cost per flop — the normalization
	// anchor, 1.0 in DefaultModel.
	PushUnit float64
	// HashUnit is the hash-probe cost per flop relative to the MSA scatter.
	HashUnit float64
	// HeapUnit is the heap pop/push cost per flop × log2(merge width),
	// relative to the MSA scatter.
	HeapUnit float64
	// InnerUnit is the pull-side cost per touched entry: each A entry
	// scattered and reset once per row, each mask entry's probe, each B
	// entry a probe walks. Inner's safety
	// margin is PullMargin; InnerUnit exists so tests can skew the pull
	// decision.
	InnerUnit float64
	// MaskUnit is the mask gather/scatter cost per mask entry relative to
	// the per-flop scatter cost.
	MaskUnit float64
	// BitmapProbeRatio scales the bitmap-representation density thresholds:
	// the bitmap-vs-CSR probe cost ratio. Above 1 the bitmap is relatively
	// expensive and needs denser masks to pay.
	BitmapProbeRatio float64
	// DenseUnit scales the dense-run representation's minimum row density
	// the same way: the dense-direct-index-vs-CSR cost ratio.
	DenseUnit float64
	// PullMargin is the factor Inner must beat the best push estimate by
	// before the planner risks its strided column accesses.
	PullMargin float64
	// NsPerUnit is the nanoseconds per abstract cost unit (the MSA
	// scatter's per-flop wall time at one worker); 1 in DefaultModel.
	NsPerUnit float64
}

// DefaultModel returns the hand-tuned reference coefficients: every unit
// cost 1 and PullMargin 8.
func DefaultModel() *Model {
	return &Model{
		PushUnit:         1,
		HashUnit:         1,
		HeapUnit:         1,
		InnerUnit:        1,
		MaskUnit:         1,
		BitmapProbeRatio: 1,
		DenseUnit:        1,
		PullMargin:       pullMargin,
		NsPerUnit:        1,
	}
}

// phasePassFactor is the predicted-cost multiplier of two-phase execution:
// the symbolic and numeric passes each walk the full work, and the drivers'
// block timer accumulates both.
const phasePassFactor = 2

// predictBlockUnits estimates one decided block's execution cost in abstract
// model units — the same formulas decide() selects with, evaluated for the
// algorithm the block actually got (including demotions and collapse).
func (m *Model) predictBlockUnits(st Stats, b Block) float64 {
	rows := int64(b.Hi - b.Lo)
	if rows <= 0 {
		return 0
	}
	switch b.Alg {
	case core.Heap, core.HeapDot:
		logU := ceilLog2(b.ANNZ/rows + 2)
		return m.MaskUnit*float64(b.MaskNNZ>>heapMaskDiscountShift) + m.HeapUnit*float64(logU)*float64(b.Flops)
	case core.Inner:
		// nnz(A) is the kernel's real cost: each A row is scattered once
		// for all its mask entries. The B term assumes every probe walks
		// an average column; skewed column degrees are not modelled.
		return m.InnerUnit * (float64(b.ANNZ+b.MaskNNZ) + float64(b.MaskNNZ)*st.AvgColDegB)
	case core.Hash:
		return m.MaskUnit*float64(b.MaskNNZ) + m.HashUnit*float64(b.Flops)
	default: // MSA, MCA
		return m.MaskUnit*float64(b.MaskNNZ) + m.PushUnit*float64(b.Flops)
	}
}

// predictNs stamps PredictedNs on the plan and each block: the model-unit
// cost converted to nanoseconds of serial kernel time (the comparand of the
// summed per-block worker times the drivers measure), doubled for two-phase
// plans whose symbolic and numeric passes are both timed.
func (m *Model) predictNs(p *Plan) {
	pass := float64(1)
	if p.Phase == core.TwoPhase {
		pass = phasePassFactor
	}
	var total float64
	for i := range p.Blocks {
		ns := m.NsPerUnit * pass * m.predictBlockUnits(p.Stats, p.Blocks[i])
		p.Blocks[i].PredictedNs = ns
		total += ns
	}
	p.PredictedNs = total
}
