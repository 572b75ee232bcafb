package matrix

// Bitmap is a fixed-capacity bit set over column indices, the storage behind
// the kernels' bitmap mask representation: one bit per column, packed 64 per
// word, so a membership probe is a shift and a mask instead of a binary
// search over a CSR row. Rows are scattered in with SetAll and removed with
// ClearAll, which touch only the words of the given entries — per-row cost is
// O(nnz(row)), never O(ncols).
//
// A Bitmap holds no row identity of its own; kernels own one per worker and
// are responsible for clearing the bits they set before moving to the next
// row (the same reset discipline the dense accumulators follow), which keeps
// pooled bitmaps reusable without an O(ncols) wipe.
type Bitmap struct {
	words []uint64
}

// NewBitmap returns a cleared bitmap with capacity for nbits bits.
func NewBitmap(nbits int) *Bitmap {
	return &Bitmap{words: make([]uint64, (nbits+63)/64)}
}

// Resize grows the bitmap to hold at least nbits bits. Existing bits must
// already be cleared (grown storage is zero; retained storage is kept as-is).
func (b *Bitmap) Resize(nbits int) {
	want := (nbits + 63) / 64
	if want > len(b.words) {
		b.words = make([]uint64, want)
	}
}

// Bits returns the bit capacity.
func (b *Bitmap) Bits() int { return len(b.words) * 64 }

// Bytes returns the capacity the bitmap holds, in bytes.
func (b *Bitmap) Bytes() int64 { return int64(cap(b.words)) * 8 }

// Set sets bit j.
func (b *Bitmap) Set(j Index) {
	b.words[uint32(j)>>6] |= 1 << (uint32(j) & 63)
}

// Clear clears bit j.
func (b *Bitmap) Clear(j Index) {
	b.words[uint32(j)>>6] &^= 1 << (uint32(j) & 63)
}

// Contains reports whether bit j is set.
func (b *Bitmap) Contains(j Index) bool {
	return b.words[uint32(j)>>6]&(1<<(uint32(j)&63)) != 0
}

// SetAll sets every bit in cols.
func (b *Bitmap) SetAll(cols []Index) {
	for _, j := range cols {
		b.words[uint32(j)>>6] |= 1 << (uint32(j) & 63)
	}
}

// ClearAll clears every bit in cols.
func (b *Bitmap) ClearAll(cols []Index) {
	for _, j := range cols {
		b.words[uint32(j)>>6] &^= 1 << (uint32(j) & 63)
	}
}

// RowRun reports whether the sorted, duplicate-free index slice cols is a
// contiguous run [lo, hi): the shape the dense-row direct-index mask
// representation exploits, where membership is a range check and the mask
// position of column j is j-lo. The check is O(1) — first entry, last entry,
// length — and is exact only under the sorted/duplicate-free precondition
// every builder in this package guarantees.
func RowRun(cols []Index) (lo, hi Index, ok bool) {
	n := len(cols)
	if n == 0 {
		return 0, 0, false
	}
	lo, hi = cols[0], cols[n-1]+1
	return lo, hi, hi-lo == Index(n)
}
