package wire

// The protocol messages: one struct per frame type, with Encode appending
// a complete frame (header + payload + padding) and Decode parsing a
// payload as returned by DecodeFrame/ReadFrame.

import (
	"fmt"

	"repro/internal/matrix"
)

// Flag bits of MultiplyReq.Flags.
const (
	// FlagComplement asks for the complemented mask: C = ¬M .* (A·B).
	FlagComplement uint16 = 1 << 0
)

// Flag bits of MultiplyRes.Flags.
const (
	// FlagCoalesced reports the response was answered by coalescing onto
	// an identical concurrent request.
	FlagCoalesced uint16 = 1 << 0
)

// patternBound bounds the payload bytes encodePattern writes: the 12-byte
// dimension header, then each array with up to 7 bytes of alignment
// padding before it.
func patternBound(p *matrix.Pattern) int {
	return 12 + 7 + 4*len(p.RowPtr) + 7 + 4*len(p.Col)
}

// encodePattern writes a structure-only CSR matrix into the payload.
func encodePattern(e *enc, p *matrix.Pattern) {
	e.i32(p.NRows)
	e.i32(p.NCols)
	e.u32(uint32(p.NNZ()))
	e.i32s(p.RowPtr)
	e.i32s(p.Col)
}

// decodePattern reads a pattern, validating the structural bounds (array
// lengths against available bytes, row-pointer/ nnz agreement).
func decodePattern(d *dec) *matrix.Pattern {
	nrows, ncols := d.i32(), d.i32()
	nnz := d.u32()
	if d.err == nil && (nrows < 0 || ncols < 0) {
		d.fail("negative dimension %dx%d", nrows, ncols)
	}
	rowptr := d.i32s(int(nrows) + 1)
	col := d.i32s(int(nnz))
	if d.err != nil {
		return nil
	}
	if rowptr[nrows] != int32(nnz) {
		d.fail("row pointer/nnz mismatch: RowPtr[%d]=%d, nnz=%d", nrows, rowptr[nrows], nnz)
		return nil
	}
	return &matrix.Pattern{NRows: nrows, NCols: ncols, RowPtr: rowptr, Col: col}
}

// matrixBound bounds the payload bytes encodeMatrix writes: its pattern,
// then the values with up to 7 bytes of alignment padding before them.
func matrixBound(a *matrix.CSR[float64]) int {
	return patternBound(a.Pattern()) + 7 + 8*len(a.Val)
}

// encodeMatrix writes a CSR float64 matrix into the payload.
func encodeMatrix(e *enc, a *matrix.CSR[float64]) {
	encodePattern(e, a.Pattern())
	e.f64s(a.Val)
}

// decodeMatrix reads a CSR float64 matrix.
func decodeMatrix(d *dec) *matrix.CSR[float64] {
	p := decodePattern(d)
	if p == nil {
		return nil
	}
	val := d.f64s(p.NNZ())
	if d.err != nil {
		return nil
	}
	return &matrix.CSR[float64]{NRows: p.NRows, NCols: p.NCols, RowPtr: p.RowPtr, Col: p.Col, Val: val}
}

// MultiplyReq is one masked multiply over the wire:
// C = M .* (A·B), or the complement form under FlagComplement.
type MultiplyReq struct {
	// Flags carries the request flag bits (FlagComplement).
	Flags uint16
	// DeadlineMillis bounds the request's execution time in milliseconds
	// (0 = the server default). The server maps it onto a context
	// deadline, cancelling the multiply cooperatively mid-flight. Frames
	// concatenated into one batch body share a single context whose
	// deadline is the LARGEST requested across the batch — a frame may
	// run longer than its own field asks. Clients that need strict
	// per-frame deadlines send those frames as separate requests.
	DeadlineMillis uint32
	// Semiring names the accumulation semiring ("arithmetic" when empty);
	// see masked.SemiringByName for the accepted names.
	Semiring string
	// M is the mask pattern; A and B the operands.
	M *matrix.Pattern
	// A and B are the product operands.
	A, B *matrix.CSR[float64]
}

// Encode appends the request as a complete frame to dst.
func (r *MultiplyReq) Encode(dst []byte) []byte {
	dst, off := beginFrame(dst, FrameMultiplyReq,
		2+4+1+len(r.Semiring)+patternBound(r.M)+matrixBound(r.A)+matrixBound(r.B))
	e := &enc{buf: dst, base: off + headerSize}
	e.u16(r.Flags)
	e.u32(r.DeadlineMillis)
	e.bytesU8(r.Semiring)
	encodePattern(e, r.M)
	encodeMatrix(e, r.A)
	encodeMatrix(e, r.B)
	return finishFrame(e.buf, off)
}

// DecodeMultiplyReq parses a FrameMultiplyReq payload. The decoded
// matrices may alias payload; see the package comment.
func DecodeMultiplyReq(payload []byte) (*MultiplyReq, error) {
	d := &dec{p: payload}
	r := &MultiplyReq{Flags: d.u16(), DeadlineMillis: d.u32(), Semiring: d.bytesU8()}
	r.M = decodePattern(d)
	r.A = decodeMatrix(d)
	r.B = decodeMatrix(d)
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// Validate runs the full semantic checks a server must apply to untrusted
// operands before handing them to the kernels: CSR invariants on all
// three, compatible shapes, and sorted duplicate-free rows (the mask
// probes and the heap kernels rely on row order). O(nnz); trusted callers
// may skip it.
func (r *MultiplyReq) Validate() error {
	if r.M == nil || r.A == nil || r.B == nil {
		return fmt.Errorf("wire: multiply request with nil operand")
	}
	if err := r.M.Validate(); err != nil {
		return fmt.Errorf("wire: mask: %w", err)
	}
	if err := r.A.Validate(); err != nil {
		return fmt.Errorf("wire: A: %w", err)
	}
	if err := r.B.Validate(); err != nil {
		return fmt.Errorf("wire: B: %w", err)
	}
	if r.A.NCols != r.B.NRows || r.M.NRows != r.A.NRows || r.M.NCols != r.B.NCols {
		return fmt.Errorf("wire: incompatible shapes: M %dx%d, A %dx%d, B %dx%d",
			r.M.NRows, r.M.NCols, r.A.NRows, r.A.NCols, r.B.NRows, r.B.NCols)
	}
	if !r.M.IsSortedRows() || !r.A.IsSortedRows() || !r.B.IsSortedRows() {
		return fmt.Errorf("wire: operand rows must be sorted and duplicate-free")
	}
	return nil
}

// MultiplyRes is the result of a MultiplyReq.
type MultiplyRes struct {
	// Flags carries the response flag bits (FlagCoalesced).
	Flags uint16
	// Workers is the arbitrated worker share the computation started with.
	Workers uint16
	// C is the masked product.
	C *matrix.CSR[float64]
}

// Encode appends the response as a complete frame to dst.
func (r *MultiplyRes) Encode(dst []byte) []byte {
	dst, off := beginFrame(dst, FrameMultiplyRes, 2+2+matrixBound(r.C))
	e := &enc{buf: dst, base: off + headerSize}
	e.u16(r.Flags)
	e.u16(r.Workers)
	encodeMatrix(e, r.C)
	return finishFrame(e.buf, off)
}

// DecodeMultiplyRes parses a FrameMultiplyRes payload.
func DecodeMultiplyRes(payload []byte) (*MultiplyRes, error) {
	d := &dec{p: payload}
	r := &MultiplyRes{Flags: d.u16(), Workers: d.u16()}
	r.C = decodeMatrix(d)
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// Operand tags of FrameMultiplyRefReq: each of M, A and B is preceded by
// one tag byte saying how it travels.
const (
	// TagInline precedes an operand encoded in place, exactly as in
	// FrameMultiplyReq.
	TagInline uint8 = 0
	// TagRef precedes a nonzero u64 reference the server issued for an
	// operand it holds.
	TagRef uint8 = 1
)

// MultiplyRefReq is a MultiplyReq whose operands may travel as references
// the server issued in an earlier FrameMultiplyRefRes. Refs holds the
// references of M, A and B in that order: where Refs[i] is nonzero the
// frame carries it in place of the operand, whose field Encode ignores and
// the decoder leaves nil. Operands with a zero reference travel inline.
type MultiplyRefReq struct {
	MultiplyReq
	// Refs are the references of M, A and B (0 = inline).
	Refs [3]uint64
}

// tag writes an operand's tag and, for a reference, the reference; it
// reports whether the operand itself follows inline.
func (e *enc) tag(ref uint64) bool {
	if ref == 0 {
		e.u8(TagInline)
		return true
	}
	e.u8(TagRef)
	e.i64(int64(ref))
	return false
}

// tag reads an operand's tag: a nonzero reference, or inline true when the
// operand follows in place. A reference of 0 or an unknown tag is a decode
// error.
func (d *dec) tag() (ref uint64, inline bool) {
	switch t := d.u8(); {
	case d.err != nil:
		return 0, false
	case t == TagInline:
		return 0, true
	case t == TagRef:
		if ref = uint64(d.i64()); d.err == nil && ref == 0 {
			d.fail("operand reference 0")
		}
		return ref, false
	default:
		d.fail("bad operand tag %d", t)
		return 0, false
	}
}

// Encode appends the request as a complete frame to dst.
func (r *MultiplyRefReq) Encode(dst []byte) []byte {
	bound := 2 + 4 + 1 + len(r.Semiring) + 3*(1+8)
	if r.Refs[0] == 0 {
		bound += patternBound(r.M)
	}
	if r.Refs[1] == 0 {
		bound += matrixBound(r.A)
	}
	if r.Refs[2] == 0 {
		bound += matrixBound(r.B)
	}
	dst, off := beginFrame(dst, FrameMultiplyRefReq, bound)
	e := &enc{buf: dst, base: off + headerSize}
	e.u16(r.Flags)
	e.u32(r.DeadlineMillis)
	e.bytesU8(r.Semiring)
	if e.tag(r.Refs[0]) {
		encodePattern(e, r.M)
	}
	if e.tag(r.Refs[1]) {
		encodeMatrix(e, r.A)
	}
	if e.tag(r.Refs[2]) {
		encodeMatrix(e, r.B)
	}
	return finishFrame(e.buf, off)
}

// DecodeMultiplyRefReq parses a FrameMultiplyRefReq payload. Inline
// operands may alias payload, as in DecodeMultiplyReq.
func DecodeMultiplyRefReq(payload []byte) (*MultiplyRefReq, error) {
	d := &dec{p: payload}
	r := &MultiplyRefReq{MultiplyReq: MultiplyReq{Flags: d.u16(), DeadlineMillis: d.u32(), Semiring: d.bytesU8()}}
	var inline bool
	if r.Refs[0], inline = d.tag(); inline {
		r.M = decodePattern(d)
	}
	if r.Refs[1], inline = d.tag(); inline {
		r.A = decodeMatrix(d)
	}
	if r.Refs[2], inline = d.tag(); inline {
		r.B = decodeMatrix(d)
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// MultiplyRefRes is the response to a MultiplyRefReq: a MultiplyRes plus
// the references the server holds its operands under, M, A and B in that
// order. A reference is 0 when the server retains no copy of the operand
// (interning disabled, or the operand larger than the table's byte bound).
type MultiplyRefRes struct {
	MultiplyRes
	// Refs are the references of M, A and B (0 = not retained).
	Refs [3]uint64
}

// Encode appends the response as a complete frame to dst.
func (r *MultiplyRefRes) Encode(dst []byte) []byte {
	dst, off := beginFrame(dst, FrameMultiplyRefRes, 2+2+3*8+matrixBound(r.C))
	e := &enc{buf: dst, base: off + headerSize}
	e.u16(r.Flags)
	e.u16(r.Workers)
	for _, ref := range r.Refs {
		e.i64(int64(ref))
	}
	encodeMatrix(e, r.C)
	return finishFrame(e.buf, off)
}

// DecodeMultiplyRefRes parses a FrameMultiplyRefRes payload.
func DecodeMultiplyRefRes(payload []byte) (*MultiplyRefRes, error) {
	d := &dec{p: payload}
	r := &MultiplyRefRes{MultiplyRes: MultiplyRes{Flags: d.u16(), Workers: d.u16()}}
	for i := range r.Refs {
		r.Refs[i] = uint64(d.i64())
	}
	r.C = decodeMatrix(d)
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// ErrorFrame is the error response to any request frame.
type ErrorFrame struct {
	// Code is an HTTP-style status code (429 saturated, 400 bad request,
	// 504 deadline exceeded, 500 execution failure) or CodeUnknownRef.
	Code uint16
	// Message is the human-readable error.
	Message string
}

// CodeUnknownRef is the ErrorFrame code of a FrameMultiplyRefReq naming a
// reference the server does not hold: never issued, or dropped with its
// evicted entry. The client resends the operands inline.
const CodeUnknownRef uint16 = 410

// maxErrorMessage is the longest Message an ErrorFrame carries; Encode
// truncates longer ones.
const maxErrorMessage = 1 << 15

// Encode appends the error as a complete frame to dst.
func (r *ErrorFrame) Encode(dst []byte) []byte {
	msg := r.Message[:min(len(r.Message), maxErrorMessage)]
	dst, off := beginFrame(dst, FrameError, 2+2+len(msg))
	e := &enc{buf: dst, base: off + headerSize}
	e.u16(r.Code)
	e.u16(uint16(len(msg)))
	e.buf = append(e.buf, msg...)
	return finishFrame(e.buf, off)
}

// DecodeErrorFrame parses a FrameError payload.
func DecodeErrorFrame(payload []byte) (*ErrorFrame, error) {
	d := &dec{p: payload}
	r := &ErrorFrame{Code: d.u16()}
	n := int(d.u16())
	if !d.need(n) {
		return nil, d.err
	}
	r.Message = string(payload[d.off : d.off+n])
	return r, nil
}

// TriangleCountReq asks for the triangle count of an undirected graph
// (symmetric adjacency, no self-loops).
type TriangleCountReq struct {
	// DeadlineMillis bounds execution time (0 = server default).
	DeadlineMillis uint32
	// G is the graph adjacency matrix.
	G *matrix.CSR[float64]
}

// Encode appends the request as a complete frame to dst.
func (r *TriangleCountReq) Encode(dst []byte) []byte {
	dst, off := beginFrame(dst, FrameTriangleCountReq, 4+matrixBound(r.G))
	e := &enc{buf: dst, base: off + headerSize}
	e.u32(r.DeadlineMillis)
	encodeMatrix(e, r.G)
	return finishFrame(e.buf, off)
}

// DecodeTriangleCountReq parses a FrameTriangleCountReq payload.
func DecodeTriangleCountReq(payload []byte) (*TriangleCountReq, error) {
	d := &dec{p: payload}
	r := &TriangleCountReq{DeadlineMillis: d.u32()}
	r.G = decodeMatrix(d)
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// TriangleCountRes reports a triangle count.
type TriangleCountRes struct {
	// Triangles is the triangle count; Flops the work metric flops(L·L).
	Triangles, Flops int64
	// MaskedNanos is time inside the masked SpGEMM; TotalNanos end to end
	// on the server (excluding wire codec and transport).
	MaskedNanos, TotalNanos int64
}

// Encode appends the response as a complete frame to dst.
func (r *TriangleCountRes) Encode(dst []byte) []byte {
	dst, off := beginFrame(dst, FrameTriangleCountRes, 4*8)
	e := &enc{buf: dst, base: off + headerSize}
	e.i64(r.Triangles)
	e.i64(r.Flops)
	e.i64(r.MaskedNanos)
	e.i64(r.TotalNanos)
	return finishFrame(e.buf, off)
}

// DecodeTriangleCountRes parses a FrameTriangleCountRes payload.
func DecodeTriangleCountRes(payload []byte) (*TriangleCountRes, error) {
	d := &dec{p: payload}
	r := &TriangleCountRes{Triangles: d.i64(), Flops: d.i64(), MaskedNanos: d.i64(), TotalNanos: d.i64()}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// BFSReq asks for a single-source breadth-first search.
type BFSReq struct {
	// Source is the start vertex.
	Source matrix.Index
	// DeadlineMillis bounds execution time (0 = server default).
	DeadlineMillis uint32
	// G is the graph adjacency matrix (directed edges point
	// source→target).
	G *matrix.CSR[float64]
}

// Encode appends the request as a complete frame to dst.
func (r *BFSReq) Encode(dst []byte) []byte {
	dst, off := beginFrame(dst, FrameBFSReq, 4+4+matrixBound(r.G))
	e := &enc{buf: dst, base: off + headerSize}
	e.i32(r.Source)
	e.u32(r.DeadlineMillis)
	encodeMatrix(e, r.G)
	return finishFrame(e.buf, off)
}

// DecodeBFSReq parses a FrameBFSReq payload.
func DecodeBFSReq(payload []byte) (*BFSReq, error) {
	d := &dec{p: payload}
	r := &BFSReq{Source: d.i32(), DeadlineMillis: d.u32()}
	r.G = decodeMatrix(d)
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// BFSRes reports a BFS traversal.
type BFSRes struct {
	// Depth is the number of frontier expansions; PushSteps and PullSteps
	// count the direction decisions.
	Depth, PushSteps, PullSteps int32
	// Level[v] is the BFS depth of vertex v, -1 if unreachable.
	Level []int32
}

// Encode appends the response as a complete frame to dst.
func (r *BFSRes) Encode(dst []byte) []byte {
	dst, off := beginFrame(dst, FrameBFSRes, 4*4+7+4*len(r.Level))
	e := &enc{buf: dst, base: off + headerSize}
	e.i32(r.Depth)
	e.i32(r.PushSteps)
	e.i32(r.PullSteps)
	e.i32(int32(len(r.Level)))
	e.i32s(r.Level)
	return finishFrame(e.buf, off)
}

// DecodeBFSRes parses a FrameBFSRes payload.
func DecodeBFSRes(payload []byte) (*BFSRes, error) {
	d := &dec{p: payload}
	r := &BFSRes{Depth: d.i32(), PushSteps: d.i32(), PullSteps: d.i32()}
	n := d.i32()
	r.Level = d.i32s(int(n))
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}
