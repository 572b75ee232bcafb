package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/masked"
)

// buildReq makes a deterministic multiply request from a generated graph.
func buildReq(scale int, seed uint64, complement bool, sr string) *MultiplyReq {
	l := matrix.Tril(grgen.RMAT(scale, 8, seed))
	r := &MultiplyReq{Semiring: sr, M: l.Pattern(), A: l, B: l}
	if complement {
		r.Flags |= FlagComplement
	}
	return r
}

// TestFrameRoundTrip checks header encode/decode and frame concatenation.
func TestFrameRoundTrip(t *testing.T) {
	r1 := buildReq(6, 1, false, "plus-pair-f64")
	r2 := buildReq(5, 2, true, "")
	buf := r1.Encode(nil)
	if len(buf)%8 != 0 {
		t.Fatalf("frame length %d not a multiple of 8", len(buf))
	}
	buf = r2.Encode(buf)

	typ, payload, rest, err := DecodeFrame(buf)
	if err != nil || typ != FrameMultiplyReq {
		t.Fatalf("frame 1: type %d err %v", typ, err)
	}
	d1, err := DecodeMultiplyReq(payload)
	if err != nil {
		t.Fatalf("decode 1: %v", err)
	}
	typ, payload, rest, err = DecodeFrame(rest)
	if err != nil || typ != FrameMultiplyReq {
		t.Fatalf("frame 2: type %d err %v", typ, err)
	}
	d2, err := DecodeMultiplyReq(payload)
	if err != nil {
		t.Fatalf("decode 2: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing %d bytes after batch", len(rest))
	}
	if d1.Flags != 0 || d2.Flags != FlagComplement {
		t.Fatalf("flags: %d %d", d1.Flags, d2.Flags)
	}
	if d1.Semiring != "plus-pair-f64" || d2.Semiring != "" {
		t.Fatalf("semirings: %q %q", d1.Semiring, d2.Semiring)
	}
	for _, pair := range []struct{ got, want *matrix.CSR[float64] }{{d1.A, r1.A}, {d2.B, r2.B}} {
		if !matrix.Equal(pair.got, pair.want, func(a, b float64) bool { return a == b }) {
			t.Fatal("decoded operand differs from encoded")
		}
	}
	if err := d1.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

// TestReadFrame checks the io.Reader form, including the size limit.
func TestReadFrame(t *testing.T) {
	req := buildReq(5, 3, false, "arithmetic")
	buf := req.Encode(nil)
	typ, payload, err := ReadFrame(bytes.NewReader(buf), len(buf))
	if err != nil || typ != FrameMultiplyReq {
		t.Fatalf("ReadFrame: type %d err %v", typ, err)
	}
	if _, err := DecodeMultiplyReq(payload); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(buf), 8); err == nil {
		t.Fatal("ReadFrame accepted a frame over its payload limit")
	}

	// No explicit limit still enforces MaxPayloadDefault: a 16-byte header
	// claiming a ~4 GiB payload must fail before allocating it.
	huge := append([]byte(nil), buf[:headerSize]...)
	huge[8], huge[9], huge[10], huge[11] = 0xf8, 0xff, 0xff, 0xff
	if _, _, err := ReadFrame(bytes.NewReader(huge), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("unlimited ReadFrame on a 4 GiB claim: %v, want ErrFrameTooLarge", err)
	}
}

// TestRoundTripBitIdentical is the wire-codec property test: multiplying
// wire-decoded operands yields bit-identical results to multiplying the
// originals in process, under both the zero-copy aligned path and the
// copying misaligned fallback.
func TestRoundTripBitIdentical(t *testing.T) {
	ctx := context.Background()
	s := masked.NewSession(masked.WithThreads(2))
	rng := rand.New(rand.NewPCG(7, 11))
	for it := 0; it < 6; it++ {
		scale := 5 + it%3
		complement := it%2 == 1
		req := buildReq(scale, rng.Uint64(), complement, "plus-pair-f64")
		buf := req.Encode(nil)

		// Aligned: payload arrays decode as views of buf.
		dec, err := decodeOne(t, buf)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		// Misaligned: shift the whole frame one byte so every array view
		// fails its alignment check and decodes through the copying path.
		shifted := append(make([]byte, 1, 1+len(buf)), buf...)
		decCopy, err := decodeOne(t, shifted[1:])
		if err != nil {
			t.Fatalf("it %d (shifted): %v", it, err)
		}

		var ops []masked.Op
		ops = append(ops, masked.WithAccumulate(masked.PlusPair()))
		if complement {
			ops = append(ops, masked.WithComplement())
		}
		want, err := s.Multiply(ctx, req.M, req.A, req.B, ops...)
		if err != nil {
			t.Fatalf("it %d: in-process multiply: %v", it, err)
		}
		for name, d := range map[string]*MultiplyReq{"aligned": dec, "copied": decCopy} {
			if err := d.Validate(); err != nil {
				t.Fatalf("it %d %s: validate: %v", it, name, err)
			}
			got, err := s.Multiply(ctx, d.M, d.A, d.B, ops...)
			if err != nil {
				t.Fatalf("it %d %s: decoded multiply: %v", it, name, err)
			}
			if !matrix.Equal(got, want, func(a, b float64) bool { return a == b }) {
				t.Fatalf("it %d %s: wire-decoded product differs from in-process product", it, name)
			}
		}
	}
}

func decodeOne(t *testing.T, buf []byte) (*MultiplyReq, error) {
	t.Helper()
	typ, payload, rest, err := DecodeFrame(buf)
	if err != nil {
		return nil, err
	}
	if typ != FrameMultiplyReq || len(rest) != 0 {
		t.Fatalf("unexpected frame shape: type %d, %d trailing", typ, len(rest))
	}
	return DecodeMultiplyReq(payload)
}

// TestResponseMessages round-trips the response frame types.
func TestResponseMessages(t *testing.T) {
	c := matrix.Tril(grgen.RMAT(5, 4, 9))
	res := &MultiplyRes{Flags: FlagCoalesced, Workers: 3, C: c}
	buf := res.Encode(nil)
	_, payload, _, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMultiplyRes(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != FlagCoalesced || got.Workers != 3 {
		t.Fatalf("metadata: %+v", got)
	}
	if !matrix.Equal(got.C, c, func(a, b float64) bool { return a == b }) {
		t.Fatal("decoded C differs")
	}

	ef := &ErrorFrame{Code: 429, Message: "saturated"}
	_, payload, _, err = DecodeFrame(ef.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	gotE, err := DecodeErrorFrame(payload)
	if err != nil || gotE.Code != 429 || gotE.Message != "saturated" {
		t.Fatalf("error frame: %+v err %v", gotE, err)
	}

	tc := &TriangleCountRes{Triangles: 42, Flops: 1000, MaskedNanos: 5, TotalNanos: 9}
	_, payload, _, err = DecodeFrame(tc.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	gotT, err := DecodeTriangleCountRes(payload)
	if err != nil || *gotT != *tc {
		t.Fatalf("tc res: %+v err %v", gotT, err)
	}

	bfs := &BFSRes{Depth: 3, PushSteps: 2, PullSteps: 1, Level: []int32{0, 1, -1, 2}}
	_, payload, _, err = DecodeFrame(bfs.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := DecodeBFSRes(payload)
	if err != nil || gotB.Depth != 3 || len(gotB.Level) != 4 || gotB.Level[2] != -1 {
		t.Fatalf("bfs res: %+v err %v", gotB, err)
	}

	breq := &BFSReq{Source: 2, DeadlineMillis: 100, G: c}
	_, payload, _, err = DecodeFrame(breq.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	gotBR, err := DecodeBFSReq(payload)
	if err != nil || gotBR.Source != 2 || gotBR.DeadlineMillis != 100 {
		t.Fatalf("bfs req: %+v err %v", gotBR, err)
	}

	treq := &TriangleCountReq{DeadlineMillis: 7, G: c}
	_, payload, _, err = DecodeFrame(treq.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	gotTR, err := DecodeTriangleCountReq(payload)
	if err != nil || gotTR.DeadlineMillis != 7 || gotTR.G.NNZ() != c.NNZ() {
		t.Fatalf("tc req: %+v err %v", gotTR, err)
	}
}

// TestRefFramesRoundTrip round-trips both reference frame types: every
// combination of inline and referenced operands decodes to the same
// scalars, references and operands, and referenced operands decode nil.
func TestRefFramesRoundTrip(t *testing.T) {
	base := buildReq(5, 4, true, "min-plus")
	base.DeadlineMillis = 250
	for mask := 0; mask < 8; mask++ {
		req := &MultiplyRefReq{MultiplyReq: *base}
		for i := range req.Refs {
			if mask&(1<<i) != 0 {
				req.Refs[i] = 0x9e3779b97f4a7c15 + uint64(i)
			}
		}
		typ, payload, rest, err := DecodeFrame(WithChecksum(req.Encode(nil)))
		if err != nil || typ != FrameMultiplyRefReq || len(rest) != 0 {
			t.Fatalf("refs %03b: frame type %d, %d trailing, err %v", mask, typ, len(rest), err)
		}
		got, err := DecodeMultiplyRefReq(payload)
		if err != nil {
			t.Fatalf("refs %03b: %v", mask, err)
		}
		if got.Flags != base.Flags || got.DeadlineMillis != base.DeadlineMillis ||
			got.Semiring != base.Semiring || got.Refs != req.Refs {
			t.Fatalf("refs %03b: scalars %+v, want %+v", mask, got, req)
		}
		if (got.M == nil) != (req.Refs[0] != 0) || (got.A == nil) != (req.Refs[1] != 0) || (got.B == nil) != (req.Refs[2] != 0) {
			t.Fatalf("refs %03b: inline operands decoded as M %v A %v B %v", mask, got.M != nil, got.A != nil, got.B != nil)
		}
		if got.M != nil && !matrix.EqualPatterns(got.M, base.M) {
			t.Fatalf("refs %03b: mask differs", mask)
		}
		for _, pair := range [][2]*matrix.CSR[float64]{{got.A, base.A}, {got.B, base.B}} {
			if pair[0] != nil && !matrix.Equal(pair[0], pair[1], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("refs %03b: inline operand differs", mask)
			}
		}
	}

	res := &MultiplyRefRes{MultiplyRes: MultiplyRes{Flags: FlagCoalesced, Workers: 2, C: base.A}, Refs: [3]uint64{7, 0, 1 << 63}}
	_, payload, _, err := DecodeFrame(res.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMultiplyRefRes(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != FlagCoalesced || got.Workers != 2 || got.Refs != res.Refs ||
		!matrix.Equal(got.C, res.C, func(a, b float64) bool { return a == b }) {
		t.Fatalf("reference response: %+v", got)
	}
}

// TestRefFramesMalformed checks the reference frame's own failure modes:
// an unknown tag, a zero reference and a reference cut short all fail to
// decode.
func TestRefFramesMalformed(t *testing.T) {
	req := &MultiplyRefReq{MultiplyReq: *buildReq(4, 5, false, ""), Refs: [3]uint64{3, 0, 5}}
	frame := req.Encode(nil)
	tagAt := headerSize + 2 + 4 + 1 // the mask's tag: after flags, deadline and an empty name
	cases := map[string]func([]byte) []byte{
		"bad tag": func(b []byte) []byte { b[tagAt] = 2; return b },
		"zero reference": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[tagAt+1:], 0)
			return b
		},
		"truncated reference": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], uint32(tagAt+1+4-headerSize))
			return b
		},
	}
	for name, corrupt := range cases {
		typ, payload, _, err := DecodeFrame(corrupt(bytes.Clone(frame)))
		if err != nil || typ != FrameMultiplyRefReq {
			t.Fatalf("%s: frame type %d, err %v", name, typ, err)
		}
		if _, err := DecodeMultiplyRefReq(payload); err == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
	}
}

// TestMalformedFramesError feeds structurally broken frames and asserts
// clean errors without panics or attacker-sized allocations.
func TestMalformedFramesError(t *testing.T) {
	valid := buildReq(5, 1, false, "").Encode(nil)

	cases := map[string][]byte{
		"empty":        {},
		"short header": valid[:8],
		"bad magic":    append([]byte("XXXX"), valid[4:]...),
		"bad version":  append(append([]byte{}, valid[:4]...), append([]byte{99}, valid[5:]...)...),
		"truncated":    valid[:len(valid)-9],
	}
	for name, data := range cases {
		if _, _, _, err := DecodeFrame(data); err == nil {
			// A truncated *payload* may still frame-decode; the message
			// decoder must then error.
			typ, payload, _, _ := DecodeFrame(data)
			if typ == FrameMultiplyReq {
				if _, err := DecodeMultiplyReq(payload); err == nil {
					t.Errorf("%s: decoded cleanly", name)
				}
			} else {
				t.Errorf("%s: DecodeFrame accepted it", name)
			}
		}
	}

	// A frame lying about its nnz must error from the length check, not
	// allocate gigabytes: run it under an allocation budget.
	lying := append([]byte(nil), valid...)
	// Payload layout: flags u16, deadline u32, name u8 → nnz field of the
	// mask pattern sits after nrows/ncols. Corrupt the payload's pattern
	// header region wholesale instead of chasing offsets.
	for i := headerSize; i < headerSize+24 && i < len(lying); i++ {
		lying[i] = 0xFF
	}
	allocs := testing.AllocsPerRun(10, func() {
		typ, payload, _, err := DecodeFrame(lying)
		if err == nil && typ == FrameMultiplyReq {
			if _, err := DecodeMultiplyReq(payload); err == nil {
				t.Fatal("lying frame decoded cleanly")
			}
		}
	})
	if allocs > 16 {
		t.Fatalf("malformed decode allocated %v objects; want a cheap rejection", allocs)
	}
}

// golden builds frames the plain way: every field appended one at a
// time, every array element through encoding/binary, zero padding to
// 8-byte payload boundaries. It is the reference the encoders' one-shot
// reservation must reproduce byte for byte.
type golden struct{ p []byte }

func (g *golden) u16(v uint16) { g.p = binary.LittleEndian.AppendUint16(g.p, v) }
func (g *golden) u32(v uint32) { g.p = binary.LittleEndian.AppendUint32(g.p, v) }
func (g *golden) u64(v uint64) { g.p = binary.LittleEndian.AppendUint64(g.p, v) }

func (g *golden) pad() {
	for len(g.p)%8 != 0 {
		g.p = append(g.p, 0)
	}
}

func (g *golden) i32s(v []int32) {
	g.pad()
	for _, x := range v {
		g.u32(uint32(x))
	}
}

func (g *golden) pattern(p *matrix.Pattern) {
	g.u32(uint32(p.NRows))
	g.u32(uint32(p.NCols))
	g.u32(uint32(len(p.Col)))
	g.i32s(p.RowPtr)
	g.i32s(p.Col)
}

func (g *golden) matrix(a *matrix.CSR[float64]) {
	g.pattern(a.Pattern())
	g.pad()
	for _, x := range a.Val {
		g.u64(math.Float64bits(x))
	}
}

// frame wraps the payload in a version-1 header and pads it.
func (g *golden) frame(t FrameType) []byte {
	n := len(g.p)
	out := append([]byte("MSPW"), Version, byte(t), 0, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = append(out, g.p...)
	for len(out)%8 != 0 {
		out = append(out, 0)
	}
	return out
}

// randCSR makes a small random CSR matrix, zero rows and zero entries
// included, with values that exercise signed zeros and NaN payloads.
func randCSR(rng *rand.Rand) *matrix.CSR[float64] {
	nrows, ncols := int32(rng.IntN(6)), int32(rng.IntN(6))
	a := &matrix.CSR[float64]{NRows: nrows, NCols: ncols, RowPtr: make([]int32, nrows+1)}
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0001), 1.5}
	for i := int32(0); i < nrows; i++ {
		for j := int32(0); j < ncols; j++ {
			if rng.IntN(3) == 0 {
				a.Col = append(a.Col, j)
				a.Val = append(a.Val, specials[rng.IntN(len(specials))])
			}
		}
		a.RowPtr[i+1] = int32(len(a.Col))
	}
	return a
}

// encoder is what every message type implements.
type encoder interface{ Encode(dst []byte) []byte }

// randMessages returns one random instance of every message type paired
// with its golden frame.
func randMessages(rng *rand.Rand) ([]encoder, [][]byte) {
	var msgs []encoder
	var want [][]byte
	add := func(m encoder, g *golden, t FrameType) {
		msgs = append(msgs, m)
		want = append(want, g.frame(t))
	}
	names := []string{"", "plus-pair", "arithmetic"}

	req := &MultiplyReq{Flags: uint16(rng.IntN(2)), DeadlineMillis: rng.Uint32(),
		Semiring: names[rng.IntN(len(names))], M: randCSR(rng).Pattern(), A: randCSR(rng), B: randCSR(rng)}
	g := &golden{}
	g.u16(req.Flags)
	g.u32(req.DeadlineMillis)
	g.p = append(append(g.p, byte(len(req.Semiring))), req.Semiring...)
	g.pattern(req.M)
	g.matrix(req.A)
	g.matrix(req.B)
	add(req, g, FrameMultiplyReq)

	res := &MultiplyRes{Flags: uint16(rng.IntN(2)), Workers: uint16(rng.IntN(4)), C: randCSR(rng)}
	g = &golden{}
	g.u16(res.Flags)
	g.u16(res.Workers)
	g.matrix(res.C)
	add(res, g, FrameMultiplyRes)

	// Each operand travels inline or by reference, independently.
	refReq := &MultiplyRefReq{MultiplyReq: *req}
	for i := range refReq.Refs {
		if rng.IntN(2) == 0 {
			refReq.Refs[i] = rng.Uint64() | 1
		}
	}
	g = &golden{}
	g.u16(req.Flags)
	g.u32(req.DeadlineMillis)
	g.p = append(append(g.p, byte(len(req.Semiring))), req.Semiring...)
	for i, inline := range []func(){func() { g.pattern(req.M) }, func() { g.matrix(req.A) }, func() { g.matrix(req.B) }} {
		if refReq.Refs[i] == 0 {
			g.p = append(g.p, TagInline)
			inline()
		} else {
			g.p = append(g.p, TagRef)
			g.u64(refReq.Refs[i])
		}
	}
	add(refReq, g, FrameMultiplyRefReq)

	refRes := &MultiplyRefRes{MultiplyRes: *res, Refs: [3]uint64{rng.Uint64(), 0, rng.Uint64()}}
	g = &golden{}
	g.u16(res.Flags)
	g.u16(res.Workers)
	for _, ref := range refRes.Refs {
		g.u64(ref)
	}
	g.matrix(res.C)
	add(refRes, g, FrameMultiplyRefRes)

	// Messages past 32 KiB are truncated to their first 32768 bytes.
	msgLen := []int{rng.IntN(20), 1 << 15, 1<<15 + 1 + rng.IntN(20)}[rng.IntN(3)]
	ef := &ErrorFrame{Code: 400, Message: strings.Repeat("x", msgLen)}
	g = &golden{}
	g.u16(ef.Code)
	g.u16(uint16(min(msgLen, 1<<15)))
	g.p = append(g.p, ef.Message[:min(msgLen, 1<<15)]...)
	add(ef, g, FrameError)

	tcReq := &TriangleCountReq{DeadlineMillis: rng.Uint32(), G: randCSR(rng)}
	g = &golden{}
	g.u32(tcReq.DeadlineMillis)
	g.matrix(tcReq.G)
	add(tcReq, g, FrameTriangleCountReq)

	tcRes := &TriangleCountRes{Triangles: rng.Int64(), Flops: rng.Int64(), MaskedNanos: rng.Int64(), TotalNanos: rng.Int64()}
	g = &golden{}
	for _, v := range []int64{tcRes.Triangles, tcRes.Flops, tcRes.MaskedNanos, tcRes.TotalNanos} {
		g.u64(uint64(v))
	}
	add(tcRes, g, FrameTriangleCountRes)

	bfsReq := &BFSReq{Source: int32(rng.IntN(5)), DeadlineMillis: rng.Uint32(), G: randCSR(rng)}
	g = &golden{}
	g.u32(uint32(bfsReq.Source))
	g.u32(bfsReq.DeadlineMillis)
	g.matrix(bfsReq.G)
	add(bfsReq, g, FrameBFSReq)

	bfsRes := &BFSRes{Depth: 2, PushSteps: 1, PullSteps: 1}
	for i := rng.IntN(7); i > 0; i-- {
		bfsRes.Level = append(bfsRes.Level, int32(rng.IntN(4))-1)
	}
	g = &golden{}
	for _, v := range []int32{bfsRes.Depth, bfsRes.PushSteps, bfsRes.PullSteps, int32(len(bfsRes.Level))} {
		g.u32(uint32(v))
	}
	g.i32s(bfsRes.Level)
	add(bfsRes, g, FrameBFSRes)
	return msgs, want
}

// TestEncodeMatchesGolden checks every encoder against the plain-append
// reference on random shapes, both into a fresh buffer and appended after
// an odd-length prefix (padding is relative to the payload, not the
// buffer).
func TestEncodeMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 1))
	for iter := 0; iter < 200; iter++ {
		msgs, want := randMessages(rng)
		for i, m := range msgs {
			if got := m.Encode(nil); !bytes.Equal(got, want[i]) {
				t.Fatalf("iter %d: %T frame differs from golden:\n got %x\nwant %x", iter, m, got, want[i])
			}
			prefix := []byte{1, 2, 3}
			if got := m.Encode(prefix); !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want[i]) {
				t.Fatalf("iter %d: %T frame after a prefix differs from golden", iter, m)
			}
		}
	}
}

// TestEncodeAllocs checks the one-shot reservation: Encode(nil) allocates
// exactly the frame, and encoding into a buffer with room allocates
// nothing.
func TestEncodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 2))
	msgs, _ := randMessages(rng)
	big := &MultiplyReq{M: grgen.Random01Mask(300, 300, 8, 1), A: grgen.ErdosRenyi(300, 8, 2), B: grgen.ErdosRenyi(300, 8, 3)}
	msgs = append(msgs, big, &MultiplyRes{C: big.A}, &ErrorFrame{Code: 500, Message: strings.Repeat("y", 1<<16)})
	for _, m := range msgs {
		if n := testing.AllocsPerRun(20, func() { _ = m.Encode(nil) }); n != 1 {
			t.Errorf("%T: Encode(nil) made %v allocations, want 1", m, n)
		}
		buf := m.Encode(nil)
		if n := testing.AllocsPerRun(20, func() { buf = m.Encode(buf[:0]) }); n != 0 {
			t.Errorf("%T: Encode into a reused buffer made %v allocations, want 0", m, n)
		}
	}
}
