package wire

import (
	"testing"

	"repro/internal/grgen"
	"repro/internal/matrix"
)

// FuzzDecodeFrame asserts the decoder's safety contract on arbitrary
// bytes: every frame either decodes into a structurally consistent
// message or returns an error — never a panic, an index out of range, or
// an allocation sized by a lying length field (every array length is
// checked against the bytes actually present before any slice is made).
func FuzzDecodeFrame(f *testing.F) {
	l := matrix.Tril(grgen.RMAT(5, 4, 1))
	req := &MultiplyReq{Semiring: "plus-pair-f64", M: l.Pattern(), A: l, B: l}
	f.Add(req.Encode(nil))
	f.Add((&MultiplyRes{Workers: 2, C: l}).Encode(nil))
	f.Add((&TriangleCountReq{G: l}).Encode(nil))
	f.Add((&BFSReq{Source: 1, G: l}).Encode(nil))
	f.Add((&BFSRes{Depth: 1, Level: []int32{0, -1}}).Encode(nil))
	f.Add((&ErrorFrame{Code: 500, Message: "boom"}).Encode(nil))
	f.Add(WithChecksum(req.Encode(nil)))
	f.Add(WithChecksum((&TriangleCountReq{G: l}).Encode(nil)))
	flipped := WithChecksum((&BFSReq{Source: 1, G: l}).Encode(nil))
	flipped[headerSize+4] ^= 0x40 // checksummed frame whose payload lies
	f.Add(flipped)
	// Reference frames: inline, referenced and mixed operands, a bad tag,
	// and a reference cut short.
	inline := &MultiplyRefReq{MultiplyReq: *req}
	f.Add(inline.Encode(nil))
	f.Add((&MultiplyRefReq{MultiplyReq: *req, Refs: [3]uint64{1, 2, 3}}).Encode(nil))
	mixed := WithChecksum((&MultiplyRefReq{MultiplyReq: *req, Refs: [3]uint64{0, 0x8000_0000_0000_0001, 0}}).Encode(nil))
	f.Add(mixed)
	badTag := inline.Encode(nil)
	badTag[headerSize+2+4+1+len(req.Semiring)] = 7
	f.Add(badTag)
	short := (&MultiplyRefReq{MultiplyReq: *req, Refs: [3]uint64{0, 0, 9}}).Encode(nil)
	f.Add(short[:len(short)-8])
	f.Add((&MultiplyRefRes{MultiplyRes: MultiplyRes{Workers: 1, C: l}, Refs: [3]uint64{4, 0, 5}}).Encode(nil))
	f.Add([]byte("MSPW"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the work per input: a fuzzer-grown input is at most a few
		// frames deep before it either errors or ends.
		for i := 0; i < 16 && len(data) > 0; i++ {
			typ, payload, rest, err := DecodeFrame(data)
			if err != nil {
				return
			}
			switch typ {
			case FrameMultiplyReq:
				if r, err := DecodeMultiplyReq(payload); err == nil {
					// Validate must classify the decoded operands without
					// panicking, whatever the fuzzer built.
					_ = r.Validate()
				}
			case FrameMultiplyRes:
				if r, err := DecodeMultiplyRes(payload); err == nil && r.C != nil {
					_ = r.C.Validate()
				}
			case FrameMultiplyRefReq:
				if r, err := DecodeMultiplyRefReq(payload); err == nil {
					for i, ref := range r.Refs {
						if inline := [3]bool{r.M != nil, r.A != nil, r.B != nil}[i]; inline == (ref != 0) {
							t.Fatalf("operand %d: inline %v with reference %#x", i, inline, ref)
						}
					}
					if r.M != nil {
						_ = r.M.Validate()
					}
					for _, a := range []*matrix.CSR[float64]{r.A, r.B} {
						if a != nil {
							_ = a.Validate()
						}
					}
				}
			case FrameMultiplyRefRes:
				if r, err := DecodeMultiplyRefRes(payload); err == nil && r.C != nil {
					_ = r.C.Validate()
				}
			case FrameError:
				_, _ = DecodeErrorFrame(payload)
			case FrameTriangleCountReq:
				if r, err := DecodeTriangleCountReq(payload); err == nil && r.G != nil {
					_ = r.G.Validate()
				}
			case FrameTriangleCountRes:
				_, _ = DecodeTriangleCountRes(payload)
			case FrameBFSReq:
				if r, err := DecodeBFSReq(payload); err == nil && r.G != nil {
					_ = r.G.Validate()
				}
			case FrameBFSRes:
				_, _ = DecodeBFSRes(payload)
			}
			data = rest
		}
	})
}
