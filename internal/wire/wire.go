// Package wire is the binary wire protocol of the network serving
// subsystem: a compact, length-prefixed frame format for CSR operands,
// masks and results that cmd/mspgemm-server speaks over HTTP bodies and
// the future 2D-partitioned mode will exchange boundary rows with.
//
// # Frame format
//
// A frame is a 16-byte header followed by a payload padded to a multiple
// of 8 bytes. All integers are little-endian:
//
//	offset  size  field
//	0       4     magic "MSPW"
//	4       1     version (1 = plain, 2 = checksummed)
//	5       1     frame type (FrameMultiplyReq, ...)
//	6       2     flags (reserved, must be zero)
//	8       4     payload length in bytes (unpadded)
//	12      4     version 1: reserved (zero); version 2: CRC32-C of payload
//	16      -     payload, padded with zeros to a multiple of 8
//
// Frames are self-delimiting, so a batch is simply frames concatenated;
// DecodeFrame returns the remainder after each frame for exactly that
// loop.
//
// # Frame types
//
//	type  name                   payload
//	1     FrameError             code u16, message length u16, message
//	2     FrameMultiplyReq       flags u16, deadline u32, semiring, M, A, B
//	3     FrameMultiplyRes       flags u16, workers u16, C
//	4     FrameTriangleCountReq  deadline u32, G
//	5     FrameTriangleCountRes  triangles, flops, masked ns, total ns (i64 each)
//	6     FrameBFSReq            source i32, deadline u32, G
//	7     FrameBFSRes            depth, push steps, pull steps, n (i32 each), level[n]
//	8     FrameMultiplyRefReq    flags u16, deadline u32, semiring, tagged M, A, B
//	9     FrameMultiplyRefRes    flags u16, workers u16, M, A, B references (u64 each), C
//
// # Operand references
//
// The serving loops the engine is built for multiply one static graph
// again and again, so the server issues a reference for every operand its
// intern table holds. In FrameMultiplyRefReq each of M, A and B is
// preceded by a tag byte:
//
//	tag 0 (TagInline)  the operand follows, encoded as in FrameMultiplyReq
//	tag 1 (TagRef)     a nonzero u64 reference follows
//
// FrameMultiplyRefRes answers with the reference of each operand, 0 where
// the server retains none. A reference the server does not hold gets a
// FrameError with CodeUnknownRef, and the client resends the operands
// inline. References are opaque: only the server that issued one can
// resolve it.
//
// # Integrity checksums (version 2)
//
// Version 2 frames carry a CRC32-C (Castagnoli) checksum of the unpadded
// payload in the header word that version 1 reserves. Encoders produce
// version 1 by default; WithChecksum upgrades an encoded frame sequence to
// version 2 in place. Decoders accept both versions — old frames still
// decode — and verify version 2 checksums before returning the payload,
// failing with ErrChecksum on a mismatch, so a bit flip anywhere between
// encoder and decoder is detected instead of silently corrupting operands
// that pass structural validation. The server and server.Client checksum
// every frame they send by default.
//
// # Payload layout and zero-copy decoding
//
// Matrices travel as their CSR arrays: 32-bit row offsets and column
// indices (exactly matrix.Index, the engine's in-memory index type) and
// float64 values. Within a payload every array is preceded by padding to
// an 8-byte boundary *relative to the payload start*, and the header is 16
// bytes, so when a frame sequence starts at an 8-byte-aligned address —
// any Go byte-slice allocation — every array lands aligned in memory. On
// little-endian hosts the decoder then returns the matrix slices as views
// of the input buffer (an unsafe reinterpretation, no copy and no
// allocation); on big-endian hosts or misaligned input it falls back to an
// element-wise copy. Decoded matrices therefore alias the request buffer:
// treat them as immutable, and keep the buffer alive while they are in use
// (the server keeps body buffers pooled per request for this reason).
//
// Every decoder validates structural bounds — claimed lengths against the
// bytes actually present — before touching or allocating anything, so a
// malformed or truncated frame costs an error, never a panic or an
// attacker-sized allocation. Semantic CSR validation (monotone row
// pointers, in-range column indices) is a separate explicit step
// (ValidateMultiplyReq and friends) because it is O(nnz) and trusted
// callers may skip it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/faultinject"
)

// FrameType identifies what a frame's payload encodes.
type FrameType uint8

// Frame types of protocol version 1.
const (
	// FrameError carries an error code and message (responses only).
	FrameError FrameType = 1
	// FrameMultiplyReq is one masked multiply request: mask, A, B,
	// semiring, flags, deadline.
	FrameMultiplyReq FrameType = 2
	// FrameMultiplyRes is a multiply response: the result matrix plus
	// serving metadata (coalesced, worker share).
	FrameMultiplyRes FrameType = 3
	// FrameTriangleCountReq is a triangle-count request: the graph.
	FrameTriangleCountReq FrameType = 4
	// FrameTriangleCountRes is a triangle-count response: counts and
	// timings.
	FrameTriangleCountRes FrameType = 5
	// FrameBFSReq is a BFS request: the graph and a source vertex.
	FrameBFSReq FrameType = 6
	// FrameBFSRes is a BFS response: the level array and step counts.
	FrameBFSRes FrameType = 7
	// FrameMultiplyRefReq is a multiply request whose operands each travel
	// inline or as a server-issued reference.
	FrameMultiplyRefReq FrameType = 8
	// FrameMultiplyRefRes is the response to FrameMultiplyRefReq: the
	// result matrix, serving metadata and the operands' references.
	FrameMultiplyRefRes FrameType = 9
)

// Version is the protocol version plain frames carry; encoders produce it
// by default and decoders accept it alongside VersionChecksum.
const Version = 1

// VersionChecksum is the protocol version of checksummed frames: the
// reserved header word carries a CRC32-C of the unpadded payload, verified
// on decode. Produced by WithChecksum.
const VersionChecksum = 2

// headerSize is the fixed frame header length.
const headerSize = 16

// magic identifies mspgemm wire frames.
var magic = [4]byte{'M', 'S', 'P', 'W'}

// ErrTruncated reports a frame or payload shorter than its own length
// fields claim.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrFrameTooLarge reports a frame whose payload exceeds the caller's
// limit.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrChecksum reports a version-2 frame whose payload does not match its
// CRC32-C header checksum: the frame was corrupted between encoder and
// decoder. Pure requests are safe to retry on it, and server.Client does.
var ErrChecksum = errors.New("wire: payload checksum mismatch")

// crcTable is the Castagnoli (CRC32-C) polynomial table frame checksums
// use — hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pad8 returns n rounded up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// beginFrame appends a frame header for type t to dst and returns the
// extended slice plus the header's offset, for finishFrame to patch the
// payload length once the payload is written. bound is an upper bound on
// the payload bytes the encoder will write, alignment padding included:
// the whole frame is reserved up front, so encoding allocates at most once
// and not at all into a buffer with room to spare. A buffer that must grow
// at least doubles, keeping a batch of appended frames linear. (The
// reservation is spelled out rather than slices.Grow, whose append-of-make
// allocates twice when the race detector disables that fusion.)
func beginFrame(dst []byte, t FrameType, bound int) ([]byte, int) {
	if n := headerSize + pad8(bound); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, max(len(dst)+n, 2*cap(dst))), dst...)
	}
	off := len(dst)
	var h [headerSize]byte
	copy(h[:4], magic[:])
	h[4] = Version
	h[5] = byte(t)
	return append(dst, h[:]...), off
}

// finishFrame patches the payload length of the frame begun at off and
// pads the payload to an 8-byte multiple.
func finishFrame(dst []byte, off int) []byte {
	n := len(dst) - off - headerSize
	binary.LittleEndian.PutUint32(dst[off+8:], uint32(n))
	for len(dst)-off-headerSize < pad8(n) {
		dst = append(dst, 0)
	}
	return dst
}

// DecodeFrame splits one frame off the front of data: it returns the
// frame type, the payload (a sub-slice of data, not a copy), and the
// remaining bytes after the frame. Callers loop over a concatenated batch
// by feeding rest back in until it is empty.
func DecodeFrame(data []byte) (t FrameType, payload, rest []byte, err error) {
	if len(data) < headerSize {
		return 0, nil, nil, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(data), headerSize)
	}
	if [4]byte(data[:4]) != magic {
		return 0, nil, nil, fmt.Errorf("wire: bad magic %q", data[:4])
	}
	if data[4] != Version && data[4] != VersionChecksum {
		return 0, nil, nil, fmt.Errorf("wire: unsupported version %d (want %d or %d)", data[4], Version, VersionChecksum)
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	end := headerSize + pad8(n)
	if n < 0 || end > len(data) {
		return 0, nil, nil, fmt.Errorf("%w: payload claims %d bytes, %d available", ErrTruncated, n, len(data)-headerSize)
	}
	payload = data[headerSize : headerSize+n]
	if data[4] == VersionChecksum {
		want := binary.LittleEndian.Uint32(data[12:])
		if got := crc32.Checksum(payload, crcTable); got != want {
			return 0, nil, nil, fmt.Errorf("%w: CRC32-C %08x, header claims %08x", ErrChecksum, got, want)
		}
	}
	return FrameType(data[5]), payload, data[end:], nil
}

// WithChecksum upgrades an encoded frame sequence to checksummed version-2
// frames in place: each frame's version byte becomes VersionChecksum and
// its reserved header word the CRC32-C of its unpadded payload. Callers
// apply it to a complete Encode output just before handing the bytes to
// the transport; decoders verify automatically. It panics on bytes that
// are not a well-formed frame sequence (callers checksum their own encode
// output, never untrusted input).
//
// The wire.truncate and wire.bitflip fault-injection points live here —
// after checksumming, so an injected bit flip is exactly the in-flight
// corruption CRC32-C exists to catch.
func WithChecksum(frames []byte) []byte {
	for off := 0; off < len(frames); {
		rest := frames[off:]
		if len(rest) < headerSize || [4]byte(rest[:4]) != magic {
			panic("wire: WithChecksum on a malformed frame sequence")
		}
		n := int(binary.LittleEndian.Uint32(rest[8:]))
		end := headerSize + pad8(n)
		if n < 0 || end > len(rest) {
			panic("wire: WithChecksum on a truncated frame sequence")
		}
		rest[4] = VersionChecksum
		binary.LittleEndian.PutUint32(rest[12:], crc32.Checksum(rest[headerSize:headerSize+n], crcTable))
		off += end
	}
	return injectTransportFaults(frames)
}

// injectTransportFaults applies the armed wire corruption faults to an
// outgoing frame sequence: a deterministic single-bit flip in the middle
// of the first non-empty payload (caught by the checksum) or a one-byte
// truncation of the tail (caught by the frame length). No-ops — one atomic
// load each — when fault injection is disabled.
func injectTransportFaults(frames []byte) []byte {
	if faultinject.Fire(faultinject.PointWireBitflip) {
		for off := 0; off < len(frames); {
			n := int(binary.LittleEndian.Uint32(frames[off+8:]))
			if n > 0 {
				frames[off+headerSize+n/2] ^= 1 << 3
				break
			}
			off += headerSize + pad8(n)
		}
	}
	if faultinject.Fire(faultinject.PointWireTruncate) && len(frames) > 0 {
		frames = frames[:len(frames)-1]
	}
	return frames
}

// MaxPayloadDefault is the payload limit ReadFrame applies when the
// caller passes none. It matches the server's default body cap.
const MaxPayloadDefault = 256 << 20

// ReadFrame reads one frame from r, allocating at most maxPayload bytes
// for it (maxPayload <= 0 applies MaxPayloadDefault — the limit is always
// enforced, because the payload length is attacker-controlled and read
// from a 16-byte header before any payload bytes arrive). It returns the
// frame type and payload, io.EOF cleanly at end of stream, and
// ErrFrameTooLarge when the claimed payload exceeds the limit — before
// allocating it.
func ReadFrame(r io.Reader, maxPayload int) (FrameType, []byte, error) {
	if maxPayload <= 0 {
		maxPayload = MaxPayloadDefault
	}
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: partial header", ErrTruncated)
		}
		return 0, nil, err
	}
	if [4]byte(h[:4]) != magic {
		return 0, nil, fmt.Errorf("wire: bad magic %q", h[:4])
	}
	if h[4] != Version && h[4] != VersionChecksum {
		return 0, nil, fmt.Errorf("wire: unsupported version %d (want %d or %d)", h[4], Version, VersionChecksum)
	}
	n := int(binary.LittleEndian.Uint32(h[8:]))
	// n < 0 happens on 32-bit hosts, where int(uint32) can wrap negative.
	if n < 0 || n > maxPayload {
		return 0, nil, fmt.Errorf("%w: payload claims %d bytes, limit %d",
			ErrFrameTooLarge, uint32(n), maxPayload)
	}
	buf := make([]byte, pad8(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if h[4] == VersionChecksum {
		want := binary.LittleEndian.Uint32(h[12:])
		if got := crc32.Checksum(buf[:n], crcTable); got != want {
			return 0, nil, fmt.Errorf("%w: CRC32-C %08x, header claims %08x", ErrChecksum, got, want)
		}
	}
	return FrameType(h[5]), buf[:n], nil
}
