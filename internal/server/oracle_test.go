package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/wire"
	"repro/masked"
)

// oracleSemirings are the semiring names the request-path oracle draws
// from; "" is the server default.
var oracleSemirings = []string{"", "arithmetic", "plus-pair", "min-plus", "plus-second", "plus-first", "max-times"}

// oracle holds the shared state of FuzzServeMultiply: one live server with
// a tiny intern table (so entries are evicted), a retrying client, a
// single-attempt client for raw bodies, an in-process session that
// computes the references, and the errors of the operation in progress.
type oracle struct {
	l     *Local
	c     *Client
	raw   *Client
	ref   *masked.Session
	ctx   context.Context
	pool  []operandGroup
	decoy *matrix.CSR[float64]
	seen  []seenErr
}

// operandGroup is a set of shape-compatible operands: any of its masks
// goes with any two of its matrices.
type operandGroup struct {
	pats []*matrix.Pattern
	mats []*matrix.CSR[float64]
}

// innerCornerReq is a request in the sparse-mask corner, where the
// planner runs Inner: about one mask entry per row, and A and B dense
// enough (24 draws a row) that one pull dot product per mask entry beats
// the push kernels' flops by the planner's margin.
func innerCornerReq(n matrix.Index, seed uint64) *wire.MultiplyReq {
	return &wire.MultiplyReq{
		M: grgen.Random01Mask(n, n, 1, seed),
		A: grgen.ErdosRenyi(n, 24, seed+1),
		B: grgen.ErdosRenyi(n, 24, seed+2),
	}
}

// seenErr is a typed error one operation returned. Whether it was due
// depends on whether a fault fired during the operation, which is known
// only once the operation is over (see settle).
type seenErr struct {
	what string
	err  error
	// want is the refusal a fault-free run gives; nil marks a well-formed
	// request, which a fault-free run serves unless the server saturates.
	want func(error) bool
}

// firedFaults sums the installed registry's fired counts.
func firedFaults() int64 {
	var n int64
	for _, v := range faultinject.Stats() {
		n += v
	}
	return n
}

// settle judges the errors one operation returned. When no fault fired
// during it, every well-formed request must have been served and every
// refusal must be of its own class; saturation is the one exception.
func (o *oracle) settle(t *testing.T, faulted bool) {
	t.Helper()
	seen := o.seen
	o.seen = o.seen[:0]
	if faulted {
		return
	}
	for _, e := range seen {
		switch {
		case errors.Is(e.err, ErrSaturated):
		case e.want == nil:
			t.Fatalf("%s: refused with no fault fired: %v", e.what, e.err)
		case !e.want(e.err):
			t.Fatalf("%s: wrong refusal with no fault fired: %v", e.what, e.err)
		}
	}
}

// isBadRequest reports whether err is the server's 400.
func isBadRequest(err error) bool {
	var st *StatusError
	return errors.As(err, &st) && st.Code == http.StatusBadRequest
}

// isUnknownRef reports whether err is an unknown-reference refusal.
func isUnknownRef(err error) bool { return errors.Is(err, ErrUnknownRef) }

// want is the in-process reference of req, encoded the way products are
// compared: a response frame carrying only the product.
func (o *oracle) want(t *testing.T, req *wire.MultiplyReq) []byte {
	t.Helper()
	var opts []masked.Op
	if req.Semiring != "" {
		sr, err := masked.SemiringByName(req.Semiring)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, masked.WithAccumulate(sr))
	}
	if req.Flags&wire.FlagComplement != 0 {
		opts = append(opts, masked.WithComplement())
	}
	// A pinned variant runs no plan, so the reference never shares the
	// plan cache's derived state with the path under test.
	opts = append(opts, masked.WithVariant(masked.Variant{Alg: masked.MSA, Phase: masked.OnePhase}))
	c, err := o.ref.Multiply(o.ctx, req.M, req.A, req.B, opts...)
	if err != nil {
		t.Fatalf("reference multiply: %v", err)
	}
	return (&wire.MultiplyRes{C: c}).Encode(nil)
}

// check asserts one outcome of a well-formed request: a product
// byte-identical to the reference, or an error of one of the typed
// classes, which settle then judges. An unknown operand reference is not
// among them: Multiply resends inline, and the other paths send none.
func (o *oracle) check(t *testing.T, what string, req *wire.MultiplyReq, res *wire.MultiplyRes, err error) {
	t.Helper()
	if err != nil {
		if !typedErr(err) || isUnknownRef(err) {
			t.Fatalf("%s: untyped error %T: %v", what, err, err)
		}
		o.seen = append(o.seen, seenErr{what: what, err: err})
		return
	}
	if got, want := (&wire.MultiplyRes{C: res.C}).Encode(nil), o.want(t, req); !bytes.Equal(got, want) {
		t.Fatalf("%s: product differs from the in-process reference (semiring %q, flags %#x)", what, req.Semiring, req.Flags)
	}
}

// typedErr reports whether err is one of the errors the request path may
// return under the armed faults, or for a frame the server must refuse:
// saturation, a bad frame (400 or a truncated response), a checksum
// mismatch, or an unknown operand reference.
func typedErr(err error) bool {
	switch {
	case errors.Is(err, ErrSaturated), errors.Is(err, wire.ErrChecksum),
		errors.Is(err, wire.ErrTruncated), isUnknownRef(err):
		return true
	}
	return isBadRequest(err)
}

// refuse asserts that a request the server must refuse was refused with a
// typed error, and leaves its class for settle: want is the refusal a
// fault-free run gives.
func (o *oracle) refuse(t *testing.T, what string, err error, want func(error) bool) {
	t.Helper()
	if err == nil || !typedErr(err) {
		t.Fatalf("%s: %v, want a typed refusal", what, err)
	}
	o.seen = append(o.seen, seenErr{what: what, err: err, want: want})
}

// pick draws one request over one group of the operand pool, so any
// choice is shape-compatible.
func (o *oracle) pick(rng *rand.Rand) *wire.MultiplyReq {
	g := o.pool[rng.Intn(len(o.pool))]
	req := &wire.MultiplyReq{
		Semiring: oracleSemirings[rng.Intn(len(oracleSemirings))],
		M:        g.pats[rng.Intn(len(g.pats))],
		A:        g.mats[rng.Intn(len(g.mats))],
		B:        g.mats[rng.Intn(len(g.mats))],
	}
	if rng.Intn(3) == 0 {
		req.Flags = wire.FlagComplement
	}
	return req
}

// postRaw posts an encoded body on the single-attempt client and returns
// its response frames, one outcome per frame.
func (o *oracle) postRaw(body []byte) ([]MultiplyOutcome, error) {
	data, err := o.raw.post(o.ctx, "/v1/multiply", body)
	if err != nil {
		return nil, err
	}
	var out []MultiplyOutcome
	for len(data) > 0 {
		t, payload, rest, err := wire.DecodeFrame(data)
		if err != nil {
			return nil, err
		}
		switch t {
		case wire.FrameMultiplyRes:
			res, err := wire.DecodeMultiplyRes(payload)
			out = append(out, MultiplyOutcome{Res: res, Err: err})
		case wire.FrameError:
			out = append(out, MultiplyOutcome{Err: frameError(payload)})
		default:
			out = append(out, MultiplyOutcome{Err: errors.New("unexpected frame type")})
		}
		data = rest
	}
	return out, nil
}

// postRef posts one reference request on the single-attempt client.
func (o *oracle) postRef(req *wire.MultiplyRefReq) (*wire.MultiplyRefRes, error) {
	data, err := o.raw.post(o.ctx, "/v1/multiply", wire.WithChecksum(req.Encode(nil)))
	if err != nil {
		return nil, err
	}
	t, payload, _, err := wire.DecodeFrame(data)
	switch {
	case err != nil:
		return nil, err
	case t == wire.FrameError:
		return nil, frameError(payload)
	case t != wire.FrameMultiplyRefRes:
		return nil, errors.New("unexpected frame type")
	}
	return wire.DecodeMultiplyRefRes(payload)
}

// checkRef checks a well-formed reference request's outcome. Only here
// may an unknown reference come back, and only when a fault fired: the
// server held every reference the request names.
func (o *oracle) checkRef(t *testing.T, what string, req *wire.MultiplyReq, res *wire.MultiplyRefRes, err error) {
	t.Helper()
	switch {
	case isUnknownRef(err):
		o.seen = append(o.seen, seenErr{what: what, err: err})
	case err != nil:
		o.check(t, what, req, nil, err)
	default:
		o.check(t, what, req, &res.MultiplyRes, nil)
	}
}

// checkBatch checks a batch's outcomes frame by frame.
func (o *oracle) checkBatch(t *testing.T, what string, reqs []*wire.MultiplyReq, out []MultiplyOutcome, err error) {
	t.Helper()
	if err != nil {
		o.check(t, what, nil, nil, err)
		return
	}
	if len(out) != len(reqs) {
		t.Fatalf("%s: %d outcomes for %d frames", what, len(out), len(reqs))
	}
	for i, oc := range out {
		o.check(t, what, reqs[i], oc.Res, oc.Err)
	}
}

// FuzzServeMultiply is the request path's end-to-end oracle. Each input is
// a seed and a program of operations over a small seeded operand pool:
// client multiplies (which send operand references once the server has
// issued them), concurrent duplicates, batches with repeated frames, raw
// version-1 and version-2 bodies, raw reference requests with inline,
// referenced and mixed operands, forged and misplaced references, bad
// operand tags, decoys planted under the intern keys of pool operands, and
// corrupted operands. The pool holds byte-identical copies at distinct
// addresses (intern hits by content) and operands one bit apart (near
// misses), and the server's intern table holds only a few entries
// (evictions, so stale references). A second group of the pool sits in
// the sparse-mask corner, where the planner runs Inner, so hot repeats
// read B's transpose from the cached plan. Fault points are armed at a low
// seeded rate. Every product must be byte-identical to the in-process
// reference; every error must be a typed one. After an operation during
// which no fault fired, every well-formed request must have been served,
// saturation aside, and every refusal must be of its own class.
func FuzzServeMultiply(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 1, 2, 3, 4, 5, 0})
	f.Add(uint64(2), []byte{6, 0, 0, 7, 2, 6, 1})
	f.Add(uint64(3), []byte{5, 4, 3, 2, 1, 0, 6, 0})
	f.Add(uint64(4), []byte{0, 1, 0, 1, 6, 0, 1, 0, 2, 2})
	f.Add(uint64(5), []byte{7, 7, 3, 3, 4, 4})
	f.Add(uint64(6), []byte{8, 8, 9, 10, 11, 0, 6, 0, 8})
	f.Add(uint64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 8, 1, 1})

	l, err := StartLocal(Config{Threads: 2, InternCapacity: 5})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = l.Close() }) // the drain has nothing left to check
	o := &oracle{
		l:   l,
		c:   retryClient(l.URL),
		raw: NewClient(l.URL, nil),
		ref: masked.NewSession(masked.WithThreads(1)),
		ctx: context.Background(),
	}

	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		if len(prog) > 12 {
			prog = prog[:12]
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		n := matrix.Index(3 + seed%6)
		var small operandGroup
		for i := uint64(0); i < 3; i++ {
			g := grgen.ErdosRenyi(n, 2, seed*7+i)
			small.mats = append(small.mats, g, g.Clone(), nearCopy(g))
			small.pats = append(small.pats, g.Pattern(), grgen.Random01Mask(n, n, 2, seed*7+i))
		}
		ic := innerCornerReq(32, seed*7+100)
		inner := operandGroup{
			pats: []*matrix.Pattern{ic.M, ic.M.Clone()},
			mats: []*matrix.CSR[float64]{ic.A, ic.B, ic.B.Clone(), nearCopy(ic.B)},
		}
		o.pool = []operandGroup{small, inner}
		o.decoy = grgen.ErdosRenyi(n, 3, seed^0x5eed)

		reg := faultinject.New(int64(seed))
		for _, p := range []string{faultinject.PointWireBitflip, faultinject.PointWireTruncate,
			faultinject.PointInternMiss, faultinject.PointInternRefMiss} {
			reg.Add(faultinject.Rule{Point: p, Rate: 0.03})
		}
		faultinject.Set(reg)
		defer faultinject.Set(nil)

		for _, op := range prog {
			before := firedFaults()
			o.run(t, op, rng)
			o.settle(t, firedFaults() != before)
		}
	})
}

// nearCopy is a copy of g whose first value differs in its lowest bit.
func nearCopy(g *matrix.CSR[float64]) *matrix.CSR[float64] {
	near := g.Clone()
	if len(near.Val) > 0 {
		near.Val[0] = math.Float64frombits(math.Float64bits(near.Val[0]) ^ 1)
	}
	return near
}

// TestInnerCornerPlansInner: the planner runs Inner on every block of the
// oracle's sparse-mask group, so its hot repeats take the cached plan's
// transpose of B.
func TestInnerCornerPlansInner(t *testing.T) {
	s := masked.NewSession(masked.WithThreads(2))
	for seed := uint64(0); seed < 40; seed++ {
		req := innerCornerReq(32, seed*7+100)
		for _, b := range []*matrix.CSR[float64]{req.A, req.B} {
			p := s.Explain(req.M, req.A, b)
			for _, blk := range p.Blocks {
				if blk.Alg != masked.Inner {
					t.Fatalf("seed %d: block planned %s, want Inner:\n%s", seed, blk.Alg, p.Explain())
				}
			}
		}
	}
}

// run executes one program operation.
func (o *oracle) run(t *testing.T, op byte, rng *rand.Rand) {
	switch op % 12 {
	case 0: // one multiply through the retrying client
		req := o.pick(rng)
		res, err := o.c.Multiply(o.ctx, req)
		o.check(t, "multiply", req, res, err)
	case 1: // the same request twice at once: coalescing, if they overlap
		req := o.pick(rng)
		var wg sync.WaitGroup
		res := make([]*wire.MultiplyRes, 2)
		errs := make([]error, 2)
		for i := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i], errs[i] = o.c.Multiply(o.ctx, req)
			}()
		}
		wg.Wait()
		for i := range res {
			o.check(t, "concurrent multiply", req, res[i], errs[i])
		}
	case 2: // a batch whose first frame repeats: coalesced in the batch
		reqs := []*wire.MultiplyReq{o.pick(rng), o.pick(rng)}
		reqs = append(reqs, reqs[0])
		out, err := o.c.MultiplyBatch(o.ctx, reqs)
		o.checkBatch(t, "batch", reqs, out, err)
	case 3, 4: // one raw frame, version 1 (plain) or 2 (checksummed)
		req := o.pick(rng)
		body := req.Encode(nil)
		if op%12 == 4 {
			body = wire.WithChecksum(body)
		}
		out, err := o.postRaw(body)
		o.checkBatch(t, "raw frame", []*wire.MultiplyReq{req}, out, err)
	case 5: // a raw batch of either version
		reqs := []*wire.MultiplyReq{o.pick(rng), o.pick(rng)}
		var body []byte
		for _, r := range reqs {
			body = r.Encode(body)
		}
		if rng.Intn(2) == 0 {
			body = wire.WithChecksum(body)
		}
		out, err := o.postRaw(body)
		o.checkBatch(t, "raw batch", reqs, out, err)
	case 6: // a decoy planted under the intern key of a pool operand
		tab := o.l.Server.intern
		g := o.pool[rng.Intn(len(o.pool))]
		if rng.Intn(2) == 0 {
			p := g.pats[rng.Intn(len(g.pats))]
			tab.insert(tab.patternKey(p), o.decoy.Pattern().Clone(), patternSize(o.decoy.Pattern()))
		} else {
			a := g.mats[rng.Intn(len(g.mats))]
			tab.insert(tab.matrixKey(a), o.decoy.Clone(), matrixSize(o.decoy))
		}
	case 7: // an operand with an out-of-range column: refused as a bad frame
		req := o.pick(rng)
		bad := req.A.Clone()
		if len(bad.Col) == 0 {
			return
		}
		bad.Col[rng.Intn(len(bad.Col))] = bad.NCols + 3
		req.A = bad
		_, err := o.c.Multiply(o.ctx, req)
		if isUnknownRef(err) {
			t.Fatalf("invalid operand: %v, want no unknown reference from Multiply", err)
		}
		o.refuse(t, "invalid operand", err, isBadRequest)
	case 8: // a raw reference request inline, then with some references
		req := o.pick(rng)
		first, err := o.postRef(&wire.MultiplyRefReq{MultiplyReq: *req})
		o.checkRef(t, "inline reference request", req, first, err)
		if err != nil {
			return
		}
		rr := &wire.MultiplyRefReq{MultiplyReq: *req}
		for i := range rr.Refs {
			if rng.Intn(3) != 0 {
				rr.Refs[i] = first.Refs[i]
			}
		}
		if rng.Intn(4) == 0 && rr.Refs[0] != 0 && rr.Refs[1] != 0 {
			// Misplaced: the mask's reference names no matrix, and A's
			// reference names no mask.
			rr.Refs[0], rr.Refs[1] = rr.Refs[1], rr.Refs[0]
			_, err := o.postRef(rr)
			o.refuse(t, "misplaced references", err, isUnknownRef)
			return
		}
		res, err := o.postRef(rr)
		o.checkRef(t, "reference request", req, res, err)
	case 9: // a forged reference: never served
		req := o.pick(rng)
		rr := &wire.MultiplyRefReq{MultiplyReq: *req}
		rr.Refs[rng.Intn(3)] = rng.Uint64() | 1
		_, err := o.postRef(rr)
		o.refuse(t, "forged reference", err, isUnknownRef)
	case 10: // an operand tag that is neither inline nor reference
		req := o.pick(rng)
		body := (&wire.MultiplyRefReq{MultiplyReq: *req}).Encode(nil)
		body[16+2+4+1+len(req.Semiring)] = 2
		_, err := o.raw.post(o.ctx, "/v1/multiply", body)
		if !isBadRequest(err) {
			t.Fatalf("bad operand tag: %v, want a 400", err)
		}
	case 11: // a reference request inside a batch: refused whole
		req := o.pick(rng)
		body := (&wire.MultiplyRefReq{MultiplyReq: *req}).Encode(nil)
		body = req.Encode(body)
		_, err := o.postRaw(body)
		o.refuse(t, "reference request in a batch", err, isBadRequest)
	}
}
