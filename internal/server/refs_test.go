package server

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/wire"
	"repro/masked"
)

// productFrame is the reference form of a product: a response frame
// holding only it.
func productFrame(t *testing.T, req *wire.MultiplyReq, opts ...masked.Op) []byte {
	t.Helper()
	c, err := masked.NewSession(masked.WithThreads(1)).Multiply(context.Background(), req.M, req.A, req.B, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return (&wire.MultiplyRes{C: c}).Encode(nil)
}

// multiplyBytesIn runs one Client.Multiply, checks its product against
// want, and returns the request bytes the server read for it.
func multiplyBytesIn(t *testing.T, l *Local, c *Client, req *wire.MultiplyReq, want []byte) int64 {
	t.Helper()
	before := l.Server.Metrics().BytesIn
	res, err := c.Multiply(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal((&wire.MultiplyRes{C: res.C}).Encode(nil), want) {
		t.Fatal("product differs from the in-process reference")
	}
	return l.Server.Metrics().BytesIn - before
}

// TestMultiplySendsReferences checks the second multiply of the same
// operand content — from fresh objects, so by content, not by pointer —
// sends references instead of the operands.
func TestMultiplySendsReferences(t *testing.T) {
	l, c := startLocal(t, Config{Threads: 2})
	g := masked.ErdosRenyi(256, 8, 41)
	req := &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}
	want := productFrame(t, req)
	inline := multiplyBytesIn(t, l, c, req, want)
	h := g.Clone()
	byRef := multiplyBytesIn(t, l, c, &wire.MultiplyReq{M: h.Pattern(), A: h, B: h.Clone()}, want)
	if inline < 16<<10 || byRef > 128 {
		t.Fatalf("request bytes: %d inline, %d by reference; want the second to carry only references", inline, byRef)
	}
	if m := l.Server.Metrics(); m.RefHits != 3 || m.RefMisses != 0 || m.InternMisses != 2 {
		t.Fatalf("reference hits %d, misses %d, intern misses %d; want 3, 0, 2", m.RefHits, m.RefMisses, m.InternMisses)
	}
	// A changed operand of the same shape is new content: it goes inline.
	h.Val[0]++
	if n := multiplyBytesIn(t, l, c, &wire.MultiplyReq{M: h.Pattern(), A: h, B: g}, productFrame(t, &wire.MultiplyReq{M: h.Pattern(), A: h, B: g})); n < 8<<10 {
		t.Fatalf("a changed operand sent %d bytes; want it inline", n)
	}
}

// TestNoReferencesWithoutInterning checks a server with interning disabled
// issues no references, so every request travels inline.
func TestNoReferencesWithoutInterning(t *testing.T) {
	l, c := startLocal(t, Config{Threads: 2, InternCapacity: -1})
	g := masked.ErdosRenyi(128, 6, 42)
	req := &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}
	want := productFrame(t, req)
	for i := 0; i < 2; i++ {
		if n := multiplyBytesIn(t, l, c, req, want); n < 8<<10 {
			t.Fatalf("request %d sent %d bytes; want the operands inline", i, n)
		}
	}
	if m := l.Server.Metrics(); m.RefHits != 0 || m.RefMisses != 0 {
		t.Fatalf("reference hits %d, misses %d without interning", m.RefHits, m.RefMisses)
	}
}

// TestEvictedReferenceResends evicts a client's operands from a tiny
// intern table: the next multiply names references the server no longer
// holds, gets ErrUnknownRef, and resends inline once — without a retry
// policy, because the resend is the protocol's own.
func TestEvictedReferenceResends(t *testing.T) {
	l, c := startLocal(t, Config{Threads: 2, InternCapacity: 2})
	g := masked.ErdosRenyi(128, 6, 43)
	h := masked.ErdosRenyi(128, 6, 44)
	first := &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}
	second := &wire.MultiplyReq{M: h.Pattern(), A: h, B: h}
	want := productFrame(t, first)
	multiplyBytesIn(t, l, c, first, want)
	multiplyBytesIn(t, l, c, second, productFrame(t, second)) // evicts both of first's entries
	multiplyBytesIn(t, l, c, first, want)
	if st := c.Stats(); st.RefResends != 1 || st.Retries != 0 || st.Attempts != 4 {
		t.Fatalf("client stats %+v, want one resend, no retries, 4 attempts", st)
	}
	if m := l.Server.Metrics(); m.RefMisses != 1 {
		t.Fatalf("reference misses %d, want 1", m.RefMisses)
	}
	// The resend re-issued the references: the next call sends them.
	multiplyBytesIn(t, l, c, first, want)
	if st := c.Stats(); st.RefResends != 1 || st.Attempts != 5 {
		t.Fatalf("client stats %+v after the re-issue, want no further resend", st)
	}
}

// TestConcurrentReferences shares one client's reference table among
// goroutines multiplying three graphs against a four-entry intern table,
// so references are recorded, evicted, refused and resent concurrently.
// Every product must still be byte-identical to the in-process one.
func TestConcurrentReferences(t *testing.T) {
	l, _ := startLocal(t, Config{Threads: 2, InternCapacity: 4})
	c := retryClient(l.URL)
	var reqs []*wire.MultiplyReq
	var want [][]byte
	for seed := uint64(50); seed < 53; seed++ {
		g := masked.ErdosRenyi(96, 5, seed)
		req := &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}
		reqs, want = append(reqs, req), append(want, productFrame(t, req))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (w + i) % len(reqs)
				res, err := c.Multiply(context.Background(), reqs[k])
				if errors.Is(err, ErrSaturated) {
					continue // four callers share two slots; the retries ran out
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal((&wire.MultiplyRes{C: res.C}).Encode(nil), want[k]) {
					t.Errorf("graph %d: product differs from the in-process reference", k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlainFramesStillServed checks plain version-1 and version-2
// FrameMultiplyReq bodies are answered with FrameMultiplyRes frames,
// byte-identical to the in-process product.
func TestPlainFramesStillServed(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 1})
	g := masked.ErdosRenyi(128, 6, 45)
	req := &wire.MultiplyReq{Flags: wire.FlagComplement, Semiring: "plus-pair", M: g.Pattern(), A: g, B: g}
	c0, err := masked.NewSession(masked.WithThreads(1)).Multiply(context.Background(), req.M, req.A, req.B,
		masked.WithAccumulate(masked.PlusPair()), masked.WithComplement())
	if err != nil {
		t.Fatal(err)
	}
	want := wire.WithChecksum((&wire.MultiplyRes{Workers: 1, C: c0}).Encode(nil))
	for _, body := range [][]byte{req.Encode(nil), wire.WithChecksum(req.Encode(nil))} {
		got, err := c.post(context.Background(), "/v1/multiply", body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d request: response differs from the FrameMultiplyRes of the in-process product", body[4])
		}
	}
}
