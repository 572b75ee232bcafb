// Package server is the network serving subsystem: an HTTP front end over
// one masked.Session that speaks the internal/wire binary frame format.
// cmd/mspgemm-server is a thin flag wrapper around it; perfbench's
// serve-wire workload and the tests embed it in-process on an ephemeral
// port.
//
// The request path is frame → decode → admit → execute → encode:
//
//	POST body ─ wire.DecodeFrame loop ─ decode (zero-copy views of the
//	pooled body buffer) ─ resolve operand references, validate/intern
//	inline operands ─ admission (TryMultiply
//	or TryAdmit; full ⇒ 429 + Retry-After, never an unbounded queue) ─
//	masked.Session execute under the request deadline ─ encode response
//	frames ─ write.
//
// Admission is backed by the session's arbiter: single multiplies use the
// non-queuing TryMultiply, application requests (triangle count, BFS)
// claim a slot with TryAdmit and run under the arbitrated worker share,
// and multi-frame batches queue inside MultiplyBatch but only after a
// server-level bound on queued frames admits them — so a saturated server
// always answers 429 promptly instead of accumulating work.
//
// Decoded operands are interned (see intern.go): a seeded 64-bit hash
// finds the candidate entry and a bytewise compare with its canonical copy
// confirms the hit, so the serving loops the engine is built for —
// re-multiplying against a static graph — regain operand identity across
// the wire: repeated operands hit the session's plan cache, identical
// in-flight requests coalesce, and re-validation is skipped. The table
// stores private copies, so handlers recycle their pooled body buffer
// unconditionally. Each entry carries a server-issued reference, and
// Client.Multiply sends that reference in place of an operand the server
// already holds (wire.FrameMultiplyRefReq), so a hot operand crosses the
// wire once.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/wire"
	"repro/masked"
)

// wireContentType is the media type of wire-frame request and response
// bodies.
const wireContentType = "application/x-mspgemm-wire"

// ErrSaturated is the client-side sentinel for HTTP 429: the server's
// admission cap is full. It is the session's saturation error, so
// errors.Is works across the in-process and network surfaces alike.
var ErrSaturated = masked.ErrSaturated

// Config parameterizes a Server. The zero value serves with engine
// defaults and the documented limits.
type Config struct {
	// Threads is the session worker budget (0 = GOMAXPROCS).
	Threads int
	// Inflight is the admission cap — concurrent requests holding arbiter
	// slots (0 = engine default).
	Inflight int
	// PlanCacheCapacity bounds the session plan cache (0 = engine default).
	PlanCacheCapacity int
	// InternCapacity bounds the operand intern table in entries
	// (0 = 128, negative disables interning).
	InternCapacity int
	// InternMaxBytes bounds the total operand bytes the intern table
	// retains (0 = 1 GiB, negative = entry bound only). Entries are
	// private copies sized by their own CSR arrays, so this caps the
	// table's heap footprint directly.
	InternMaxBytes int64
	// MaxBodyBytes caps a request body; larger bodies get 413
	// (0 = 256 MiB).
	MaxBodyBytes int64
	// MaxBatchFrames caps the frames in one /v1/multiply body (0 = 64).
	MaxBatchFrames int
	// MaxQueuedFrames bounds batch frames queued server-wide; a batch that
	// would exceed it gets 429 whole (0 = 4 × the admission cap).
	MaxQueuedFrames int
	// DefaultDeadline applies to requests that carry no deadline (0 = 30s);
	// MaxDeadline clamps requested deadlines (0 = 5m).
	DefaultDeadline, MaxDeadline time.Duration
	// RetryAfter is the hint sent with 429 responses (0 = 1s).
	RetryAfter time.Duration
	// DrainTimeout bounds the graceful drain of in-flight requests on
	// shutdown (0 = 30s).
	DrainTimeout time.Duration
}

// withDefaults fills the zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.InternCapacity == 0 {
		c.InternCapacity = 128
	}
	if c.InternMaxBytes == 0 {
		c.InternMaxBytes = 1 << 30
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxBatchFrames == 0 {
		c.MaxBatchFrames = 64
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Server is the HTTP front end. Create with New, expose with Handler or
// run with Serve/ListenAndServe.
type Server struct {
	cfg    Config
	sess   *masked.Session
	intern *internTable
	mux    *http.ServeMux
	start  time.Time

	maxQueued    int64
	queuedFrames atomic.Int64
	bodies       sync.Pool // *[]byte request-body buffers

	nMultiply, nFrames, nTC, nBFS atomic.Int64
	nRejected, nErrors            atomic.Int64
	bytesIn, bytesOut             atomic.Int64
	nPanics                       atomic.Int64
}

// New builds a Server and its backing session from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var opts []masked.Op
	if cfg.Threads > 0 {
		opts = append(opts, masked.WithThreads(cfg.Threads))
	}
	if cfg.Inflight > 0 {
		opts = append(opts, masked.WithInflight(cfg.Inflight))
	}
	if cfg.PlanCacheCapacity > 0 {
		opts = append(opts, masked.WithPlanCacheCapacity(cfg.PlanCacheCapacity))
	}
	sv := &Server{
		cfg:    cfg,
		sess:   masked.NewSession(opts...),
		intern: newInternTable(cfg.InternCapacity, cfg.InternMaxBytes),
		start:  time.Now(),
	}
	sv.maxQueued = int64(cfg.MaxQueuedFrames)
	if sv.maxQueued <= 0 {
		sv.maxQueued = 4 * int64(sv.sess.Stats().Arbiter.MaxInflight)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/multiply", sv.guard(sv.handleMultiply))
	mux.HandleFunc("/v1/triangle-count", sv.guard(sv.handleTriangleCount))
	mux.HandleFunc("/v1/bfs", sv.guard(sv.handleBFS))
	mux.HandleFunc("/metrics", sv.guard(sv.handleMetrics))
	mux.HandleFunc("/healthz", sv.guard(sv.handleHealthz))
	sv.mux = mux
	return sv
}

// guard is the handler-level panic barrier: a panic anywhere in a handler
// costs that request a 500 — stack to the log, mspgemm_panics_total bumped —
// never the process. Most panics on the execution path are already
// converted to errors one layer down (masked's request-boundary recover),
// so what reaches this barrier is decode/encode bugs and the
// server.handler.panic chaos point; without it net/http would kill the
// connection without a response and log the stack only.
//
// The 500 is best-effort: if the handler panicked after writing its
// response header, the write below is discarded by net/http — the client
// still sees a broken body rather than a silent success, because the
// Content-Length the handler declared no longer matches.
func (sv *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				sv.nPanics.Add(1)
				log.Printf("mspgemm-server: panic serving %s: %v\n%s", r.URL.Path, v, debug.Stack())
				sv.httpError(w, http.StatusInternalServerError,
					fmt.Sprintf("internal panic serving %s (recovered)", r.URL.Path))
			}
		}()
		h(w, r)
	}
}

// Session exposes the backing session (tests and embedders share it for
// reference computations and direct stats access).
func (sv *Server) Session() *masked.Session { return sv.sess }

// Handler returns the HTTP handler serving all endpoints.
func (sv *Server) Handler() http.Handler { return sv.mux }

// Serve accepts connections on ln until ctx is cancelled, then drains
// in-flight requests (bounded by DrainTimeout) before returning. A clean
// drain returns nil.
func (sv *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: sv.mux, ReadHeaderTimeout: 10 * time.Second}
	exited := make(chan error, 1)
	go func() { exited <- hs.Serve(ln) }()
	select {
	case err := <-exited:
		return err // listener failure before shutdown
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), sv.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(sctx) // stops accepting, waits for in-flight handlers
	<-exited                 // Serve has returned ErrServerClosed
	return err
}

// ListenAndServe listens on addr and calls Serve.
func (sv *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return sv.Serve(ctx, ln)
}

// Local is an in-process server on an ephemeral localhost port, for tests
// and perfbench's serve-wire workload.
type Local struct {
	// Server is the running server; URL its base address
	// ("http://127.0.0.1:port").
	Server *Server
	// URL is the server's base address.
	URL    string
	cancel context.CancelFunc
	done   chan error
}

// StartLocal builds a server from cfg and serves it on 127.0.0.1:0 in the
// background. Close it to drain and stop.
func StartLocal(cfg Config) (*Local, error) {
	sv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &Local{
		Server: sv,
		URL:    "http://" + ln.Addr().String(),
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { l.done <- sv.Serve(ctx, ln) }()
	return l, nil
}

// Close drains in-flight requests and stops the server.
func (l *Local) Close() error {
	l.cancel()
	return <-l.done
}

// readBody reads the request body into a pooled buffer, answering 413/400
// itself on failure. The returned release func recycles the buffer; the
// handler defers it past the last use of any decoded view of the body
// (the intern table stores copies, never views, so interning does not
// extend the buffer's lifetime).
func (sv *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, func(), bool) {
	bp, _ := sv.bodies.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	buf := (*bp)[:0]
	// The buffer grows with the bytes that arrive, never with the declared
	// Content-Length: a client cannot pin memory with a header it does not
	// follow with a body. Warmed pooled buffers already fit hot requests.
	limit := sv.cfg.MaxBodyBytes
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			*bp = buf
			sv.bodies.Put(bp)
			sv.httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", limit))
			return nil, nil, false
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			*bp = buf
			sv.bodies.Put(bp)
			sv.httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return nil, nil, false
		}
	}
	sv.bytesIn.Add(int64(len(buf)))
	*bp = buf
	release := func() { sv.bodies.Put(bp) }
	return buf, release, true
}

// httpError answers a plain-text error and counts it.
func (sv *Server) httpError(w http.ResponseWriter, code int, msg string) {
	sv.nErrors.Add(1)
	http.Error(w, msg, code)
}

// reject answers 429 with the Retry-After hint.
func (sv *Server) reject(w http.ResponseWriter) {
	sv.nRejected.Add(1)
	secs := int64((sv.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, "admission saturated", http.StatusTooManyRequests)
}

// writeWire writes an encoded frame sequence as the response body,
// upgraded to checksummed version-2 frames (wire.WithChecksum) so the
// client verifies payload integrity on decode. Checksumming is also where
// the wire corruption chaos points fire, which is why Content-Length is
// taken after it.
func (sv *Server) writeWire(w http.ResponseWriter, frames []byte) {
	frames = wire.WithChecksum(frames)
	w.Header().Set("Content-Type", wireContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frames)))
	n, _ := w.Write(frames)
	sv.bytesOut.Add(int64(n))
}

// deadlineFor maps a frame's DeadlineMillis onto the configured
// default/max window.
func (sv *Server) deadlineFor(millis uint32) time.Duration {
	d := time.Duration(millis) * time.Millisecond
	if d <= 0 {
		d = sv.cfg.DefaultDeadline
	}
	if d > sv.cfg.MaxDeadline {
		d = sv.cfg.MaxDeadline
	}
	return d
}

// statusFor maps an execution error onto an HTTP-style status code.
func statusFor(err error) int {
	switch {
	case errors.Is(err, masked.ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// validatePattern and validateMatrix run the semantic checks untrusted
// operands need before reaching the kernels.
func validatePattern(p *matrix.Pattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if !p.IsSortedRows() {
		return errors.New("rows must be sorted and duplicate-free")
	}
	return nil
}

func validateMatrix(a *matrix.CSR[float64]) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if !a.IsSortedRows() {
		return errors.New("rows must be sorted and duplicate-free")
	}
	return nil
}

// internPattern validates and interns a decoded mask, returning the
// canonical copy and its reference (0 when the table retains none). An
// intern hit skips the O(nnz) validation, which ran when the canonical
// copy was first admitted; a miss validates and stores a deep copy,
// because p aliases the request's pooled body buffer and the table must
// outlive it.
func (sv *Server) internPattern(p *matrix.Pattern, what string) (*matrix.Pattern, uint64, error) {
	if sv.intern == nil {
		if err := validatePattern(p); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", what, err)
		}
		return p, 0, nil
	}
	key := sv.intern.patternKey(p)
	// Chaos point: a forced miss sends an operand the table already holds
	// down the full revalidate-and-copy path — which must stay equivalent.
	if v, ref, ok := sv.intern.lookup(key, p); ok && !faultinject.Fire(faultinject.PointInternMiss) {
		return v.(*matrix.Pattern), ref, nil
	}
	if err := validatePattern(p); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", what, err)
	}
	v, ref := sv.intern.insert(key, p.Clone(), patternSize(p))
	return v.(*matrix.Pattern), ref, nil
}

// internMatrix is internPattern for valued operands.
func (sv *Server) internMatrix(a *matrix.CSR[float64], what string) (*matrix.CSR[float64], uint64, error) {
	if sv.intern == nil {
		if err := validateMatrix(a); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", what, err)
		}
		return a, 0, nil
	}
	key := sv.intern.matrixKey(a)
	if v, ref, ok := sv.intern.lookup(key, a); ok && !faultinject.Fire(faultinject.PointInternMiss) {
		return v.(*matrix.CSR[float64]), ref, nil
	}
	if err := validateMatrix(a); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", what, err)
	}
	v, ref := sv.intern.insert(key, a.Clone(), matrixSize(a))
	return v.(*matrix.CSR[float64]), ref, nil
}

// unknownRefError names an operand reference the intern table does not
// hold. The handler answers it with a wire.CodeUnknownRef error frame.
type unknownRefError struct {
	what string
	ref  uint64
}

func (e *unknownRefError) Error() string {
	return fmt.Sprintf("%s: reference %#x is not held", e.what, e.ref)
}

// operand maps one operand slot onto its canonical object: through the
// intern table when the frame carries a reference for it, through intern
// (validate and intern) when it travels inline. It returns the object's
// reference, 0 where the table retains none.
func operand[T *matrix.Pattern | *matrix.CSR[float64]](sv *Server, inline T, ref uint64, what string,
	intern func(T, string) (T, uint64, error)) (T, uint64, error) {
	if ref == 0 {
		return intern(inline, what)
	}
	if v, ok := resolve[T](sv.intern, ref); ok {
		return v, ref, nil
	}
	return nil, 0, &unknownRefError{what, ref}
}

// operands maps one multiply frame onto canonical operands, refs holding
// the references the frame carries for M, A and B (0 = inline). It
// returns the operands' references and checks that the shapes agree.
func (sv *Server) operands(f *wire.MultiplyReq, refs [3]uint64) (m *matrix.Pattern, a, b *matrix.CSR[float64], out [3]uint64, err error) {
	if m, out[0], err = operand(sv, f.M, refs[0], "mask", sv.internPattern); err != nil {
		return nil, nil, nil, out, err
	}
	if a, out[1], err = operand(sv, f.A, refs[1], "A", sv.internMatrix); err != nil {
		return nil, nil, nil, out, err
	}
	if b, out[2], err = operand(sv, f.B, refs[2], "B", sv.internMatrix); err != nil {
		return nil, nil, nil, out, err
	}
	if a.NCols != b.NRows || m.NRows != a.NRows || m.NCols != b.NCols {
		return nil, nil, nil, out, fmt.Errorf("incompatible shapes: M %dx%d, A %dx%d, B %dx%d",
			m.NRows, m.NCols, a.NRows, a.NCols, b.NRows, b.NCols)
	}
	return m, a, b, out, nil
}

// frameOpts maps a multiply frame's flags and semiring name onto
// descriptor options.
func frameOpts(f *wire.MultiplyReq) ([]masked.Op, error) {
	if bad := f.Flags &^ wire.FlagComplement; bad != 0 {
		return nil, fmt.Errorf("unknown flag bits %#x", bad)
	}
	var opts []masked.Op
	if f.Semiring != "" {
		sr, err := masked.SemiringByName(f.Semiring)
		if err != nil {
			return nil, err
		}
		opts = append(opts, masked.WithAccumulate(sr))
	}
	if f.Flags&wire.FlagComplement != 0 {
		opts = append(opts, masked.WithComplement())
	}
	return opts, nil
}

// handleMultiply serves POST /v1/multiply: one or more concatenated
// FrameMultiplyReq frames, or one FrameMultiplyRefReq alone. A single
// frame takes the non-queuing admission path (429 + Retry-After when
// saturated); a batch is admitted whole against the queued-frames bound
// and answered as per-frame response or error frames in request order. A
// batch executes under one context whose deadline is the largest
// requested across its frames (documented on
// wire.MultiplyReq.DeadlineMillis): clients needing strict per-frame
// deadlines send frames as separate requests. A reference request is
// answered with a FrameMultiplyRefRes, or with a wire.CodeUnknownRef error
// frame when it names a reference the intern table does not hold.
func (sv *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		sv.httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, release, ok := sv.readBody(w, r)
	if !ok {
		return
	}
	defer release()

	// Chaos points, inert unless armed: a forced handler panic after the
	// body is read (the guard barrier must release the pooled buffer via the
	// defer above and answer 500) and a latency stall (exercises deadlines
	// and graceful drain under slow handlers).
	if faultinject.Fire(faultinject.PointServerPanic) {
		panic("faultinject: " + faultinject.PointServerPanic)
	}
	faultinject.Sleep(faultinject.PointServerSlow)

	var frames []*wire.MultiplyReq
	var refs [3]uint64 // the operand references of a sole reference request
	isRef := false
	for data := body; len(data) > 0; {
		t, payload, rest, err := wire.DecodeFrame(data)
		if err != nil {
			sv.httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		var req *wire.MultiplyReq
		switch {
		case t == wire.FrameMultiplyReq:
			req, err = wire.DecodeMultiplyReq(payload)
		case t == wire.FrameMultiplyRefReq && len(frames) == 0 && len(rest) == 0:
			var rr *wire.MultiplyRefReq
			if rr, err = wire.DecodeMultiplyRefReq(payload); err == nil {
				req, refs, isRef = &rr.MultiplyReq, rr.Refs, true
			}
		default:
			sv.httpError(w, http.StatusBadRequest,
				fmt.Sprintf("frame %d: type %d, want multiply request (a reference request travels alone)", len(frames), t))
			return
		}
		if err != nil {
			sv.httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		frames = append(frames, req)
		if len(frames) > sv.cfg.MaxBatchFrames {
			sv.httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("more than %d frames in one body", sv.cfg.MaxBatchFrames))
			return
		}
		data = rest
	}
	if len(frames) == 0 {
		sv.httpError(w, http.StatusBadRequest, "empty body")
		return
	}

	batch := make([]masked.BatchReq, len(frames))
	var deadline time.Duration
	var issued [3]uint64 // the operand references a reference request is answered with
	for i, f := range frames {
		opts, err := frameOpts(f)
		if err != nil {
			sv.httpError(w, http.StatusBadRequest, fmt.Sprintf("frame %d: %v", i, err))
			return
		}
		m, a, b, out, err := sv.operands(f, refs)
		var unknown *unknownRefError
		switch {
		case errors.As(err, &unknown):
			sv.writeWire(w, (&wire.ErrorFrame{Code: wire.CodeUnknownRef, Message: err.Error()}).Encode(nil))
			return
		case err != nil:
			sv.httpError(w, http.StatusBadRequest, fmt.Sprintf("frame %d: %v", i, err))
			return
		}
		issued = out
		batch[i] = masked.BatchReq{M: m, A: a, B: b, Opts: opts, Tag: i}
		if d := sv.deadlineFor(f.DeadlineMillis); d > deadline {
			deadline = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	sv.nMultiply.Add(1)
	sv.nFrames.Add(int64(len(frames)))

	if len(frames) == 1 {
		res := sv.sess.TryMultiply(ctx, batch[0].M, batch[0].A, batch[0].B, batch[0].Opts...)
		switch {
		case errors.Is(res.Err, masked.ErrSaturated):
			sv.reject(w)
		case res.Err != nil:
			sv.httpError(w, statusFor(res.Err), res.Err.Error())
		case isRef:
			sv.writeWire(w, (&wire.MultiplyRefRes{MultiplyRes: multiplyRes(res), Refs: issued}).Encode(nil))
		default:
			sv.writeWire(w, encodeMultiplyRes(nil, res))
		}
		return
	}

	// Batch path: MultiplyBatch queues internally, so bound the queue at
	// the server — a batch that would exceed it is refused whole.
	n := int64(len(frames))
	if sv.queuedFrames.Add(n) > sv.maxQueued {
		sv.queuedFrames.Add(-n)
		sv.reject(w)
		return
	}
	defer sv.queuedFrames.Add(-n)
	var out []byte
	for _, res := range sv.sess.MultiplyBatch(ctx, batch) {
		if res.Err != nil {
			out = (&wire.ErrorFrame{
				Code:    uint16(statusFor(res.Err)),
				Message: res.Err.Error(),
			}).Encode(out)
			continue
		}
		out = encodeMultiplyRes(out, res)
	}
	sv.writeWire(w, out)
}

// multiplyRes maps one multiply result onto its response message.
func multiplyRes(res masked.BatchRes) wire.MultiplyRes {
	var flags uint16
	if res.Coalesced {
		flags |= wire.FlagCoalesced
	}
	workers := res.Workers
	if workers > 1<<16-1 {
		workers = 1<<16 - 1
	}
	return wire.MultiplyRes{Flags: flags, Workers: uint16(workers), C: res.C}
}

// encodeMultiplyRes appends one multiply response frame.
func encodeMultiplyRes(dst []byte, res masked.BatchRes) []byte {
	r := multiplyRes(res)
	return r.Encode(dst)
}

// decodeSingle reads the one request frame an app endpoint expects.
func (sv *Server) decodeSingle(w http.ResponseWriter, body []byte, want wire.FrameType) ([]byte, bool) {
	t, payload, rest, err := wire.DecodeFrame(body)
	if err != nil {
		sv.httpError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	if t != want {
		sv.httpError(w, http.StatusBadRequest, fmt.Sprintf("frame type %d, want %d", t, want))
		return nil, false
	}
	if len(rest) != 0 {
		sv.httpError(w, http.StatusBadRequest, "expected exactly one frame")
		return nil, false
	}
	return payload, true
}

// handleTriangleCount serves POST /v1/triangle-count: one
// FrameTriangleCountReq. Admission goes through TryAdmit, so a saturated
// session refuses app requests exactly like multiplies.
func (sv *Server) handleTriangleCount(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		sv.httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, release, ok := sv.readBody(w, r)
	if !ok {
		return
	}
	defer release()
	payload, ok := sv.decodeSingle(w, body, wire.FrameTriangleCountReq)
	if !ok {
		return
	}
	req, err := wire.DecodeTriangleCountReq(payload)
	if err != nil {
		sv.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	g, _, err := sv.internMatrix(req.G, "graph")
	if err != nil {
		sv.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if g.NRows != g.NCols {
		sv.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("graph must be square, got %dx%d", g.NRows, g.NCols))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), sv.deadlineFor(req.DeadlineMillis))
	defer cancel()
	sv.nTC.Add(1)

	adm, ok := sv.sess.TryAdmit(int64(g.NNZ()))
	if !ok {
		sv.reject(w)
		return
	}
	defer adm.Release()
	tc, err := sv.sess.TriangleCount(ctx, g, masked.WithThreads(adm.Workers()))
	if err != nil {
		sv.httpError(w, statusFor(err), err.Error())
		return
	}
	sv.writeWire(w, (&wire.TriangleCountRes{
		Triangles:   tc.Triangles,
		Flops:       tc.Flops,
		MaskedNanos: tc.MaskedTime.Nanoseconds(),
		TotalNanos:  tc.TotalTime.Nanoseconds(),
	}).Encode(nil))
}

// handleBFS serves POST /v1/bfs: one FrameBFSReq.
func (sv *Server) handleBFS(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		sv.httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, release, ok := sv.readBody(w, r)
	if !ok {
		return
	}
	defer release()
	payload, ok := sv.decodeSingle(w, body, wire.FrameBFSReq)
	if !ok {
		return
	}
	req, err := wire.DecodeBFSReq(payload)
	if err != nil {
		sv.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	g, _, err := sv.internMatrix(req.G, "graph")
	if err != nil {
		sv.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if g.NRows != g.NCols {
		sv.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("graph must be square, got %dx%d", g.NRows, g.NCols))
		return
	}
	if req.Source < 0 || req.Source >= g.NRows {
		sv.httpError(w, http.StatusBadRequest,
			fmt.Sprintf("source %d out of range [0,%d)", req.Source, g.NRows))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), sv.deadlineFor(req.DeadlineMillis))
	defer cancel()
	sv.nBFS.Add(1)

	adm, ok := sv.sess.TryAdmit(int64(g.NNZ()))
	if !ok {
		sv.reject(w)
		return
	}
	defer adm.Release()
	res, err := sv.sess.BFS(ctx, g, req.Source, masked.WithThreads(adm.Workers()))
	if err != nil {
		sv.httpError(w, statusFor(err), err.Error())
		return
	}
	sv.writeWire(w, (&wire.BFSRes{
		Depth:     int32(res.Depth),
		PushSteps: int32(res.PushSteps),
		PullSteps: int32(res.PullSteps),
		Level:     res.Level,
	}).Encode(nil))
}

// handleHealthz serves GET /healthz.
func (sv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		sv.httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(sv.start).Seconds(),
	})
}

// handleMetrics serves GET /metrics: Prometheus text by default, the JSON
// snapshot with ?format=json.
func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		sv.httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := sv.Metrics()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeProm(w, snap)
}
