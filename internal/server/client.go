package server

// Client speaks the wire protocol to a running server. perfbench's
// serve-wire workload, the cmd/mspgemm-server smoke mode, and the tests all
// drive servers through it.
//
// Requests are sent as checksummed (version-2) wire frames and responses
// are verified on decode, so corruption in either direction surfaces as a
// typed error instead of silently wrong operands. With WithRetry the
// client additionally retries transient failures — saturation (429, with
// the server's Retry-After hint), connection errors, checksum/truncation
// corruption, per-attempt timeouts — under exponential backoff with full
// jitter. Every request this package sends is a pure computation
// (multiplies, triangle counts, BFS are side-effect free), so every
// outcome that cannot be a deterministic property of the request itself is
// idempotent-safe to retry.
//
// Multiply sends an operand the server already holds as the short
// reference the server issued for it (refs.go), and resends the operands
// inline once when the server no longer holds one.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// StatusError is a non-saturation server refusal: an HTTP error response
// or a per-frame error frame.
type StatusError struct {
	// Code is the HTTP-style status; Message the server's text.
	Code    int
	Message string
}

// Error formats the status and message.
func (e *StatusError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Code, e.Message)
}

// SaturatedError is an HTTP 429 refusal: the server's admission cap is
// full. It unwraps to ErrSaturated (use errors.Is to classify) and carries
// the parsed Retry-After hint, which the retry policy honors.
type SaturatedError struct {
	// RetryAfter is the server's parsed Retry-After hint (0 when the header
	// was absent or unparseable).
	RetryAfter time.Duration
}

// Error formats the refusal with its hint.
func (e *SaturatedError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("%v (Retry-After: %v)", ErrSaturated, e.RetryAfter)
	}
	return ErrSaturated.Error()
}

// Unwrap makes errors.Is(err, ErrSaturated) true.
func (e *SaturatedError) Unwrap() error { return ErrSaturated }

// RetryPolicy bounds the client's retry loop. The zero value disables
// retries (one attempt, the pre-retry behavior).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (<= 1 means no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt k backs off a
	// uniformly random duration in [0, min(BaseDelay·2^k, MaxDelay)] (full
	// jitter), raised to the server's Retry-After hint when one was given.
	// 0 means 50ms.
	BaseDelay time.Duration
	// MaxDelay caps each backoff delay — including the Retry-After hint, so
	// a slow server cannot stall the retry loop beyond the caller's
	// patience. 0 means 2s.
	MaxDelay time.Duration
	// AttemptTimeout bounds each individual attempt; the caller's ctx
	// bounds the whole loop. 0 applies no per-attempt bound. An attempt
	// that hits its own timeout is retried (the overall ctx is the real
	// budget); an overall ctx expiry is returned as-is.
	AttemptTimeout time.Duration
}

// ErrUnknownRef is the client-side sentinel for a wire.CodeUnknownRef
// error frame: a request named an operand reference the server does not
// hold (never issued, or dropped with its evicted intern entry).
// Client.Multiply answers it itself by resending the operands inline, so
// it reaches only callers that post reference frames of their own.
var ErrUnknownRef = errors.New("server: unknown operand reference")

// ClientStats are the client's monotonic retry-loop counters.
type ClientStats struct {
	// Attempts counts HTTP attempts, including first tries.
	Attempts int64
	// Retries counts attempts beyond each request's first.
	Retries int64
	// ChecksumErrors counts attempts that failed on a CRC32-C payload
	// mismatch (wire.ErrChecksum) — corruption the checksums caught.
	ChecksumErrors int64
	// RefResends counts requests resent with inline operands because the
	// server no longer held a reference the first body named
	// (ErrUnknownRef).
	RefResends int64
}

// ClientOpt configures a Client (NewClient's variadic tail).
type ClientOpt func(*Client)

// WithRetry arms the client's retry loop with p. Without it the client
// makes exactly one attempt per request.
func WithRetry(p RetryPolicy) ClientOpt {
	return func(c *Client) { c.retry = p }
}

// WithMaxResponseBytes caps how many response-body bytes the client will
// read (0 or less keeps the 1 GiB default). Larger responses fail with a
// StatusError instead of ballooning client memory.
func WithMaxResponseBytes(n int64) ClientOpt {
	return func(c *Client) {
		if n > 0 {
			c.maxResp = n
		}
	}
}

// defaultMaxResponseBytes bounds response bodies when WithMaxResponseBytes
// is not given.
const defaultMaxResponseBytes = 1 << 30

// Client is a wire-protocol client for one server.
type Client struct {
	base    string
	hc      *http.Client
	retry   RetryPolicy
	maxResp int64
	refs    *refTable

	attempts, retries, checksumErrs, refResends atomic.Int64
}

// NewClient returns a client for the server at baseURL
// ("http://host:port"). hc nil means http.DefaultClient. Options arm
// retries (WithRetry) and adjust limits; a bare NewClient(url, nil) is the
// single-attempt client earlier releases shipped.
func NewClient(baseURL string, hc *http.Client, opts ...ClientOpt) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      hc,
		maxResp: defaultMaxResponseBytes,
		refs:    newRefTable(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Stats reads the client's retry-loop counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Attempts:       c.attempts.Load(),
		Retries:        c.retries.Load(),
		ChecksumErrors: c.checksumErrs.Load(),
		RefResends:     c.refResends.Load(),
	}
}

// maxResponsePresize bounds the buffer readCapped reserves from a
// response's Content-Length before any body byte arrives; a longer body
// grows the buffer as its bytes are read.
const maxResponsePresize = 4 << 20

// readCapped reads a response body up to the client's cap, failing on
// larger bodies before buffering them. A Content-Length within the cap
// sizes the buffer once, up to maxResponsePresize; longer bodies and
// bodies of unknown length grow by doubling.
func (c *Client) readCapped(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n >= 0 && n <= c.maxResp {
		// MinRead spare bytes let ReadFrom see EOF without growing.
		buf.Grow(int(min(n, maxResponsePresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, c.maxResp+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > c.maxResp {
		return nil, &StatusError{Code: http.StatusInsufficientStorage,
			Message: fmt.Sprintf("response exceeds client cap of %d bytes", c.maxResp)}
	}
	return buf.Bytes(), nil
}

// post sends a frame-sequence body and returns the response body, mapping
// HTTP 429 onto *SaturatedError (which unwraps to ErrSaturated) and other
// non-200s onto StatusError.
func (c *Client) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wireContentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := c.readCapped(resp)
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, &SaturatedError{RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	case resp.StatusCode != http.StatusOK:
		return nil, &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	return data, nil
}

// parseRetryAfter parses the delay-seconds form of a Retry-After header
// (the form the server sends; the HTTP-date form is not used here).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.ParseInt(strings.TrimSpace(h), 10, 32)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryable classifies an attempt's failure: (hint, true) for transient,
// idempotent-safe outcomes the retry loop may retry — saturation (with the
// server's Retry-After as hint), transport errors, checksum or truncation
// corruption in either direction, 5xx responses — and false for
// deterministic outcomes (validation errors, unsupported requests,
// cancellation) that would fail identically again.
func retryable(err error) (hint time.Duration, ok bool) {
	var se *SaturatedError
	if errors.As(err, &se) {
		return se.RetryAfter, true
	}
	if errors.Is(err, ErrSaturated) {
		return 0, true
	}
	if errors.Is(err, wire.ErrChecksum) || errors.Is(err, wire.ErrTruncated) {
		// The *response* was corrupted in flight and the decoder caught it.
		return 0, true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, false
	}
	var st *StatusError
	if errors.As(err, &st) {
		switch {
		case st.Code >= 500:
			// Includes panics the server recovered into a 500: multiplies
			// are pure, so re-running one is always safe — and a panic
			// caused by the request itself will deterministically exhaust
			// MaxAttempts rather than loop forever.
			return 0, true
		case st.Code == http.StatusBadRequest &&
			(strings.Contains(st.Message, "checksum mismatch") || strings.Contains(st.Message, "truncated frame")):
			// The *request* arrived corrupted and the server's decoder
			// caught it; the retry re-encodes a clean body.
			return 0, true
		}
		return 0, false
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		// Connection-level failure (refused, reset, broken transport).
		return 0, true
	}
	return 0, false
}

// backoff sleeps the full-jitter exponential delay for the given attempt
// index, raised to the server's hint (both capped by MaxDelay), or returns
// early with ctx's error.
func (c *Client) backoff(ctx context.Context, attempt int, hint time.Duration) error {
	base := c.retry.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := c.retry.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	ceil := maxd
	if attempt < 30 {
		if d := base << attempt; d < ceil {
			ceil = d
		}
	}
	d := time.Duration(rand.Int63n(int64(ceil) + 1))
	if hint > maxd {
		hint = maxd
	}
	if d < hint {
		d = hint
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do runs one logical request through the retry loop: each attempt encodes
// a fresh body (mkBody), posts it, and decodes the response; transient
// failures back off and retry up to the policy's budget under ctx. The
// body is re-encoded per attempt because a retry must never resend bytes a
// previous attempt may have had corrupted in flight.
func (c *Client) do(ctx context.Context, path string, mkBody func() []byte, decode func([]byte) error) error {
	maxAttempts := c.retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		c.attempts.Add(1)
		actx, cancel := ctx, context.CancelFunc(nil)
		if c.retry.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.retry.AttemptTimeout)
		}
		var data []byte
		data, err = c.post(actx, path, mkBody())
		if err == nil {
			err = decode(data)
		}
		attemptTimedOut := cancel != nil && actx.Err() != nil && ctx.Err() == nil
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, wire.ErrChecksum) {
			c.checksumErrs.Add(1)
		}
		if ctx.Err() != nil {
			return err // the overall budget is spent; no point classifying
		}
		hint, ok := retryable(err)
		if attemptTimedOut {
			hint, ok = 0, true // per-attempt timeout under a healthy overall ctx
		}
		if !ok || attempt == maxAttempts-1 {
			return err
		}
		if c.backoff(ctx, attempt, hint) != nil {
			return err
		}
	}
	return err
}

// frameError maps a FrameError payload onto the client error vocabulary.
func frameError(payload []byte) error {
	ef, err := wire.DecodeErrorFrame(payload)
	if err != nil {
		return err
	}
	switch ef.Code {
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s", ErrSaturated, ef.Message)
	case wire.CodeUnknownRef:
		return fmt.Errorf("%w: %s", ErrUnknownRef, ef.Message)
	}
	return &StatusError{Code: int(ef.Code), Message: ef.Message}
}

// Multiply runs one masked multiply on the server. An operand the server
// already holds travels as the reference the server issued for it (see
// refs.go): Multiply hashes each operand object's content once, sends the
// reference an earlier response reported for that content, and sends the
// operand inline otherwise. So, as with a masked.Session, an operand must
// not be mutated, nor its memory reused for another operand, while the
// client may see it again; pass a fresh matrix (Clone) instead. The client
// keeps no operand alive. When the server no longer holds a
// reference, Multiply drops the references it sent and resends the
// request inline once, counted in ClientStats.RefResends.
func (c *Client) Multiply(ctx context.Context, req *wire.MultiplyReq) (*wire.MultiplyRes, error) {
	keys := c.refs.keys(req)
	inline := false
	var sent [3]uint64 // the references the last body carried
	var out *wire.MultiplyRes
	mkBody := func() []byte {
		r := wire.MultiplyRefReq{MultiplyReq: *req}
		if !inline {
			r.Refs = c.refs.lookup(keys)
		}
		sent = r.Refs
		return wire.WithChecksum(r.Encode(nil))
	}
	decode := func(data []byte) error {
		t, payload, _, err := wire.DecodeFrame(data)
		if err != nil {
			return err
		}
		switch t {
		case wire.FrameMultiplyRefRes:
			res, err := wire.DecodeMultiplyRefRes(payload)
			if err != nil {
				return err
			}
			c.refs.record(keys, res.Refs)
			out = &res.MultiplyRes
			return nil
		case wire.FrameError:
			return frameError(payload)
		default:
			return fmt.Errorf("server: unexpected frame type %d", t)
		}
	}
	err := c.do(ctx, "/v1/multiply", mkBody, decode)
	if errors.Is(err, ErrUnknownRef) {
		c.refs.drop(keys, sent)
		inline = true
		c.refResends.Add(1)
		err = c.do(ctx, "/v1/multiply", mkBody, decode)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MultiplyOutcome is one frame's result within a batch response.
type MultiplyOutcome struct {
	// Res is the response, nil when Err is set.
	Res *wire.MultiplyRes
	// Err is the per-frame error (ErrSaturated via errors.Is, or a
	// StatusError).
	Err error
}

// MultiplyBatch runs several multiplies in one request. Outcomes come
// back in request order; a whole-batch refusal (429, malformed body)
// returns a request-level error instead. The retry loop retries
// whole-request failures only; per-frame errors inside a delivered batch
// are outcomes, not transport faults.
func (c *Client) MultiplyBatch(ctx context.Context, reqs []*wire.MultiplyReq) ([]MultiplyOutcome, error) {
	var out []MultiplyOutcome
	err := c.do(ctx, "/v1/multiply",
		func() []byte {
			var body []byte
			for _, r := range reqs {
				body = r.Encode(body)
			}
			return wire.WithChecksum(body)
		},
		func(data []byte) error {
			out = make([]MultiplyOutcome, 0, len(reqs))
			for len(data) > 0 {
				t, payload, rest, err := wire.DecodeFrame(data)
				if err != nil {
					return err
				}
				switch t {
				case wire.FrameMultiplyRes:
					res, err := wire.DecodeMultiplyRes(payload)
					out = append(out, MultiplyOutcome{Res: res, Err: err})
				case wire.FrameError:
					out = append(out, MultiplyOutcome{Err: frameError(payload)})
				default:
					return fmt.Errorf("server: unexpected frame type %d", t)
				}
				data = rest
			}
			if len(out) != len(reqs) {
				return fmt.Errorf("server: %d response frames for %d requests", len(out), len(reqs))
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TriangleCount runs a triangle count on the server.
func (c *Client) TriangleCount(ctx context.Context, req *wire.TriangleCountReq) (*wire.TriangleCountRes, error) {
	var out *wire.TriangleCountRes
	err := c.do(ctx, "/v1/triangle-count",
		func() []byte { return wire.WithChecksum(req.Encode(nil)) },
		func(data []byte) error {
			t, payload, _, err := wire.DecodeFrame(data)
			if err != nil {
				return err
			}
			switch t {
			case wire.FrameTriangleCountRes:
				out, err = wire.DecodeTriangleCountRes(payload)
				return err
			case wire.FrameError:
				return frameError(payload)
			default:
				return fmt.Errorf("server: unexpected frame type %d", t)
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BFS runs a single-source BFS on the server.
func (c *Client) BFS(ctx context.Context, req *wire.BFSReq) (*wire.BFSRes, error) {
	var out *wire.BFSRes
	err := c.do(ctx, "/v1/bfs",
		func() []byte { return wire.WithChecksum(req.Encode(nil)) },
		func(data []byte) error {
			t, payload, _, err := wire.DecodeFrame(data)
			if err != nil {
				return err
			}
			switch t {
			case wire.FrameBFSRes:
				out, err = wire.DecodeBFSRes(payload)
				return err
			case wire.FrameError:
				return frameError(payload)
			default:
				return fmt.Errorf("server: unexpected frame type %d", t)
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// get fetches a non-wire endpoint (no retries: callers poll these).
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := c.readCapped(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	}
	return data, nil
}

// Metrics fetches the JSON metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	data, err := c.get(ctx, "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("server: metrics JSON: %w", err)
	}
	return &m, nil
}

// MetricsText fetches the Prometheus text exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	data, err := c.get(ctx, "/metrics")
	return string(data), err
}

// Healthz probes the health endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.get(ctx, "/healthz")
	return err
}
