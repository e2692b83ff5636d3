package api

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// ClientOptions tunes the HTTP SDK. The zero value gives 2 retries
// with doubling backoff and no per-attempt timeout (the caller's
// context is the only bound, so long queries behave like Local ones).
type ClientOptions struct {
	// HTTPClient overrides the transport (e.g. a httptest server's
	// client). Its own Timeout, if set, stacks with Timeout below.
	HTTPClient *http.Client
	// Timeout bounds each attempt (not the whole retry loop; bound that
	// with the caller's context). ≤ 0 means no per-attempt bound — the
	// caller's context is the only limit, matching a Local backend,
	// where a long query runs as long as it needs.
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried. Only
	// transport errors and gateway statuses (502/503/504) requeue —
	// a 500 is a deterministic server-side failure (e.g. a corrupt
	// frame) that a replay would only re-execute; < 0 disables retries.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt.
	// ≤ 0 means 100 ms.
	Backoff time.Duration
}

// defaultHTTPClient backs every Client constructed without an explicit
// HTTPClient. It is shared deliberately: connection pooling only helps
// if clients pool together, and a cluster coordinator builds one Client
// per replica endpoint, all usually pointing at a handful of hosts.
// http.DefaultTransport's 2 idle conns per host would serialize a
// scatter the moment per-shard concurrency passes 2, so the pool is
// raised to cover a wide fan-out and idle conns are reaped on an
// explicit clock instead of the transport default.
var defaultHTTPClient = &http.Client{Transport: newDefaultTransport()}

func newDefaultTransport() *http.Transport {
	base, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		base = &http.Transport{}
	}
	tr := base.Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	tr.IdleConnTimeout = 90 * time.Second
	return tr
}

// Client is the Go SDK for the v1 HTTP API — the transport-backed
// Backend. It is safe for concurrent use.
type Client struct {
	base    string // no trailing slash
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
}

// NewClient returns a client for the API served at baseURL. A bare
// server URL ("http://localhost:8080") targets the default /v1 mount;
// a mount URL ("http://host/v1/stores/run") targets that named store —
// resource paths are relative to the mount, so the same client code
// works on both.
func NewClient(baseURL string, opts ClientOptions) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, Errorf(CodeBadRequest, "base URL %q is not http(s)", baseURL)
	}
	base := strings.TrimRight(baseURL, "/")
	if u.Path == "" || u.Path == "/" {
		base += "/v1"
	}
	c := &Client{
		base:    base,
		hc:      opts.HTTPClient,
		timeout: opts.Timeout,
		retries: opts.Retries,
		backoff: opts.Backoff,
	}
	if c.hc == nil {
		c.hc = defaultHTTPClient
	}
	if c.retries == 0 {
		c.retries = 2
	} else if c.retries < 0 {
		c.retries = 0
	}
	if c.backoff <= 0 {
		c.backoff = 100 * time.Millisecond
	}
	return c, nil
}

// retryableStatus reports whether a status is worth retrying: gateway
// hiccups and overload. 429 is the admission controller shedding load —
// the request never executed, so a backed-off replay is safe and is
// exactly what Retry-After asks for. Not 500 — the v1 server answers it
// only for deterministic failures, so a replay re-runs the whole
// (possibly expensive) query just to fail identically.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryAfterOf parses a Retry-After header into the server-requested
// pause; 0 when absent or unparseable, so callers fall back to their
// own backoff. Both forms RFC 9110 allows are accepted: delta-seconds
// ("120") and an HTTP-date ("Fri, 08 Aug 2026 14:00:00 GMT"), the
// latter converted to a delay against the local clock — a date already
// in the past (or a skewed clock) yields 0 rather than a negative
// pause.
func retryAfterOf(resp *http.Response) time.Duration {
	h := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// maxBackoff caps the exponential retry delay: past it, waiting longer
// conveys no more politeness, and an uncapped shift would overflow
// time.Duration after ~33 doublings of the default backoff — a
// negative delay that time.After treats as zero, turning a client
// retrying against a long outage into a hot loop hammering the server
// it is supposed to be backing off from.
const maxBackoff = 30 * time.Second

// backoffDelay is the capped exponential schedule: base<<attempt,
// clamped to maxBackoff. The overflow check compares against the cap
// shifted the other way, so the wrap is detected without ever
// computing a wrapped value.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt >= 63 || base > maxBackoff>>attempt {
		return maxBackoff
	}
	return base << attempt
}

// do runs one API call with per-attempt timeout and retry. On success
// the caller owns resp.Body; on failure the returned error is already
// classified (*Error).
func (c *Client) do(ctx context.Context, method, path string, q url.Values, body []byte) (*http.Response, error) {
	resp, _, err := c.doWith(ctx, method, path, q, body, "application/json")
	return resp, err
}

// doWith is do with an explicit request Content-Type (the ingest route
// takes NDJSON). The replayed result reports whether any attempt after
// a transport error was issued: a transport error leaves the server's
// outcome unknown, so a later attempt may be a replay of a request the
// server already executed — Ingest uses this to tell a replayed
// duplicate from a genuine one.
func (c *Client) doWith(ctx context.Context, method, path string, q url.Values, body []byte, contentType string) (resp *http.Response, replayed bool, _ error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var lastErr error
	sawTransportErr := false
	for attempt := 0; ; attempt++ {
		replayed = replayed || sawTransportErr
		var retryAfter time.Duration
		resp, err := c.attempt(ctx, method, u, body, contentType)
		switch {
		case err == nil && resp.StatusCode < 400:
			return resp, replayed, nil
		case err == nil:
			apiErr := decodeErrorResponse(resp)
			retryAfter = retryAfterOf(resp)
			resp.Body.Close()
			if !retryableStatus(resp.StatusCode) {
				return nil, replayed, apiErr
			}
			lastErr = apiErr
		case ctx.Err() != nil:
			// The caller's context ended; its error, not the transport's.
			return nil, replayed, FromError(ctx.Err())
		default:
			sawTransportErr = true
			lastErr = &Error{Code: CodeInternal, Message: fmt.Sprintf("%s %s: %v", method, path, err), err: err}
		}
		if attempt >= c.retries {
			return nil, replayed, lastErr
		}
		// Honor a server-requested Retry-After when it asks for a longer
		// pause than the client's own exponential backoff.
		delay := backoffDelay(c.backoff, attempt)
		if retryAfter > delay {
			delay = retryAfter
		}
		select {
		case <-ctx.Done():
			return nil, replayed, FromError(ctx.Err())
		case <-time.After(delay):
		}
	}
}

// attempt issues a single HTTP request under the per-attempt timeout,
// when one is configured.
func (c *Client) attempt(ctx context.Context, method, u string, body []byte, contentType string) (*http.Response, error) {
	var actx context.Context
	var cancel context.CancelFunc
	if c.timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.timeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, u, rd)
	if err != nil {
		cancel()
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	// Propagate the caller's trace across the wire (minting one when the
	// context has none), so a query shows up server-side under the trace
	// ID the caller logs. Each attempt is its own child span identity.
	sc, ok := obs.SpanContextFrom(ctx)
	if ok {
		sc = sc.Child()
	} else {
		sc = obs.NewSpanContext()
	}
	req.Header.Set("traceparent", sc.Traceparent())
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	// Tie the timeout to body consumption: canceling at return would
	// kill the stream the caller is still reading.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// decodeErrorResponse turns a non-2xx response into an *Error: the v1
// envelope when present, a synthesized code from the status otherwise
// (a proxy's bare 502, a non-API server). The code's sentinel is
// re-attached so errors.Is works identically on a Client error and a
// Local one — the cause cannot cross the wire, but the class can.
func decodeErrorResponse(resp *http.Response) *Error {
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env ErrorEnvelope
	if err := json.Unmarshal(blob, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.err = sentinelOf(env.Error.Code)
		return env.Error
	}
	msg := strings.TrimSpace(string(blob))
	if msg == "" {
		msg = resp.Status
	}
	code := codeOfStatus(resp.StatusCode)
	return &Error{Code: code, Message: msg, err: sentinelOf(code)}
}

// getJSON runs a GET and decodes the JSON response into out.
func (c *Client) getJSON(ctx context.Context, path string, q url.Values, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, q, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &Error{Code: CodeInternal, Message: fmt.Sprintf("decoding %s response: %v", path, err), err: err}
	}
	return nil
}

func (c *Client) Spec(ctx context.Context) (StoreInfo, error) {
	var info StoreInfo
	err := c.getJSON(ctx, "/store", nil, &info)
	return info, err
}

func (c *Client) Frames(ctx context.Context) ([]FrameInfo, error) {
	var infos []FrameInfo
	if err := c.getJSON(ctx, "/frames", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Frame fetches and reassembles a decompressed frame from the binary
// route: little-endian float64 bytes plus the X-Goblaz-Shape header.
func (c *Client) Frame(ctx context.Context, label int) (*Frame, error) {
	resp, err := c.do(ctx, http.MethodGet, "/frames/"+strconv.Itoa(label), nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	shape, err := parseShapeHeader(resp.Header.Get("X-Goblaz-Shape"))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("reading frame %d body: %v", label, err), err: err}
	}
	n := 1
	for _, e := range shape {
		n *= e
	}
	if len(raw) != n*8 {
		return nil, Errorf(CodeInternal, "frame %d body is %d bytes, shape %v needs %d", label, len(raw), shape, n*8)
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return &Frame{Label: label, Shape: shape, Data: data}, nil
}

func parseShapeHeader(h string) ([]int, error) {
	if h == "" {
		return nil, Errorf(CodeInternal, "frame response missing X-Goblaz-Shape header")
	}
	parts := strings.Split(h, ",")
	shape := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, Errorf(CodeInternal, "bad X-Goblaz-Shape header %q", h)
		}
		shape[i] = v
	}
	return shape, nil
}

// FrameInfo resolves one label from the frame index (GET /frames).
func (c *Client) FrameInfo(ctx context.Context, label int) (FrameInfo, error) {
	infos, err := c.Frames(ctx)
	if err != nil {
		return FrameInfo{}, err
	}
	for _, e := range infos {
		if e.Label == label {
			return e, nil
		}
	}
	return FrameInfo{}, notFound(label)
}

// PayloadReader fetches a frame's raw compressed bytes and serves them
// from memory.
func (c *Client) PayloadReader(ctx context.Context, label int) (io.ReadSeeker, error) {
	resp, err := c.do(ctx, http.MethodGet, "/frames/"+strconv.Itoa(label)+"/payload", nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("reading payload %d: %v", label, err), err: err}
	}
	return bytes.NewReader(blob), nil
}

func (c *Client) Stats(ctx context.Context, label int, aggs []string) (*query.FrameResult, error) {
	var q url.Values
	if len(aggs) > 0 {
		q = url.Values{"aggs": {strings.Join(aggs, ",")}}
	}
	var fr query.FrameResult
	if err := c.getJSON(ctx, "/frames/"+strconv.Itoa(label)+"/stats", q, &fr); err != nil {
		return nil, err
	}
	return &fr, nil
}

func (c *Client) Region(ctx context.Context, label int, offset, shape []int) (*query.FrameResult, error) {
	q := url.Values{"offset": {joinInts(offset)}, "shape": {joinInts(shape)}}
	var fr query.FrameResult
	if err := c.getJSON(ctx, "/frames/"+strconv.Itoa(label)+"/region", q, &fr); err != nil {
		return nil, err
	}
	return &fr, nil
}

func (c *Client) Query(ctx context.Context, req *query.Request) (*query.Result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, &Error{Code: CodeBadRequest, Message: fmt.Sprintf("encoding request: %v", err), err: err}
	}
	resp, err := c.do(ctx, http.MethodPost, "/query", nil, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var res query.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("decoding query response: %v", err), err: err}
	}
	return &res, nil
}

// Ingest streams a batch of frames to the server's ingest route as an
// NDJSON body, so Client also satisfies the api.Ingestor capability —
// a producer pointed at a URL ingests exactly like one holding the
// store. A successful return carries the server's durability promise:
// the batch is fsynced in the write-ahead log. Retries are safe for
// shed requests (429/503: the server never executed them). A transport
// error leaves the first attempt's outcome unknown, so the retry may
// replay a batch the server durably accepted; the server rejects the
// replay per duplicate label (conflict), and the client then confirms
// against the committed frame index — if every label of the batch is
// present, the batch landed and Ingest reports success. A conflict
// whose labels are not all committed yet (accepted but pending) still
// surfaces as CodeConflict; producers seeing it after a retry should
// treat the batch as possibly stored and verify via Frames() before
// re-sending under fresh labels.
func (c *Client) Ingest(ctx context.Context, frames []IngestFrame) (*IngestResult, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			return nil, &Error{Code: CodeBadRequest, Message: fmt.Sprintf("encoding ingest frame %d: %v", f.Label, err), err: err}
		}
	}
	resp, replayed, err := c.doWith(ctx, http.MethodPost, "/frames", nil, body.Bytes(), "application/x-ndjson")
	if err != nil {
		if replayed && CodeOf(err) == CodeConflict {
			if res, ok := c.confirmIngested(ctx, frames); ok {
				return res, nil
			}
		}
		return nil, err
	}
	defer resp.Body.Close()
	var res IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, &Error{Code: CodeInternal, Message: fmt.Sprintf("decoding ingest response: %v", err), err: err}
	}
	return &res, nil
}

// confirmIngested checks a replayed-and-rejected batch against the
// server's committed frame index: when every label is present, the
// rejected replay was of a batch a prior (transport-errored) attempt
// delivered, and the synthesized result restores the durability promise
// the lost response carried.
func (c *Client) confirmIngested(ctx context.Context, frames []IngestFrame) (*IngestResult, bool) {
	infos, err := c.Frames(ctx)
	if err != nil {
		return nil, false
	}
	have := make(map[int]struct{}, len(infos))
	for _, fi := range infos {
		have[fi.Label] = struct{}{}
	}
	for _, f := range frames {
		if _, ok := have[f.Label]; !ok {
			return nil, false
		}
	}
	return &IngestResult{Accepted: len(frames), Committed: true, Frames: len(infos)}, true
}

func joinInts(vals []int) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}
