// Package rapclient is the typed Go client for the rapserve /v1 HTTP
// API: compile (Programs), one-shot scans, streaming sessions (Open /
// Feed / Close), live ruleset updates, and the stats/health surface.
//
// The client is deliberately self-contained — it mirrors the wire types
// and the typed-error semantics of the service (*compile.Error-shaped
// ruleset rejections surface as ErrCompile, per-tenant admission
// rejections as ErrOverLimit) without importing any server package, so
// it is what a remote consumer of the API would vendor. The cluster
// proxy (internal/cluster), rapbench's serving experiments, and the
// examples all speak /v1 through it.
//
// Every method takes a context and honors cancellation. Backpressure
// responses (429 with Retry-After, 503) are retried with exponential
// backoff capped by the server-provided Retry-After; transport errors
// are retried only for requests that are safe to repeat (GETs, content-
// hash-keyed compiles, one-shot scans — not session feeds, which advance
// stream state).
//
// Decoding: ScanResult and FeedResult, the per-request responses, are
// parsed in one pass (decode.go) when the body is byte for byte the
// canonical form rapserve writes — {"count":N,"matches":[{"pattern":P,
// "end":E},...]}, "offset" after "count" for a feed, no whitespace but a
// final newline, integers of at most 18 digits. Any other body (other
// key order, whitespace, unknown fields, a proxy's re-serialisation) and
// every other result type is encoding/json's; only the bytes choose.
package rapclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// DefaultTenantHeader is the identity header rapserve reads by default
// (see internal/qos); WithTenant attaches its value to every request.
const DefaultTenantHeader = "X-RAP-Tenant"

// Client talks to one rapserve base URL (a bare service or a cluster
// node). Clients are immutable after New; the With* methods return
// shallow copies, so one Client per backend can be shared across
// goroutines and re-scoped per request (e.g. the cluster proxy stamping
// the caller's tenant).
type Client struct {
	base    string
	hc      *http.Client
	header  http.Header
	retries int
	backoff time.Duration
	maxWait time.Duration
}

// Option configures a Client at construction.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test servers). Default: http.DefaultClient.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTenant sets the tenant identity sent on every request.
func WithTenant(name string) Option {
	return func(c *Client) { c.header.Set(DefaultTenantHeader, name) }
}

// WithTenantHeader renames the identity header (rapserve -tenant-header).
// Apply before WithTenant.
func WithTenantHeader(h string) Option {
	return func(c *Client) {
		if v := c.header.Get(DefaultTenantHeader); v != "" {
			c.header.Del(DefaultTenantHeader)
			c.header.Set(h, v)
		}
	}
}

// WithHeader adds a static header to every request (e.g. the cluster
// proxy's forwarded marker).
func WithHeader(key, value string) Option {
	return func(c *Client) { c.header.Set(key, value) }
}

// WithRetries bounds retry attempts after the first try (default 3;
// 0 disables retries entirely).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base retry backoff, doubled per attempt
// (default 50ms) and overridden upward by server Retry-After hints.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithMaxWait caps any single retry sleep, including server-provided
// Retry-After hints (default 2s).
func WithMaxWait(d time.Duration) Option { return func(c *Client) { c.maxWait = d } }

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:8844").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      http.DefaultClient,
		header:  http.Header{},
		retries: 3,
		backoff: 50 * time.Millisecond,
		maxWait: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL reports the backend this client targets.
func (c *Client) BaseURL() string { return c.base }

// WithTenant returns a copy of the client scoped to the given tenant —
// the per-request form of the WithTenant option, used by proxies that
// forward many tenants through one backend client.
func (c *Client) WithTenant(name string) *Client {
	cp := *c
	cp.header = c.header.Clone()
	cp.header.Set(DefaultTenantHeader, name)
	return &cp
}

// Compile compiles (or cache-hits) a ruleset and returns its program.
// Safe to retry: program IDs are content hashes, so repeating the
// request converges on the same program.
func (c *Client) Compile(ctx context.Context, patterns []string, opts *CompileOptions) (*Program, error) {
	var out Program
	if err := c.do(ctx, http.MethodPost, "/v1/programs", rulesetBody(patterns, opts), jsonContent, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Update hot-swaps the ruleset behind a program ID (PUT /v1/programs/
// {id}) and returns the reconfiguration delta report. Not retried on
// transport errors: each apply bumps the program generation.
func (c *Client) Update(ctx context.Context, programID string, patterns []string, opts *CompileOptions) (*UpdateResult, error) {
	var out UpdateResult
	if err := c.do(ctx, http.MethodPut, "/v1/programs/"+programID, rulesetBody(patterns, opts), jsonContent, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Scan runs a one-shot scan of data against a compiled program.
func (c *Client) Scan(ctx context.Context, programID string, data []byte) (*ScanResult, error) {
	var out ScanResult
	if err := c.do(ctx, http.MethodPost, "/v1/programs/"+programID+"/scan", data, binaryContent, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// OpenSession opens a streaming session against a compiled program.
func (c *Client) OpenSession(ctx context.Context, programID string) (*Session, error) {
	body, err := json.Marshal(openSessionRequest{ProgramID: programID})
	if err != nil {
		return nil, err
	}
	var out openSessionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", body, jsonContent, false, &out); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: out.SessionID, ProgramID: programID}, nil
}

// Session binds an existing session ID to this client — e.g. a session
// opened through a different cluster gateway, or recorded across a
// process restart. programID is informational and may be empty.
func (c *Client) Session(id, programID string) *Session {
	return &Session{c: c, ID: id, ProgramID: programID}
}

// Session is one open streaming session. Feed and Close must not run
// concurrently with each other (the stream is stateful), matching the
// server's per-session flow serialization.
type Session struct {
	c         *Client
	ID        string
	ProgramID string
}

// Feed streams the next chunk and returns the matches ending inside it.
// Not retried on transport errors: a chunk that may have been consumed
// must not be double-fed.
func (s *Session) Feed(ctx context.Context, chunk []byte) (*FeedResult, error) {
	var out FeedResult
	if err := s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.ID+"/data", chunk, binaryContent, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Close ends the stream, returning end-anchored matches and totals.
func (s *Session) Close(ctx context.Context) (*CloseResult, error) {
	var out CloseResult
	if err := s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.ID, nil, "", false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the /v1/stats counter snapshot. The mirrored struct
// keeps the fields control loops route on (traffic totals, request
// outcomes, health, per-program counters); unrecognized blocks are ignored.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, "", true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches the scored component health from /v1/health.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.do(ctx, http.MethodGet, "/v1/health", nil, "", true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes /readyz: nil when the node accepts traffic, ErrUnavailable
// (wrapped in an *APIError) while any health component is critical.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, "", true, nil)
}

const (
	jsonContent   = "application/json"
	binaryContent = "application/octet-stream"
)

// do issues one API request with the retry policy: 429/503 responses
// are always retried (the server rejected before any side effect) after
// honoring Retry-After; transport errors are retried only when
// idempotent. Other non-2xx statuses return a typed *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string, idempotent bool, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		for k, vs := range c.header {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = fmt.Errorf("rapclient: %s %s: %w", method, path, err)
			if !idempotent || attempt >= c.retries {
				return lastErr
			}
			if err := c.sleep(ctx, c.backoffFor(attempt, 0)); err != nil {
				return err
			}
			continue
		}
		apiErr, retryable := c.consume(resp, out)
		if apiErr == nil {
			return nil
		}
		lastErr = apiErr
		if !retryable || attempt >= c.retries {
			return lastErr
		}
		if err := c.sleep(ctx, c.backoffFor(attempt, apiErr.RetryAfter)); err != nil {
			return err
		}
	}
}

// consume reads one response: on 2xx it decodes into out (when non-nil)
// and returns (nil, false); otherwise it builds the typed error and
// reports whether the status is a retryable backpressure signal.
func (c *Client) consume(resp *http.Response, out any) (*APIError, bool) {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out != nil {
			if err := decodeBody(resp.Body, out); err != nil {
				return &APIError{Status: resp.StatusCode, Message: fmt.Sprintf("decode response: %v", err)}, false
			}
		}
		return nil, false
	}
	apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	var wire errorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&wire); err == nil && wire.Error != "" {
		apiErr.Message = wire.Error
	} else {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	retryable := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
	return apiErr, retryable
}

// backoffFor picks the next sleep: exponential from the base, overridden
// upward by a server Retry-After hint, capped at maxWait.
func (c *Client) backoffFor(attempt int, retryAfter time.Duration) time.Duration {
	d := c.backoff << attempt
	if retryAfter > d {
		d = retryAfter
	}
	if d > c.maxWait {
		d = c.maxWait
	}
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
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

// parseRetryAfter handles both Retry-After forms: delta-seconds and
// HTTP-date. Unparseable values yield 0 (fall back to backoff).
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}
