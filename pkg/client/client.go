// Package client is a retrying Go client for the merlind HTTP API
// (internal/service): POST /v1/route, the durable /v1/jobs API (jobs.go),
// trace fetches (trace.go) and the healthz/readyz/stats probes, with
// context-aware exponential backoff and full jitter. Many nets are many
// concurrent Route calls: through merlinrouter each lands on its own net's
// home backend.
//
// Retry policy. Routing requests are pure functions of their body — the
// server caches them by a canonical fingerprint — so replaying one is always
// safe. The client therefore retries transport errors and the two statuses
// that mean "try later" (429 queue_full, 503 shutting_down/draining),
// honoring the server's Retry-After hint when present. Anything else (400,
// 413, 422, 500, 504) is a verdict about this request, not about timing, and
// is returned immediately. Two 422s deserve a different reaction than a
// blind retry: "budget_exceeded" means the problem is too big for its
// budget (resubmit with a bigger one), while "budget_exceeded_wall" means
// it was too slow — resubmitting with AllowDegraded lets the server's
// degradation ladder serve a cheaper tier instead of failing again (the
// response's Tier/Degraded fields report what ran).
//
// The probes Healthz, Readyz and Stats never retry: they exist to observe
// the server's current state, and a retried probe answers a different
// question.
//
// Multi-endpoint failover. WithEndpoints configures a list of equivalent
// base URLs (a ring of merlinds, or several routers); a connection failure
// rotates to the next one before the retry, so client-side failover costs
// one attempt instead of the whole budget. See WithEndpoints.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"merlin/internal/service"
)

// APIError is a non-2xx response from the server, carrying the structured
// error body (message + machine-readable code) and any Retry-After hint.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code ("bad_request",
	// "budget_exceeded", "budget_exceeded_wall", "queue_full", ...; see the
	// service error taxonomy).
	Code string
	// Message is the human-readable error text.
	Message string
	// RetryAfter is the server's Retry-After hint; 0 when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("merlind: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("merlind: %d: %s", e.Status, e.Message)
}

// Retryable reports whether the error means "try again later" rather than
// "this request is wrong": a full queue or a draining server. A 409
// idempotency conflict is explicitly not retryable — the key will keep
// naming the original request, so replaying can never succeed.
func (e *APIError) Retryable() bool {
	if e.Status == http.StatusConflict {
		return false
	}
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Client talks to one merlind server — or, with WithEndpoints, to a list of
// equivalent servers with client-side failover: a connection failure rotates
// to the next base URL before the retry, so one dead backend costs one
// attempt, not the whole budget. It is safe for concurrent use.
type Client struct {
	hc         *http.Client
	maxRetries int
	bo         *Backoff

	mu        sync.Mutex
	endpoints []string
	cur       int
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default: a client
// with no global timeout — per-call contexts bound each request).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries sets how many times a retryable failure is retried
// (default 4; 0 disables retries).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the base and ceiling of the exponential backoff
// (defaults 100ms and 5s). A server Retry-After hint overrides the computed
// backoff when it is longer.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.bo.Base, c.bo.Max = base, max }
}

// WithSeed makes the backoff jitter deterministic, for tests.
func WithSeed(seed int64) Option {
	return func(c *Client) { c.bo.Seed(seed) }
}

// WithEndpoints replaces the client's endpoint list with the given base
// URLs (the New baseURL plus these, deduplicated, in order). Requests go to
// the current endpoint; a connection failure rotates to the next one for
// the retry, so callers fail over across a ring of equivalent backends (or
// routers) without giving up their retry budget to one dead host. Rotation
// is sticky: once an endpoint works, subsequent requests keep using it.
func WithEndpoints(urls ...string) Option {
	return func(c *Client) {
		for _, u := range urls {
			u = strings.TrimRight(u, "/")
			if u == "" {
				continue
			}
			dup := false
			for _, have := range c.endpoints {
				if have == u {
					dup = true
					break
				}
			}
			if !dup {
				c.endpoints = append(c.endpoints, u)
			}
		}
	}
}

// New returns a client for the server at baseURL (e.g. "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		hc:         &http.Client{},
		maxRetries: 4,
		bo:         NewBackoff(0, 0, 0),
	}
	if base := strings.TrimRight(baseURL, "/"); base != "" {
		c.endpoints = []string{base}
	}
	for _, o := range opts {
		o(c)
	}
	if len(c.endpoints) == 0 {
		c.endpoints = []string{""}
	}
	return c
}

// Endpoints returns the configured base URLs in rotation order.
func (c *Client) Endpoints() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.endpoints...)
}

// base returns the current endpoint and its rotation cursor.
func (c *Client) baseURL() (string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoints[c.cur], c.cur
}

// rotate advances past the endpoint at cursor `from` unless a concurrent
// request already did — two requests failing on the same dead endpoint
// should skip it once, not twice.
func (c *Client) rotate(from int) {
	c.mu.Lock()
	if c.cur == from && len(c.endpoints) > 1 {
		c.cur = (c.cur + 1) % len(c.endpoints)
	}
	c.mu.Unlock()
}

// Route routes one net, retrying per the package policy.
func (c *Client) Route(ctx context.Context, req *service.RouteRequest) (*service.RouteResponse, error) {
	var out service.RouteResponse
	if err := c.postRetry(ctx, "/v1/route", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz probes /v1/healthz once (no retries): pure liveness — nil whenever
// the process is up and serving HTTP, even while draining. Use Readyz to ask
// whether it should receive new work.
func (c *Client) Healthz(ctx context.Context) error {
	resp, err := c.get(ctx, "/v1/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	return apiErrorFrom(resp)
}

// Readyz probes /v1/readyz once (no retries): nil when the server is ready
// for new work, an *APIError with status 503 when it is draining or its
// durability layer is unavailable. Routers eject backends on this signal,
// not on healthz — "restart me" and "stop routing to me" are different
// questions.
func (c *Client) Readyz(ctx context.Context) error {
	resp, err := c.get(ctx, "/v1/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	return apiErrorFrom(resp)
}

// Stats fetches /v1/stats once (no retries).
func (c *Client) Stats(ctx context.Context) (*service.Stats, error) {
	resp, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiErrorFrom(resp)
	}
	var out service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode stats: %w", err)
	}
	return &out, nil
}

// postRetry sends a JSON POST with retries and decodes the 200 body into out.
func (c *Client) postRetry(ctx context.Context, path string, in, out any) error {
	return c.postRetryHeader(ctx, path, nil, in, out)
}

// postRetryHeader is postRetry with extra request headers (e.g.
// Idempotency-Key) applied to every attempt.
func (c *Client) postRetryHeader(ctx context.Context, path string, header http.Header, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	resp, err := c.doRetry(ctx, path, body, header)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// doRetry POSTs body to path until it gets a 2xx, a non-retryable verdict,
// or the retry budget / context runs out. On a retryable failure it sleeps
// the exponential backoff with full jitter, or the server's Retry-After hint
// when that is longer. header (may be nil) is applied to every attempt.
func (c *Client) doRetry(ctx context.Context, path string, body []byte, header http.Header) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, c.abort(err, lastErr)
		}
		base, cur := c.baseURL()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if dl, ok := ctx.Deadline(); ok {
			// Propagate the caller's remaining patience so the server can
			// fold it into the request's wall budget: a solve the client has
			// already abandoned should stop burning a worker. Recomputed per
			// attempt — retries shrink what is left.
			if ms := time.Until(dl).Milliseconds(); ms > 0 {
				req.Header.Set(service.DeadlineHeader, strconv.FormatInt(ms, 10))
			}
		}
		for k, vs := range header {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := c.hc.Do(req)
		var wait time.Duration
		rotated := false
		switch {
		case err != nil:
			// Transport failure before a verdict; the request is replayable.
			// With multiple endpoints this is the failover trigger: rotate to
			// the next base URL and try it immediately — sleeping a backoff
			// before a different, probably-healthy host only adds latency.
			lastErr = err
			c.rotate(cur)
			rotated = len(c.Endpoints()) > 1
		case resp.StatusCode/100 == 2:
			return resp, nil
		default:
			apiErr := apiErrorFrom(resp) // also drains and closes the body
			if !apiErr.Retryable() {
				return nil, apiErr
			}
			lastErr = apiErr
			wait = apiErr.RetryAfter
			// A 503 (draining/overloaded) is a verdict about this host, not
			// the ring: rotate, but keep the backoff sleep — its siblings
			// are likely feeling the same load.
			if apiErr.Status == http.StatusServiceUnavailable {
				c.rotate(cur)
			}
		}
		if attempt >= c.maxRetries {
			return nil, fmt.Errorf("client: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		if rotated {
			continue
		}
		if err := c.sleep(ctx, c.bo.Delay(attempt, wait)); err != nil {
			return nil, c.abort(err, lastErr)
		}
	}
}

// abort wraps a context error with the last server-side failure, so "context
// deadline exceeded" still tells the caller what it was waiting out.
func (c *Client) abort(ctxErr, lastErr error) error {
	if lastErr == nil {
		return ctxErr
	}
	return fmt.Errorf("client: %w (last failure: %v)", ctxErr, lastErr)
}

// backoff delegates to the shared Backoff policy (see backoff.go).
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	return c.bo.Delay(attempt, hint)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	base, cur := c.baseURL()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Probes don't retry, but a dead endpoint should still not pin the
		// cursor: rotate so the caller's next call tries a live sibling.
		c.rotate(cur)
	}
	return resp, err
}

// apiErrorFrom builds an *APIError from a non-2xx response, consuming and
// closing the body. Bodies that are not the service's JSON error shape
// (proxies, panics mid-encode) degrade to the raw text.
func apiErrorFrom(resp *http.Response) *APIError {
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &APIError{Status: resp.StatusCode}
	var body service.ErrorBody
	if err := json.Unmarshal(raw, &body); err == nil && body.Error != "" {
		e.Code, e.Message = body.Code, body.Error
	} else {
		e.Message = strings.TrimSpace(string(raw))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil && sec >= 0 {
			e.RetryAfter = time.Duration(sec) * time.Second
		} else if t, err := http.ParseTime(ra); err == nil {
			if d := time.Until(t); d > 0 {
				e.RetryAfter = d
			}
		}
	}
	return e
}
