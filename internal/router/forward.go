package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"merlin/internal/faultinject"
	"merlin/internal/trace"
)

// maxRelayBytes bounds how much of a backend response the router will
// buffer; backend responses are JSON documents well under this.
const maxRelayBytes = 64 << 20

// Failover classification errors. Anything else coming out of an attempt is
// a relayable response.
var (
	// errConn: the backend could not be reached (or faultinject said so);
	// breaker failure, fail over immediately.
	errConn = errors.New("router: backend connection failure")
	// errUpstream: the backend answered a non-503 5xx; breaker failure,
	// fail over.
	errUpstream = errors.New("router: backend 5xx")
	// errDrained: the backend answered 503 — it is alive but refusing new
	// work (draining, durability-degraded); not a breaker failure, but fail
	// over. Only gossip keeps later requests away (Router.drained).
	errDrained = errors.New("router: backend draining")
	// errNoBackend: every admissible replica was tried (or none was
	// admissible); the client should retry later.
	errNoBackend = errors.New("router: no ready backend")
)

// bufferedResp is a fully-read backend response ready to relay.
type bufferedResp struct {
	status  int
	header  http.Header
	body    []byte
	backend string
}

// relayHeaders are the backend response headers worth forwarding; hop-by-hop
// and connection-management headers are not.
var relayHeaders = []string{"Content-Type", "Retry-After"}

// proxyHeaders are the request headers forwarded to backends.
var proxyHeaders = []string{"Content-Type", "Idempotency-Key", "X-Merlin-Tenant"}

// forward tries the candidates in replica order until one yields a
// relayable response (2xx–4xx), spending at most `budget` attempts on
// admissible backends. Connection errors and non-503 5xx record breaker
// failures; a 503 fails over as an answer. Every failover emits a
// router.retry span.
func (rt *Router) forward(ctx context.Context, method, path string, header http.Header, body []byte, cands []*backend, budget int) (*bufferedResp, error) {
	attempts := 0
	var lastErr error
	for _, b := range cands {
		if attempts >= budget {
			break
		}
		if !rt.admissible(b) {
			continue
		}
		attempts++
		br, err := rt.attempt(ctx, b, method, path, header, body)
		if err == nil {
			return br, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rt.inc("forward.failovers")
		_, sp := trace.StartSpan(ctx, "router.retry")
		sp.SetAttr("from", b.id)
		sp.SetAttr("cause", err.Error())
		sp.End()
	}
	if lastErr == nil {
		lastErr = errNoBackend
	}
	return nil, lastErr
}

// attempt sends the request to one backend and buffers the response.
// Breaker accounting happens here: the caller only sequences attempts.
func (rt *Router) attempt(ctx context.Context, b *backend, method, path string, header http.Header, body []byte) (*bufferedResp, error) {
	_, sp := trace.StartSpan(ctx, "router.forward")
	sp.SetAttr("backend", b.id)
	defer sp.End()
	rt.inc("forward.attempts")
	b.mu.Lock()
	b.forwards++
	b.mu.Unlock()

	resp, err := rt.send(ctx, b, method, path, header, body)
	if err != nil {
		sp.SetAttr("outcome", "conn_error")
		b.recordFailure(rt.cfg.now(), rt.pol)
		return nil, fmt.Errorf("%w: %s: %v", errConn, b.id, err)
	}
	sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
	if ferr := rt.classify(b, resp.StatusCode); ferr != nil {
		drainBody(resp)
		sp.SetAttr("outcome", "failover")
		return nil, fmt.Errorf("%w: %s", ferr, b.id)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes))
	resp.Body.Close()
	if err != nil {
		// The verdict arrived but the body did not; the backend connection
		// died mid-response. Replaying a buffered response is safe —
		// nothing reached the client yet.
		sp.SetAttr("outcome", "body_error")
		b.recordFailure(rt.cfg.now(), rt.pol)
		return nil, fmt.Errorf("%w: %s: %v", errConn, b.id, err)
	}
	sp.SetAttr("outcome", "relay")
	b.recordSuccess()
	return &bufferedResp{status: resp.StatusCode, header: resp.Header, body: raw, backend: b.id}, nil
}

// classify sorts a backend status into relay (nil), 503-failover
// (errDrained) or breaker-failover (errUpstream). 2xx–4xx relay: a 4xx is
// a verdict about the request and MUST NOT burn failover attempts — the
// next replica would only say the same thing.
func (rt *Router) classify(b *backend, status int) error {
	switch {
	case status < 500:
		return nil
	case status == http.StatusServiceUnavailable:
		// Alive but refusing work: an answer, so not a breaker failure —
		// draining is cooperative, not broken.
		b.recordSuccess()
		return errDrained
	default:
		b.recordFailure(rt.cfg.now(), rt.pol)
		return errUpstream
	}
}

// send builds and issues one proxy request. The faultinject site fires
// before the wire: an injected error is indistinguishable from a
// connection failure, which is exactly what the chaos drill wants.
func (rt *Router) send(ctx context.Context, b *backend, method, path string, header http.Header, body []byte) (*http.Response, error) {
	if err := faultinject.Fire(faultinject.SiteRouterForward); err != nil {
		return nil, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.id+path, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range proxyHeaders {
		if v := header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return rt.hc.Do(req)
}

// forwardHedged is forward for cache-likely reads: it launches the request
// at the home replica, and if no verdict arrives within HedgeDelay launches
// a second copy at the next admissible replica; the first relayable
// response wins and the loser is canceled. Route requests are pure
// functions of their body (the backends cache them by canonical
// fingerprint), so duplicating one is always safe. Returns errNoBackend
// when neither attempt produced a relayable response; the caller may then
// fall back to the sequential path.
func (rt *Router) forwardHedged(ctx context.Context, path string, header http.Header, body []byte, cands []*backend) (*bufferedResp, error) {
	// usable (not admissible) on purpose: admissible consumes a half-open
	// trial ticket, and if fewer than two replicas qualify we fall back to
	// the sequential path — which would then find the ticketed backend
	// inadmissible and skip it entirely. A half-open backend receiving a
	// hedge without a ticket is the lesser harm.
	now := rt.cfg.now()
	var pair []*backend
	for _, b := range cands {
		if rt.usable(b, now) {
			pair = append(pair, b)
			if len(pair) == 2 {
				break
			}
		}
	}
	if len(pair) < 2 {
		return rt.forward(ctx, http.MethodPost, path, header, body, cands, rt.cfg.MaxAttempts)
	}
	rt.inc("hedge.launched")

	type out struct {
		br  *bufferedResp
		err error
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser's attempt dies with the handler
	ch := make(chan out, 2)
	launch := func(b *backend) {
		rt.goGuard("hedge "+b.id, func() {
			br, err := rt.attempt(hctx, b, http.MethodPost, path, header, body)
			ch <- out{br, err}
		})
	}
	launch(pair[0])
	timer := time.NewTimer(rt.cfg.HedgeDelay)
	defer timer.Stop()

	launched, received := 1, 0
	var lastErr error
	for received < launched {
		select {
		case <-timer.C:
			if launched == 1 {
				launch(pair[1])
				launched = 2
				rt.inc("hedge.fired")
			}
		case o := <-ch:
			received++
			if o.err == nil {
				if received == 1 && launched == 2 {
					rt.inc("hedge.first_win")
				}
				return o.br, nil
			}
			lastErr = o.err
			// The home replica failed outright before the hedge timer: fire
			// the hedge now — waiting out the delay would only add latency
			// to a failover we already know we need.
			if launched == 1 {
				launch(pair[1])
				launched = 2
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if lastErr == nil {
		lastErr = errNoBackend
	}
	return nil, lastErr
}

// drainBody discards and closes a response body so the transport can reuse
// the connection.
func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
