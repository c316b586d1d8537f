package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"

	"merlin/internal/gossip"
	"merlin/internal/qos"
	"merlin/internal/service"
	"merlin/internal/trace"
)

// maxBodyBytes mirrors the backends' request-body bound: rejecting oversize
// bodies here keeps them off the wire entirely.
const maxBodyBytes = 8 << 20

// BackendHeader names the response header carrying which backend served a
// proxied request — operational truth for "where did this answer come
// from" in tests and debugging.
const BackendHeader = "X-Merlin-Backend"

// TraceHeader names the response header carrying the router's own trace id
// for a proxied route or job submit, fetchable from the router's
// GET /v1/trace/{id}. Absent when router tracing is disabled. The backend's
// trace id, when it traces, is the response body's trace_id.
const TraceHeader = "X-Merlin-Router-Trace"

// Handler returns the router's HTTP API — the same surface merlind serves,
// proxied onto the ring, plus the router's own introspection:
//
//	POST /v1/route     proxy to the net's home replica (retries, hedging)
//	POST /v1/jobs      proxy; the acknowledging backend is remembered so
//	                   polls go straight home
//	GET  /v1/jobs/{id} proxy to the job's owner, scattering on a miss
//	GET  /v1/trace/{id} one retained router trace (router.pick/forward/
//	                   retry/qos.admit spans), named by TraceHeader
//	GET  /v1/healthz   router liveness (always 200 while serving)
//	GET  /v1/readyz    503 when no backend is ready
//	GET  /v1/stats     ring, breaker, QoS and counter snapshot
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/route", rt.handleRoute)
	mux.HandleFunc("POST /v1/jobs", rt.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobGet)
	mux.HandleFunc("GET /v1/trace/{id}", rt.handleTraceGet)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", rt.handleReadyz)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	if rt.gossip != nil {
		mux.HandleFunc("POST "+gossip.GossipPath, gossip.Handler(rt.gossip))
	}
	return rt.recoverWare(mux)
}

// recoverWare contains handler panics, exactly like the service's: the
// request fails with a structured 500, the router keeps serving.
func (rt *Router) recoverWare(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(rec)
			}
			rt.inc("panics")
			log.Printf("router: contained handler panic on %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			if !sw.wrote {
				writeError(sw, http.StatusInternalServerError, "internal",
					fmt.Sprintf("contained handler panic: %v", rec), 0)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Router-tier error taxonomy, extending the service's wire shape
// (service.ErrorBody — clients parse one format fleet-wide):
//
//	413 payload_too_large      request body exceeded maxBodyBytes
//	429 tenant_rate_limited    the tenant's token buckets are dry; the
//	                           request was NOT forwarded. Retry-After hints
//	                           at the refill. Per-tenant, not fleet-wide.
//	429 tenant_concurrency     the tenant is at its in-flight quota; retry
//	                           after any of its requests completes
//	503 no_ready_backend       every ring replica is ejected, draining or
//	                           unreachable; retryable — breakers retry
//	                           ejected backends and gossip undrains the
//	                           rest
//	500 internal               contained router panic
//
// Backend verdicts (400/404/409/422/429 queue_full/…) relay as-is.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfterSec int) {
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(service.ErrorBody{Error: msg, Code: code})
}

// admit runs QoS admission for one request; req is the body parsed by
// parseRoute (nil when it did not parse). On deny it writes the 429 and
// returns admitted=false. On degraded admission the returned body carries
// allow_degraded so the backend's ladder may serve a cheaper tier.
func (rt *Router) admit(w http.ResponseWriter, r *http.Request, ctx context.Context, body []byte, req *service.RouteRequest) (newBody []byte, release func(), admitted bool) {
	tenant := r.Header.Get(service.TenantHeader)
	// Only Flow III can be served degraded: the ladder is a Flow III feature.
	degradable := req != nil && flowDegradable(req.Flow)
	_, sp := trace.StartSpan(ctx, "qos.admit")
	sp.SetAttr("tenant", tenant)
	d, release, retryAfter := rt.adm.Admit(tenant, degradable)
	sp.SetAttr("decision", d.String())
	sp.End()
	switch d {
	case qos.Admit:
		rt.inc("qos.admitted")
		if degradable && rt.fleetLevel() > 0 {
			// Fleet brownout: the tenant is within its own budget, but the
			// fleet as a whole is pressured — forward with the degradation
			// ladder enabled so backends may serve cheaper tiers. The
			// response stays truthful: the backend annotates the tier it
			// actually served.
			rt.inc("fleet.degraded")
			body = stampDegraded(body, req)
		}
		return body, release, true
	case qos.AdmitDegraded:
		rt.inc("qos.degraded")
		// Re-marshal with the degradation ladder enabled: the tenant is over
		// its primary rate, so it gets a cheaper tier instead of a 429.
		return stampDegraded(body, req), release, true
	case qos.DenyConcurrency:
		rt.inc("qos.denied_concurrency")
		writeError(w, http.StatusTooManyRequests, "tenant_concurrency",
			fmt.Sprintf("tenant %q is at its concurrency quota", tenantLabel(tenant)),
			int(retryAfter.Seconds())+1)
		return nil, nil, false
	default: // qos.DenyRate
		rt.inc("qos.denied_rate")
		writeError(w, http.StatusTooManyRequests, "tenant_rate_limited",
			fmt.Sprintf("tenant %q is over its request rate", tenantLabel(tenant)),
			int(retryAfter.Seconds())+1)
		return nil, nil, false
	}
}

// stampDegraded re-marshals the parsed request with allow_degraded set.
// On any marshal surprise the original body forwards unchanged — losing
// the degradation hint is safe, corrupting the request is not.
func stampDegraded(body []byte, req *service.RouteRequest) []byte {
	if req != nil {
		req.AllowDegraded = true
		if nb, err := json.Marshal(req); err == nil {
			return nb
		}
	}
	return body
}

func tenantLabel(t string) string {
	if t == "" {
		return qos.DefaultTenant
	}
	return t
}

// parseRoute decodes a route or job body once, for admission (is it
// degradable?) and placement (shardKey). It returns nil when the body does
// not parse or names no net; such a request forwards unchanged and the
// backend judges it.
func parseRoute(body []byte) *service.RouteRequest {
	var req service.RouteRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Net == nil {
		return nil
	}
	return &req
}

// flowDegradable mirrors service.parseFlow's Flow III spellings.
func flowDegradable(flow string) bool {
	switch flow {
	case "", "III", "3":
		return true
	}
	return false
}

func (rt *Router) handleRoute(w http.ResponseWriter, r *http.Request) {
	rt.inc("requests.route")
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	ctx, tr, root := rt.startTrace(w, r, "proxy.route")
	defer func() { rt.traces.Finish(tr, root) }()
	r = r.WithContext(ctx)

	req := parseRoute(body)
	body, release, admitted := rt.admit(w, r, ctx, body, req)
	if !admitted {
		return
	}
	defer release()

	key, fp := shardKey(body, req)
	_, psp := trace.StartSpan(ctx, "router.pick")
	cands := rt.candidates(key)
	psp.SetAttr("home", cands[0].id)
	psp.End()

	hedge := rt.cfg.HedgeDelay > 0 && rt.rememberFingerprint(fp)
	var br *bufferedResp
	var err error
	if hedge {
		br, err = rt.forwardHedged(ctx, "/v1/route", r.Header, body, cands)
	} else {
		br, err = rt.forward(ctx, http.MethodPost, "/v1/route", r.Header, body, cands, rt.cfg.MaxAttempts)
	}
	if err != nil {
		rt.writeForwardError(w, root, err)
		return
	}
	if root != nil {
		root.SetAttr("backend", br.backend)
	}
	relayBuffered(w, br)
}

func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	rt.inc("requests.jobs.submit")
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	ctx, tr, root := rt.startTrace(w, r, "proxy.jobs")
	defer func() { rt.traces.Finish(tr, root) }()
	r = r.WithContext(ctx)

	req := parseRoute(body)
	body, release, admitted := rt.admit(w, r, ctx, body, req)
	if !admitted {
		return
	}
	defer release()

	key, _ := shardKey(body, req)
	_, psp := trace.StartSpan(ctx, "router.pick")
	cands := rt.candidates(key)
	psp.SetAttr("home", cands[0].id)
	psp.End()

	br, err := rt.forward(ctx, http.MethodPost, "/v1/jobs", r.Header, body, cands, rt.cfg.MaxAttempts)
	if err != nil {
		rt.writeForwardError(w, root, err)
		return
	}
	// Remember which backend acknowledged the job so polls go straight to
	// its owner instead of scattering.
	if br.status == http.StatusAccepted || br.status == http.StatusOK {
		var st service.JobStatus
		if jerr := json.Unmarshal(br.body, &st); jerr == nil && st.ID != "" {
			rt.rememberOwner(st.ID, br.backend)
		}
	}
	relayBuffered(w, br)
}

// handleJobGet proxies a poll. The owner (remembered at submit) is asked
// first; then, if gossip advertises a takeover claim for the job (the owner
// died or drained and a ring successor claimed it), the claimant; then the
// scatter across the ring in order. A 404 from a non-owner is inconclusive
// (the job lives elsewhere), so the scatter keeps going; only when every
// reachable backend says 404 is the 404 relayed. If the owner is unreachable
// and nobody else knows the job, the truthful answer is a retryable 503 —
// the job is not lost, its owner is restarting or its claimant is about to
// advertise. Acked jobs therefore never 404 and never wait out a dead
// owner's restart: the claimant answers as soon as gossip carries its claim.
func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rt.inc("requests.jobs.get")
	id := r.PathValue("id")
	ctx := r.Context()

	tried := map[string]bool{}
	var last404 *bufferedResp
	ownerUnreachable := false

	// try sends the poll to b (caller has checked tried + admissibility);
	// returns the relayable response, or nil with failed=true on a conn/5xx
	// error and failed=false on a 404 (recorded in last404).
	try := func(b *backend) (br *bufferedResp, failed bool) {
		tried[b.id] = true
		br, err := rt.attempt(ctx, b, http.MethodGet, "/v1/jobs/"+id, r.Header, nil)
		if err != nil {
			return nil, true
		}
		if br.status == http.StatusNotFound {
			last404 = br
			return nil, false
		}
		return br, false
	}

	if ownerID, ok := rt.ownerOf(id); ok {
		b := rt.backends[ownerID]
		if !rt.admissible(b) {
			ownerUnreachable = true
		} else if br, failed := try(b); br != nil {
			relayBuffered(w, br)
			return
		} else if failed {
			ownerUnreachable = true
		}
	}
	if cid, ok := rt.claimantOf(id); ok && !tried[cid] {
		if b, known := rt.backends[cid]; known && rt.admissible(b) {
			rt.inc("jobs.claimant_polls")
			if br, _ := try(b); br != nil {
				// The claimant is the job's home now; send future polls
				// straight there.
				rt.rememberOwner(id, cid)
				relayBuffered(w, br)
				return
			}
		}
	}
	// A non-owner's 200 can be a stale replicated copy — "queued" from a
	// manifest while the actual claimant holds the terminal verdict — so the
	// scatter prefers a terminal answer, falling back to the first
	// non-terminal one only after every reachable backend has been asked.
	var nonTerminal *bufferedResp
	for _, bid := range rt.order {
		b := rt.backends[bid]
		// tried is checked BEFORE admissible: admissible consumes a half-open
		// trial ticket, and only an actual attempt returns it.
		if tried[b.id] || !rt.admissible(b) {
			continue
		}
		if br, _ := try(b); br != nil {
			var st service.JobStatus
			if json.Unmarshal(br.body, &st) == nil && st.ID != "" && service.JobState(st.State).Terminal() {
				rt.rememberOwner(id, b.id)
				relayBuffered(w, br)
				return
			}
			if nonTerminal == nil {
				nonTerminal = br
			}
		}
	}
	if nonTerminal != nil {
		relayBuffered(w, nonTerminal)
		return
	}
	if ownerUnreachable {
		// The backend that acknowledged this job is temporarily out of the
		// ring; answering 404 would falsely mean "lost". It is not: its WAL
		// will re-run the job on restart.
		writeError(w, http.StatusServiceUnavailable, "no_ready_backend",
			"the backend owning this job is temporarily unavailable; retry", 1)
		return
	}
	if last404 != nil {
		relayBuffered(w, last404)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "no_ready_backend",
		"no backend is ready to answer this poll; retry", 1)
}

// startTrace opens a proxied request's router trace and names it in the
// TraceHeader of whatever response follows, a 429 from admission included.
func (rt *Router) startTrace(w http.ResponseWriter, r *http.Request, name string) (context.Context, *trace.Trace, *trace.Span) {
	ctx, tr, root := rt.traces.Start(r.Context(), name)
	if id := tr.ID(); id != "" {
		w.Header().Set(TraceHeader, id)
	}
	return ctx, tr, root
}

func (rt *Router) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	rt.inc("requests.trace")
	if rt.traces == nil {
		writeError(w, http.StatusNotFound, "trace_not_found", "router tracing disabled", 0)
		return
	}
	tr, ok := rt.traces.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "trace_not_found", "trace not retained", 0)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.inc("requests.healthz")
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: the router is ready when at least one backend could take a
// request right now.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rt.inc("requests.readyz")
	now := rt.cfg.now()
	for _, id := range rt.order {
		if rt.usable(rt.backends[id], now) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no_ready_backend"})
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.inc("requests.stats")
	writeJSON(w, http.StatusOK, rt.Stats())
}

// readBody slurps the request body under the size bound.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "payload_too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), 0)
		} else {
			writeError(w, http.StatusBadRequest, "bad_request", "unreadable request body", 0)
		}
		return nil, false
	}
	return body, true
}

// writeForwardError maps a forward failure onto the taxonomy. Everything
// that gets here is retryable from the client's point of view: the request
// itself was never judged (4xx verdicts relay instead of erroring).
func (rt *Router) writeForwardError(w http.ResponseWriter, root *trace.Span, err error) {
	if root != nil {
		root.SetAttr("error", err.Error())
	}
	rt.inc("forward.exhausted")
	writeError(w, http.StatusServiceUnavailable, "no_ready_backend",
		fmt.Sprintf("no ring replica could serve this request: %v", err), 1)
}

func relayBuffered(w http.ResponseWriter, br *bufferedResp) {
	copyRelayHeaders(w, br.header)
	w.Header().Set(BackendHeader, br.backend)
	w.WriteHeader(br.status)
	_, _ = w.Write(br.body)
}

func copyRelayHeaders(w http.ResponseWriter, from http.Header) {
	for _, h := range relayHeaders {
		if v := from.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
