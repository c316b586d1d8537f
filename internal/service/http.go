package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"

	"merlin/internal/core"
	"merlin/internal/faultinject"
	"merlin/internal/gossip"
)

// maxBodyBytes bounds request bodies; a 64-sink net with knobs is ~10 KB, so
// 8 MiB leaves nearly three orders of magnitude for large nets. Oversized
// bodies get 413, not a generic 400.
const maxBodyBytes = 8 << 20

// Handler returns the service's HTTP API:
//
//	POST /v1/route     one net → tree + timing + frontier
//	POST /v1/jobs      submit an async job; 202 with a job ID (200 when an
//	                   Idempotency-Key deduplicates to an existing job)
//	GET  /v1/jobs/{id} poll a job; terminal states carry the result inline
//	GET  /v1/trace/{id}    one retained trace as OTLP-shaped JSON
//	GET  /v1/trace/stream  live NDJSON firehose of completed traces
//	GET  /v1/healthz   pure liveness; 200 as long as the process serves HTTP
//	GET  /v1/readyz    readiness; 503 while draining or when the WAL cannot
//	                   acknowledge jobs (routers eject backends on this)
//	GET  /v1/stats     metrics snapshot
//	POST /v1/gossip    SWIM-style push-pull digest exchange (gossiping nodes)
//	POST /v1/replica/{key}  receive one replicated result (durable nodes)
//	GET  /v1/replica/{key}  serve one stored result to a warming peer
//
// Every route is wrapped in a recover middleware: a handler panic fails that
// request with a structured 500 (code "internal") and leaves the server up.
// Error responses are JSON {"error": ..., "code": ...}; see writeError for
// the code → status taxonomy.
//
// Requests may carry an X-Merlin-Tenant header (set by clients or stamped by
// merlinrouter after QoS admission): the tenant name is attached to the
// request's trace and counted, so per-tenant behavior is observable end to
// end without the service itself enforcing quotas — admission is the router
// tier's job.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/route", s.handleRoute)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/trace/stream", s.handleTraceStream)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	if s.gossip != nil {
		mux.HandleFunc("POST "+gossip.GossipPath, gossip.Handler(s.gossip))
	}
	if s.store != nil {
		mux.HandleFunc("POST /v1/replica/{key}", s.handleReplicaPut)
		mux.HandleFunc("GET /v1/replica/{key}", s.handleReplicaGet)
	}
	return s.recoverWare(tenantWare(mux))
}

// TenantHeader names the tenant a request belongs to; merlinrouter keys its
// per-tenant QoS off it and forwards it here for tracing.
const TenantHeader = "X-Merlin-Tenant"

// DeadlineHeader carries the client's remaining wall budget in milliseconds.
// pkg/client derives it from its context deadline per attempt; the service
// folds it into the request's wall-time budget (the smaller of the two wins)
// and Config.MaxWallCap clamps the effective value. A deadline the compute
// cannot meet then fails truthfully as 422 budget_exceeded_wall — "too slow
// for your deadline" — instead of burning the full compute just to have the
// client hang up.
const DeadlineHeader = "X-Merlin-Deadline-Ms"

// foldDeadline merges the DeadlineHeader value into a request budget,
// creating the budget if needed. Returns the (possibly new) budget pointer.
func foldDeadline(r *http.Request, b *Budget) *Budget {
	ms, err := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64)
	if err != nil || ms <= 0 {
		return b
	}
	if b == nil {
		b = &Budget{}
	}
	if b.MaxWallMS == 0 || ms < b.MaxWallMS {
		b.MaxWallMS = ms
	}
	return b
}

type tenantCtxKey struct{}

// WithTenant returns ctx carrying the tenant name (empty name = unchanged).
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFromContext returns the tenant name carried by ctx, if any.
func TenantFromContext(ctx context.Context) string {
	t, _ := ctx.Value(tenantCtxKey{}).(string)
	return t
}

// tenantWare lifts the X-Merlin-Tenant header into the request context so
// Route/SubmitJob can stamp it onto traces without re-reading headers.
func tenantWare(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t := r.Header.Get(TenantHeader); t != "" {
			r = r.WithContext(WithTenant(r.Context(), t))
		}
		next.ServeHTTP(w, r)
	})
}

// statusWriter remembers whether a response has started, so the recover
// middleware knows if a structured 500 can still be written. It forwards
// Flush for the NDJSON trace stream.
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

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recoverWare contains handler panics: the panicking request gets a
// structured 500 (if the response has not started), the stack is recorded,
// the panics metric is bumped, and the server keeps serving. net/http's own
// per-connection recover would otherwise just sever the connection with no
// response. http.ErrAbortHandler is re-raised: it is the sanctioned
// "client is gone, stop writing" signal, not a bug.
func (s *Server) recoverWare(next http.Handler) http.Handler {
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
			s.met.inc("panics")
			log.Printf("service: contained handler panic on %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			if !sw.wrote {
				s.writeError(sw, fmt.Errorf("%w: contained handler panic: %v", ErrInternal, rec))
			}
		}()
		if err := faultinject.Fire(faultinject.SiteServiceHandler); err != nil {
			s.writeError(sw, err)
			return
		}
		next.ServeHTTP(sw, r)
	})
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	s.met.inc("requests.route")
	var req RouteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.Budget = foldDeadline(r, req.Budget)
	resp, err := s.Route(r.Context(), &req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobSubmit accepts one async routing job. The request body is a
// RouteRequest; an Idempotency-Key header makes the submission safely
// retryable — the same key returns the same job (200), a different body
// under the same key is a 409. The 202 acknowledgment means the job is
// journaled (when durability is on) and will reach a terminal state even
// across a crash.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.met.inc("requests.jobs.submit")
	var req RouteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.Budget = foldDeadline(r, req.Budget)
	st, created, err := s.SubmitJob(r.Context(), &req, r.Header.Get("Idempotency-Key"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if !created {
		status = http.StatusOK
	}
	writeJSON(w, status, st)
}

// handleJobGet reports one job's state; done/degraded jobs carry the
// (checksum-verified) result inline.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	s.met.inc("requests.jobs.get")
	st, err := s.JobStatus(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHealthz is pure liveness: 200 whenever the process is up and serving
// HTTP, draining or not. "Restart me" (healthz) and "stop routing to me"
// (readyz) are different questions — conflating them makes an orchestrator
// kill a server that is carefully draining its in-flight work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.inc("requests.healthz")
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 while draining or while the journal cannot
// acknowledge jobs. The same answer rides this backend's gossip digest,
// which is how routers drain it without touching its in-flight work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.met.inc("requests.readyz")
	if ok, reason := s.Ready(); !ok {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.met.inc("requests.stats")
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		// An oversized body is its own failure class (413), not a malformed
		// one (400): the client must shrink or split the request, not fix it.
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		s.writeError(w, err)
		return false
	}
	return true
}

// ErrorBody is the wire form of every error response: a human-readable
// message plus a stable machine-readable code (see writeError for the
// taxonomy). Clients branch on Code or the status, never on Error text.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeError maps the service error taxonomy onto HTTP:
//
//	400 bad_request             ErrBadRequest — malformed or invalid request
//	413 payload_too_large       body exceeded maxBodyBytes
//	422 budget_exceeded         core.ErrBudgetSolutions (or a generic
//	                            core.ErrBudgetExceeded) — the problem is too
//	                            big for its budget; same bytes won't fit later
//	422 budget_exceeded_wall    core.ErrBudgetWallTime — too slow, not too
//	                            big: the wall-time budget ran out; a bigger
//	                            budget, a quieter server, or allow_degraded
//	                            could still serve this request
//	404 job_not_found           ErrJobNotFound — unknown (or evicted) job ID
//	404 trace_not_found         ErrTraceNotFound — trace id not retained
//	                            (evicted from the ring, sampled out, or
//	                            tracing disabled); "gone", not "wrong"
//	409 idempotency_conflict    ErrIdemConflict — Idempotency-Key reused with
//	                            a different request body; do not retry
//	429 queue_full              ErrQueueFull — bounded queue rejected the
//	                            request; Retry-After carries a drain estimate
//	503 shutting_down           ErrShuttingDown — server is draining
//	503 durability_unavailable  ErrDurability — the WAL could not acknowledge
//	                            the job; retry against a healthy disk
//	503 canceled                client went away mid-request
//	504 timeout                 per-request compute deadline exceeded
//	500 internal                ErrInternal / core.ErrInternal — contained
//	                            panic or other server-side failure
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := classifyError(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, status, ErrorBody{Error: err.Error(), Code: code})
}

func classifyError(err error) (status int, code string) {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge, "payload_too_large"
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, core.ErrBudgetWallTime):
		// Checked before the generic sentinel it wraps: "too slow" and "too
		// big" call for different client reactions (see the taxonomy above).
		return http.StatusUnprocessableEntity, "budget_exceeded_wall"
	case errors.Is(err, core.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity, "budget_exceeded"
	case errors.Is(err, ErrJobNotFound):
		return http.StatusNotFound, "job_not_found"
	case errors.Is(err, ErrTraceNotFound):
		return http.StatusNotFound, "trace_not_found"
	case errors.Is(err, ErrIdemConflict):
		return http.StatusConflict, "idempotency_conflict"
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, "shutting_down"
	case errors.Is(err, ErrDurability):
		return http.StatusServiceUnavailable, "durability_unavailable"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		// Client went away; the status is never seen but 499-style closure
		// beats pretending the server failed.
		return http.StatusServiceUnavailable, "canceled"
	}
	return http.StatusInternalServerError, "internal"
}

// retryAfterSeconds estimates when queue capacity frees up: current depth
// over the pool's drain rate, using the observed mean job latency (1s when
// there is no history yet), clamped to [1s, 60s]. It is a hint for client
// backoff, not a promise.
func (s *Server) retryAfterSeconds() int {
	depth := len(s.jobs)
	meanMS := s.met.meanLatencyMS("flow_")
	if meanMS <= 0 {
		meanMS = 1000
	}
	sec := int(math.Ceil(float64(depth+1) * meanMS / 1000 / float64(s.cfg.Workers)))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// meanLatencyMS returns the mean sample over all histograms whose name has
// the prefix; 0 when there are no samples.
func (m *metrics) meanLatencyMS(prefix string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	var count uint64
	for name, h := range m.hists {
		if strings.HasPrefix(name, prefix) {
			sum += h.sum
			count += h.count
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
